#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/perception_miss_spec.h"
#include "sovpipe/closed_loop.h"

namespace sov {
namespace {

using fault::FaultMode;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::FaultTarget;

Polyline2
straightRoute()
{
    return Polyline2({Vec2(0, 0), Vec2(300, 0)});
}

Obstacle
wallAt(double x)
{
    Obstacle o;
    o.footprint = OrientedBox2{Pose2{Vec2(x, 0.0), 0.0}, 0.5, 2.5};
    o.height = 2.0;
    return o;
}

ClosedLoopResult
runScenario(const ClosedLoopConfig &cfg, std::uint64_t seed,
            obs::TraceRecorder *recorder)
{
    World world;
    world.addObstacle(wallAt(40.0));
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(seed));
    if (recorder)
        sim.setTraceRecorder(recorder);
    return sim.run(Duration::seconds(40.0));
}

FaultSpec
cameraBlackout()
{
    FaultSpec cam;
    cam.name = "cam-dead";
    cam.target = FaultTarget::Camera;
    cam.mode = FaultMode::Dropout;
    cam.window_start = Timestamp::seconds(1.0);
    return cam;
}

TEST(ClosedLoopTrace, TracedRunIsBitIdenticalToUntraced)
{
    // The acceptance bar for the spine: attaching a recorder must not
    // move a single bit of the simulation outcome.
    // Each run gets a fresh plan: a channel's stream is part of its
    // state.
    FaultPlan bare_plan(Rng(31).fork("fault"));
    bare_plan.add(test::perceptionMiss(0.3));
    FaultPlan traced_plan(Rng(31).fork("fault"));
    traced_plan.add(test::perceptionMiss(0.3));
    ClosedLoopConfig cfg;
    cfg.enable_health = true;
    cfg.faults = &bare_plan;
    const ClosedLoopResult bare = runScenario(cfg, 31, nullptr);
    obs::TraceRecorder rec;
    cfg.faults = &traced_plan;
    const ClosedLoopResult traced = runScenario(cfg, 31, &rec);

    EXPECT_EQ(bare.collided, traced.collided);
    EXPECT_EQ(bare.stopped, traced.stopped);
    EXPECT_EQ(bare.min_gap, traced.min_gap); // exact, not NEAR
    EXPECT_EQ(bare.distance_travelled, traced.distance_travelled);
    EXPECT_EQ(bare.reactive_triggers, traced.reactive_triggers);
    EXPECT_EQ(bare.reactive_fraction, traced.reactive_fraction);
    EXPECT_EQ(bare.deadline_misses, traced.deadline_misses);
    EXPECT_EQ(bare.frames_dropped, traced.frames_dropped);
    EXPECT_EQ(bare.pipeline_frames_failed, traced.pipeline_frames_failed);
    EXPECT_EQ(bare.sensor_dropouts, traced.sensor_dropouts);
    EXPECT_EQ(bare.availability, traced.availability);
    EXPECT_EQ(bare.elapsed.ns(), traced.elapsed.ns());
    EXPECT_EQ(bare.worst_level, traced.worst_level);
    EXPECT_GT(rec.eventCount(), 0u);
}

TEST(ClosedLoopTrace, CoversEveryFig5StageWithFrameSpans)
{
    ClosedLoopConfig cfg;
    obs::TraceRecorder rec;
    runScenario(cfg, 32, &rec);

    std::set<std::string> span_names;
    std::uint64_t frame_spans = 0;
    for (const obs::TraceEvent &e : rec.snapshot()) {
        if (e.kind != obs::EventKind::Span)
            continue;
        span_names.insert(rec.name(e.name));
        if (rec.name(e.category) == "frame")
            ++frame_spans;
    }
    // Every Fig. 5 pipeline stage shows up as its own span lane.
    for (const char *stage : {"sensing", "depth", "detection", "tracking",
                              "localization", "planning"})
        EXPECT_TRUE(span_names.count(stage)) << stage;
    // Plus one end-to-end span per completed frame.
    EXPECT_GT(frame_spans, 0u);
}

TEST(ClosedLoopTrace, FaultAndDegradationInstantsAppear)
{
    FaultPlan plan(Rng(1));
    plan.add(cameraBlackout());
    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;

    obs::TraceRecorder rec;
    const ClosedLoopResult result = runScenario(cfg, 33, &rec);
    ASSERT_GE(result.worst_level, health::DegradationLevel::Degraded);

    std::set<std::string> instant_cats;
    std::set<std::string> instant_names;
    for (const obs::TraceEvent &e : rec.snapshot()) {
        if (e.kind != obs::EventKind::Instant)
            continue;
        instant_cats.insert(rec.name(e.category));
        instant_names.insert(rec.name(e.name));
    }
    // The injected channel lands instants named after its spec...
    EXPECT_TRUE(instant_names.count("cam-dead"));
    EXPECT_TRUE(instant_cats.count("fault"));
    // ...and the NOMINAL -> ... transitions land as health instants
    // named after the level entered.
    EXPECT_TRUE(instant_cats.count("health"));
    EXPECT_TRUE(instant_names.count(
        health::toString(result.worst_level)));
}

TEST(ClosedLoopTrace, ChromeExportLoadsAsSingleJsonObject)
{
    ClosedLoopConfig cfg;
    obs::TraceRecorder rec;
    runScenario(cfg, 34, &rec);
    std::ostringstream os;
    rec.writeChromeTrace(os);
    const std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Stage spans carry the resource lane as their tid metadata.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ClosedLoopTrace, SteadyStateTracingAddsNoAllocations)
{
    // Frames after the first have every name interned and the ring
    // carved: the recorder's allocation count must not move.
    World world;
    ClosedLoopConfig cfg;
    obs::TraceRecorder rec;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(35));
    sim.setTraceRecorder(&rec);
    sim.run(Duration::seconds(2.0));
    const std::size_t baseline = rec.systemAllocations();
    EXPECT_GE(baseline, 1u);
    sim.reset();
    sim.run(Duration::seconds(10.0));
    EXPECT_EQ(rec.systemAllocations(), baseline);
    EXPECT_GT(rec.eventCount(), 0u);
}

} // namespace
} // namespace sov
