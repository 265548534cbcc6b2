#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "fault/perception_miss_spec.h"
#include "sovpipe/closed_loop.h"

namespace sov {
namespace {

using fault::FaultChannel;
using fault::FaultMode;
using fault::FaultPlan;
using fault::FaultSpec;
using fault::FaultTarget;
using health::DegradationLevel;

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

/** Field-by-field exact comparison for determinism regression. */
void
expectBitIdentical(const ClosedLoopResult &a, const ClosedLoopResult &b)
{
    EXPECT_EQ(a.collided, b.collided);
    EXPECT_EQ(a.stopped, b.stopped);
    EXPECT_EQ(a.min_gap, b.min_gap); // exact, not NEAR
    EXPECT_EQ(a.distance_travelled, b.distance_travelled);
    EXPECT_EQ(a.reactive_triggers, b.reactive_triggers);
    EXPECT_EQ(a.reactive_fraction, b.reactive_fraction);
    EXPECT_EQ(a.deadline_misses, b.deadline_misses);
    EXPECT_EQ(a.frames_dropped, b.frames_dropped);
    EXPECT_EQ(a.pipeline_frames_failed, b.pipeline_frames_failed);
    EXPECT_EQ(a.can_frames_lost, b.can_frames_lost);
    EXPECT_EQ(a.sensor_dropouts, b.sensor_dropouts);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.elapsed.ns(), b.elapsed.ns());
}

ClosedLoopResult
runScenario(const ClosedLoopConfig &cfg, std::uint64_t seed,
            double wall_x = 40.0, double horizon_s = 40.0)
{
    World world;
    if (wall_x > 0.0)
        world.addObstacle(wallAt(wall_x));
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(seed));
    return sim.run(Duration::seconds(horizon_s));
}

TEST(ClosedLoopDeterminism, SameSeedSameResult)
{
    // Identical seeds must give bit-identical results. Each run gets a
    // fresh plan: a channel's stream is part of its state.
    const auto run = [] {
        FaultPlan plan(Rng(11).fork("fault"));
        plan.add(test::perceptionMiss(0.3));
        ClosedLoopConfig cfg;
        cfg.faults = &plan;
        cfg.enable_health = true;
        return runScenario(cfg, 11);
    };
    const auto a = run();
    const auto b = run();
    expectBitIdentical(a, b);
    EXPECT_EQ(a.final_level, b.final_level);
    EXPECT_EQ(a.worst_level, b.worst_level);
}

TEST(ClosedLoopDeterminism, DisabledFaultPlanIsBitTransparent)
{
    // A constructed FaultPlan whose channels can never fire must leave
    // the run bit-identical to one with no plan at all: disabled
    // channels never draw, and stage injectors invoke the wrapped
    // executor first so sampler streams stay aligned.
    ClosedLoopConfig clean_cfg;
    const auto clean = runScenario(clean_cfg, 12);

    FaultPlan plan(Rng(555));
    FaultSpec cam;
    cam.name = "cam-drop";
    cam.target = FaultTarget::Camera;
    cam.mode = FaultMode::Dropout;
    cam.probability = 0.0; // disabled: decides without drawing
    plan.add(cam);
    FaultSpec crash;
    crash.name = "planning-crash";
    crash.target = FaultTarget::PipelineStage;
    crash.mode = FaultMode::Crash;
    crash.stage = "planning";
    crash.window_start = Timestamp::seconds(1e9); // never opens
    plan.add(crash);
    FaultSpec can;
    can.name = "can-loss";
    can.target = FaultTarget::CanBus;
    can.mode = FaultMode::Dropout;
    can.probability = 0.0;
    plan.add(can);
    FaultSpec radar;
    radar.name = "radar-drop";
    radar.target = FaultTarget::Radar;
    radar.mode = FaultMode::Dropout;
    radar.probability = 0.0;
    plan.add(radar);

    ClosedLoopConfig faulted_cfg;
    faulted_cfg.faults = &plan;
    const auto faulted = runScenario(faulted_cfg, 12);

    expectBitIdentical(clean, faulted);
    EXPECT_EQ(plan.totalInjections(), 0u);
}

TEST(ClosedLoopFaults, CameraDropoutDegradesToReactiveOnlyAndStops)
{
    // Acceptance scenario: the camera goes dark mid-run in front of a
    // Sec. IV wall. The monitor must notice the silence, fall back to
    // REACTIVE_ONLY, and the radar->ECU path must stop the vehicle
    // without collision.
    FaultPlan plan(Rng(1));
    FaultSpec cam;
    cam.name = "cam-dead";
    cam.target = FaultTarget::Camera;
    cam.mode = FaultMode::Dropout;
    cam.window_start = Timestamp::seconds(1.0);
    plan.add(cam);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;
    const auto result = runScenario(cfg, 21);

    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GE(result.min_gap, 0.0);
    EXPECT_GE(result.reactive_triggers, 1u);
    EXPECT_EQ(result.worst_level, DegradationLevel::ReactiveOnly);
    EXPECT_EQ(result.final_level, DegradationLevel::ReactiveOnly);
    EXPECT_GT(result.sensor_dropouts, 0u);
    // The first second ran proactive; after the dropout nothing did.
    EXPECT_LT(result.availability, 0.9);
}

TEST(ClosedLoopFaults, WithoutHealthMonitoringSameFaultIsHandledByReactive)
{
    // Same camera blackout, supervision off: no degradation levels are
    // reported, but the always-on reactive path still saves the run —
    // the paper's layered-defense argument.
    FaultPlan plan(Rng(1));
    FaultSpec cam;
    cam.name = "cam-dead";
    cam.target = FaultTarget::Camera;
    cam.mode = FaultMode::Dropout;
    cam.window_start = Timestamp::seconds(1.0);
    plan.add(cam);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = false;
    const auto result = runScenario(cfg, 22);

    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_EQ(result.worst_level, DegradationLevel::Nominal);
}

TEST(ClosedLoopFaults, RadarSilenceForcesSafeStop)
{
    // The reactive path's own sensor goes dark: the last line of
    // defense is blind, so the only safe answer is to stop now.
    FaultPlan plan(Rng(2));
    FaultSpec radar;
    radar.name = "radar-dead";
    radar.target = FaultTarget::Radar;
    radar.mode = FaultMode::Dropout;
    radar.window_start = Timestamp::seconds(1.0);
    plan.add(radar);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;
    const auto result = runScenario(cfg, 23, /*wall_x=*/0.0);

    EXPECT_TRUE(result.stopped);
    EXPECT_FALSE(result.collided);
    EXPECT_EQ(result.final_level, DegradationLevel::SafeStop);
    // SAFE_STOP latched within ~1.2 s plus braking from 5.6 m/s: the
    // vehicle must be stationary in well under 4 s.
    EXPECT_LT(result.elapsed.toSeconds(), 4.0);
}

TEST(ClosedLoopFaults, StageCrashesDegradeButWatchdogKeepsDriving)
{
    // The planning stage crashes roughly every third frame. The
    // watchdog retries once, abandoned frames are skipped, the level
    // degrades — and the vehicle still stops for the wall proactively
    // or reactively, without collision.
    FaultPlan plan(Rng(3));
    FaultSpec crash;
    crash.name = "planning-crash";
    crash.target = FaultTarget::PipelineStage;
    crash.mode = FaultMode::Crash;
    crash.stage = "planning";
    crash.probability = 0.35;
    crash.latency = Duration::millisF(5.0);
    plan.add(crash);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;
    runtime::StagePolicy watchdog;
    watchdog.timeout = Duration::millisF(400.0);
    watchdog.max_retries = 1;
    cfg.stage_policy = watchdog;
    const auto result = runScenario(cfg, 24);

    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GT(result.pipeline_frames_failed, 0u);
    EXPECT_GE(result.worst_level, DegradationLevel::Degraded);
}

TEST(ClosedLoopFaults, UnsupervisedHangTripsStallDetection)
{
    // A hung localization stage with no watchdog wedges the pipeline;
    // load shedding starts dropping cycles and the stall detector
    // demotes to REACTIVE_ONLY.
    FaultPlan plan(Rng(4));
    FaultSpec hang;
    hang.name = "loc-hang";
    hang.target = FaultTarget::PipelineStage;
    hang.mode = FaultMode::Hang;
    hang.stage = "localization";
    hang.window_start = Timestamp::seconds(2.0);
    hang.window_end = Timestamp::seconds(2.2);
    plan.add(hang);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;
    const auto result = runScenario(cfg, 25, /*wall_x=*/0.0, 20.0);

    EXPECT_FALSE(result.collided);
    EXPECT_GT(result.frames_dropped, 0u);
    EXPECT_GE(result.worst_level, DegradationLevel::ReactiveOnly);
}

TEST(ClosedLoopFaults, CanFrameLossIsCountedAndSurvivable)
{
    // Half the command frames die on the bus. The actuator holds the
    // last applied command between arrivals, so an empty route stays
    // safe; the loss shows up in the counters.
    FaultPlan plan(Rng(5));
    FaultSpec loss;
    loss.name = "can-loss";
    loss.target = FaultTarget::CanBus;
    loss.mode = FaultMode::Dropout;
    loss.probability = 0.5;
    plan.add(loss);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    const auto result = runScenario(cfg, 26, /*wall_x=*/0.0);

    EXPECT_FALSE(result.collided);
    EXPECT_GT(result.can_frames_lost, 0u);
}

TEST(ClosedLoopFaults, PerceptionMissChannelMatchesLegacyBehavior)
{
    // Near-total vision failure without the reactive path collides;
    // with it the vehicle stops.
    FaultPlan dangerous_plan(Rng(7).fork("fault"));
    dangerous_plan.add(test::perceptionMiss(0.97));
    ClosedLoopConfig dangerous;
    dangerous.enable_reactive = false;
    dangerous.faults = &dangerous_plan;
    EXPECT_TRUE(runScenario(dangerous, 7, 40.0, 30.0).collided);

    FaultPlan covered_plan(Rng(7).fork("fault"));
    covered_plan.add(test::perceptionMiss(0.97));
    ClosedLoopConfig covered;
    covered.faults = &covered_plan;
    const auto saved = runScenario(covered, 7, 40.0, 30.0);
    EXPECT_FALSE(saved.collided);
    EXPECT_TRUE(saved.stopped);
}

TEST(ClosedLoopFaults, ExternalPerceptionChannelAlsoCausesMisses)
{
    // A Perception/Dropout channel on any plan stream causes misses.
    FaultPlan plan(Rng(6));
    FaultSpec miss;
    miss.name = "vision-miss";
    miss.target = FaultTarget::Perception;
    miss.mode = FaultMode::Dropout;
    miss.probability = 0.97;
    plan.add(miss);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_reactive = false;
    const auto result = runScenario(cfg, 27, 40.0, 30.0);
    EXPECT_TRUE(result.collided);
}

TEST(ClosedLoopFaults, CameraFreezeServesStaleWorld)
{
    // A frozen camera keeps replaying the last frame: planning
    // continues (heartbeats flow, no degradation) but on stale data.
    FaultPlan plan(Rng(7));
    FaultSpec freeze;
    freeze.name = "cam-freeze";
    freeze.target = FaultTarget::Camera;
    freeze.mode = FaultMode::Freeze;
    freeze.window_start = Timestamp::seconds(1.0);
    plan.add(freeze);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    cfg.enable_health = true;
    const auto result = runScenario(cfg, 28);

    // The reactive path still guards the wall; no collision either way.
    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_EQ(result.worst_level, DegradationLevel::Nominal);
}

TEST(ClosedLoopFaults, EveryRadarDropoutChannelBlanksItsWindow)
{
    // Two radar dropout channels with disjoint windows: each blanks
    // the 200 Hz sweeps of its own second, and every blanked sweep
    // counts as a sensor dropout.
    FaultPlan plan(Rng(8));
    FaultSpec early;
    early.name = "radar-early";
    early.target = FaultTarget::Radar;
    early.mode = FaultMode::Dropout;
    early.window_start = Timestamp::seconds(1.0);
    early.window_end = Timestamp::seconds(2.0);
    FaultChannel &a = plan.add(early);
    FaultSpec late = early;
    late.name = "radar-late";
    late.window_start = Timestamp::seconds(3.0);
    late.window_end = Timestamp::seconds(4.0);
    FaultChannel &b = plan.add(late);

    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    const auto result = runScenario(cfg, 29, /*wall_x=*/0.0,
                                    /*horizon_s=*/5.0);

    EXPECT_EQ(a.injections(), 200u);
    EXPECT_EQ(b.injections(), 200u);
    EXPECT_EQ(result.sensor_dropouts, 400u);
}

/** Build a sim over a plan holding only @p spec (the constructor
 *  binds and checks the plan). */
void
bindOnly(FaultSpec spec)
{
    FaultPlan plan(Rng(9));
    spec.name = "unsupported";
    plan.add(spec);
    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    World world;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(30));
}

TEST(ClosedLoopFaultsDeathTest, RejectsChannelsTheLoopCannotApply)
{
    FaultSpec spec;
    spec.target = FaultTarget::Radar;
    spec.mode = FaultMode::Freeze;
    EXPECT_DEATH(bindOnly(spec), "'unsupported' \\(radar/freeze\\)");
    spec.target = FaultTarget::Perception;
    spec.mode = FaultMode::Corruption;
    EXPECT_DEATH(bindOnly(spec),
                 "'unsupported' \\(perception/corruption\\)");
    spec.target = FaultTarget::CanBus;
    spec.mode = FaultMode::LatencySpike;
    EXPECT_DEATH(bindOnly(spec), "'unsupported' \\(can/latency-spike\\)");
}

} // namespace
} // namespace sov
