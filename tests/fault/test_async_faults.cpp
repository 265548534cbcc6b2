/**
 * Fault routing through the async closed-loop front-end: the same
 * FaultPlan / HealthMonitor / DegradationManager stack drives
 * PipelineMode::Async, deferral accounting replaces load shedding
 * under congestion, and availability bookkeeping matches sync mode.
 */
#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "fault/perception_miss_spec.h"
#include "sovpipe/closed_loop.h"

namespace sov {
namespace {

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

TEST(AsyncClosedLoop, SameSeedSameResult)
{
    // Each run gets a fresh plan: a channel's stream is part of its
    // state.
    const auto run = [] {
        FaultPlan plan(Rng(11).fork("fault"));
        plan.add(test::perceptionMiss(0.3));
        ClosedLoopConfig cfg;
        cfg.pipeline_mode = PipelineMode::Async;
        cfg.faults = &plan;
        cfg.enable_health = true;
        return runScenario(cfg, 11);
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.collided, b.collided);
    EXPECT_EQ(a.min_gap, b.min_gap);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.frames_deferred, b.frames_deferred);
    EXPECT_EQ(a.frames_dropped, b.frames_dropped);
    EXPECT_EQ(a.elapsed.ns(), b.elapsed.ns());
}

TEST(AsyncClosedLoop, FaultFreeRunMatchesSyncAvailabilityExactly)
{
    // Availability counts a cycle proactive before the congestion
    // branch in both modes, so on a fault-free run the bookkeeping
    // agrees bit for bit even though async defers the (few) congested
    // cycles that sync sheds.
    ClosedLoopConfig sync_cfg;
    sync_cfg.enable_health = true;
    const auto sync_r = runScenario(sync_cfg, 31);

    ClosedLoopConfig async_cfg = sync_cfg;
    async_cfg.pipeline_mode = PipelineMode::Async;
    const auto async_r = runScenario(async_cfg, 31);

    EXPECT_EQ(async_r.availability, sync_r.availability);
    EXPECT_EQ(async_r.collided, sync_r.collided);
    EXPECT_EQ(async_r.stopped, sync_r.stopped);
    // Deferral admits frames shedding would discard: drops can only
    // go down, and every drop is a superseded deferral.
    EXPECT_LE(async_r.frames_dropped, sync_r.frames_dropped);
    EXPECT_GE(async_r.frames_deferred, async_r.frames_dropped);
}

TEST(AsyncClosedLoop, SupervisedStageCrashesSurviveInAsyncMode)
{
    // The planning stage crashes on ~35% of frames. The watchdog
    // (routed through the async front-end) retries, abandoned frames
    // are skipped, and the vehicle still stops without collision —
    // the sync-mode contract, now under deferral admission.
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
    cfg.pipeline_mode = PipelineMode::Async;
    cfg.faults = &plan;
    cfg.enable_health = true;
    runtime::StagePolicy watchdog;
    watchdog.timeout = Duration::millisF(400.0);
    watchdog.max_retries = 1;
    watchdog.retry_backoff = Duration::millisF(10.0);
    cfg.stage_policy = watchdog;
    const auto result = runScenario(cfg, 24);

    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GT(result.pipeline_frames_failed, 0u);
    EXPECT_GE(result.worst_level, DegradationLevel::Degraded);
}

TEST(AsyncClosedLoop, CongestionDefersInsteadOfShedding)
{
    // An unsupervised localization hang wedges the pipeline. Sync mode
    // sheds the congested cycles outright; async mode parks the newest
    // command under backpressure (deferrals), dropping only plans that
    // were superseded before admission.
    const auto faultedRun = [](PipelineMode mode) {
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
        cfg.pipeline_mode = mode;
        cfg.faults = &plan;
        cfg.enable_health = true;
        return runScenario(cfg, 25, /*wall_x=*/0.0, 20.0);
    };

    const auto sync_r = faultedRun(PipelineMode::Sync);
    const auto async_r = faultedRun(PipelineMode::Async);

    EXPECT_FALSE(async_r.collided);
    EXPECT_EQ(sync_r.frames_deferred, 0u);
    EXPECT_GT(async_r.frames_deferred, 0u);
    EXPECT_GE(async_r.worst_level, DegradationLevel::ReactiveOnly);
    // Deferral admits work that shedding would discard: availability
    // must never come out worse than sync under the same fault.
    EXPECT_GE(async_r.availability, sync_r.availability - 0.02);
}

TEST(AsyncClosedLoop, DisabledFaultPlanIsBitTransparent)
{
    // The sync-mode transparency contract holds through the async
    // front-end: a plan whose channels never fire changes nothing.
    ClosedLoopConfig clean_cfg;
    clean_cfg.pipeline_mode = PipelineMode::Async;
    const auto clean = runScenario(clean_cfg, 12);

    FaultPlan plan(Rng(555));
    FaultSpec crash;
    crash.name = "planning-crash";
    crash.target = FaultTarget::PipelineStage;
    crash.mode = FaultMode::Crash;
    crash.stage = "planning";
    crash.probability = 0.0;
    plan.add(crash);

    ClosedLoopConfig faulted_cfg = clean_cfg;
    faulted_cfg.faults = &plan;
    const auto faulted = runScenario(faulted_cfg, 12);

    EXPECT_EQ(faulted.collided, clean.collided);
    EXPECT_EQ(faulted.min_gap, clean.min_gap);
    EXPECT_EQ(faulted.availability, clean.availability);
    EXPECT_EQ(faulted.frames_deferred, clean.frames_deferred);
    EXPECT_EQ(faulted.elapsed.ns(), clean.elapsed.ns());
    EXPECT_EQ(plan.totalInjections(), 0u);
}

} // namespace
} // namespace sov
