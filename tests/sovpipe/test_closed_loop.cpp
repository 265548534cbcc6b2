#include <gtest/gtest.h>

#include <cmath>

#include "fault/perception_miss_spec.h"
#include "sovpipe/closed_loop.h"

namespace sov {
namespace {

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

TEST(ClosedLoop, CruisesCleanRouteWithoutIncident)
{
    World world;
    ClosedLoopConfig cfg;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(1));
    const auto result = sim.run(Duration::seconds(80.0));
    EXPECT_FALSE(result.collided);
    EXPECT_GT(result.distance_travelled, 250.0);
    EXPECT_EQ(result.reactive_triggers, 0u);
    EXPECT_LT(result.reactive_fraction, 0.05);
}

TEST(ClosedLoop, ProactivelyStopsForDistantObstacle)
{
    // Obstacle far ahead: the proactive path alone must stop the
    // vehicle smoothly, without the reactive override.
    World world;
    world.addObstacle(wallAt(60.0));
    ClosedLoopConfig cfg;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(2));
    const auto result = sim.run(Duration::seconds(60.0));
    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GT(result.min_gap, 1.0);
    EXPECT_EQ(result.reactive_triggers, 0u);
}

TEST(ClosedLoop, ReactiveCatchesSuddenObstacle)
{
    // Obstacle appears only 6 m ahead of a moving vehicle: too close
    // for the proactive pipeline (mean 164 ms + stopping) alone at
    // first detection; the reactive path must engage and prevent the
    // collision.
    World world;
    ClosedLoopConfig cfg;
    cfg.enable_proactive = false; // isolate the reactive path
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(3));
    world.addObstacle(wallAt(6.0));
    const auto result = sim.run(Duration::seconds(20.0));
    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GE(result.reactive_triggers, 1u);
    EXPECT_GE(result.min_gap, 0.0);
}

TEST(ClosedLoop, TooCloseObstacleIsPhysicallyUnavoidable)
{
    // Inside the braking envelope (< ~4 m incl. reaction), even the
    // reactive path cannot avoid impact — the theoretical limit of
    // Fig. 3a.
    World world;
    ClosedLoopConfig cfg;
    cfg.enable_proactive = false;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(4));
    world.addObstacle(wallAt(2.5));
    const auto result = sim.run(Duration::seconds(20.0));
    EXPECT_TRUE(result.collided);
}

TEST(ClosedLoop, LongerComputeLatencyNeedsMoreDistance)
{
    // Delay every camera frame for the whole run, on top of the Fig. 5
    // pipeline latency: a short spike still stops short of the wall,
    // a long one does not (Fig. 3a's closed-loop counterpart).
    auto run_with_latency = [](double ms) {
        World world;
        world.addObstacle(wallAt(30.0));
        fault::FaultPlan plan(Rng(5).fork("fault"));
        fault::FaultSpec spike;
        spike.name = "camera-latency";
        spike.target = fault::FaultTarget::Camera;
        spike.mode = fault::FaultMode::LatencySpike;
        spike.latency = Duration::millisF(ms);
        plan.add(spike);
        ClosedLoopConfig cfg;
        cfg.enable_reactive = false;
        cfg.faults = &plan;
        ClosedLoopSim sim(world, straightRoute(), cfg,
                          SovPipelineConfig{}, Rng(5));
        return sim.run(Duration::seconds(40.0));
    };
    const auto fast = run_with_latency(100.0);
    const auto slow = run_with_latency(700.0);
    EXPECT_FALSE(fast.collided);
    EXPECT_NEAR(fast.min_gap, 1.66, 0.005);
    EXPECT_TRUE(slow.collided);
}

TEST(ClosedLoop, MostTimeSpentProactive)
{
    // Sec. V-C: "our deployed vehicles stay in the proactive paths for
    // over 90% of the time".
    World world;
    // A pedestrian crossing well ahead: proactive handles it.
    Obstacle ped;
    ped.cls = ObjectClass::Pedestrian;
    ped.footprint = OrientedBox2{Pose2{Vec2(150.0, -8.0), 0.0}, 0.3, 0.3};
    ped.velocity = Vec2(0.0, 0.5);
    world.addObstacle(ped);
    ClosedLoopConfig cfg;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(6));
    const auto result = sim.run(Duration::seconds(80.0));
    EXPECT_FALSE(result.collided);
    EXPECT_GT(1.0 - result.reactive_fraction, 0.9);
}

TEST(ClosedLoop, VisionFailureAloneIsDangerous)
{
    // Sec. III-C scenario 2: the detector misses the obstacle in most
    // frames. The proactive path alone cannot be trusted.
    World world;
    world.addObstacle(wallAt(40.0));
    fault::FaultPlan plan(Rng(7).fork("fault"));
    plan.add(test::perceptionMiss(0.97));
    ClosedLoopConfig cfg;
    cfg.enable_reactive = false;
    cfg.faults = &plan;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(7));
    const auto result = sim.run(Duration::seconds(30.0));
    EXPECT_TRUE(result.collided);
}

TEST(ClosedLoop, ReactivePathCoversVisionFailure)
{
    // Same failure with the reactive path armed: the radar override
    // ("the last line of defense", Sec. IV) stops the vehicle.
    World world;
    world.addObstacle(wallAt(40.0));
    fault::FaultPlan plan(Rng(7).fork("fault"));
    plan.add(test::perceptionMiss(0.97));
    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(7));
    const auto result = sim.run(Duration::seconds(30.0));
    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_GE(result.reactive_triggers, 1u);
    EXPECT_GE(result.min_gap, 0.0);
}

TEST(ClosedLoop, OccasionalMissesHandledProactively)
{
    // Mild failure rates only delay the proactive reaction; no
    // reactive trigger needed for a far obstacle.
    World world;
    world.addObstacle(wallAt(60.0));
    fault::FaultPlan plan(Rng(8).fork("fault"));
    plan.add(test::perceptionMiss(0.3));
    ClosedLoopConfig cfg;
    cfg.faults = &plan;
    ClosedLoopSim sim(world, straightRoute(), cfg, SovPipelineConfig{},
                      Rng(8));
    const auto result = sim.run(Duration::seconds(60.0));
    EXPECT_FALSE(result.collided);
    EXPECT_TRUE(result.stopped);
    EXPECT_EQ(result.reactive_triggers, 0u);
}

TEST(ClosedLoop, FollowsCurvedRoute)
{
    // An S-curve route: the MPC must hold the vehicle near the path
    // through both bends at cruise speed.
    Polyline2 route;
    for (int i = 0; i <= 120; ++i) {
        const double s = i * 2.0;
        route.append(Vec2(s, 10.0 * std::sin(s / 30.0)));
    }
    World world;
    ClosedLoopConfig cfg;
    ClosedLoopSim sim(world, route, cfg, SovPipelineConfig{}, Rng(9));

    // Track the worst lateral offset by sampling the vehicle pose.
    const auto result = sim.run(Duration::seconds(40.0));
    EXPECT_FALSE(result.collided);
    EXPECT_GT(result.distance_travelled, 180.0);
    const auto [s, offset] =
        route.project(sim.vehicle().pose().position);
    (void)s;
    EXPECT_LT(std::fabs(offset), 0.6);
}

} // namespace
} // namespace sov
