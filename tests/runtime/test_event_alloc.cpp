// Allocation gate for the event core: once warmed up, fixed-rate
// lanes, typed one-shots, the dataflow executor's per-frame path, the
// closed loop's frame release (with or without a silent fault plan),
// the planner's cycle and its collision sweep and a physics step's
// obstacle pass (radar corridor plus gap monitor) allocate nothing.
// This binary replaces the global operator new with a counting one, so
// it runs apart from the other runtime tests.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "fleet/fuzzer.h"
#include "fleet/scenario.h"
#include "planning/collision.h"
#include "planning/mpc.h"
#include "planning/planner_types.h"
#include "platform/platform_model.h"
#include "runtime/dataflow.h"
#include "sensors/radar.h"
#include "sim/simulator.h"
#include "sovpipe/closed_loop.h"
#include "sovpipe/gap_monitor.h"
#include "sovpipe/fig5_graph.h"
#include "vehicle/can_bus.h"
#include "vehicle/ecu.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace sov {
namespace {

std::uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}

/** Counts its events; stands in for any typed event owner. */
struct Counter final : EventTarget
{
    std::uint64_t fired = 0;
    void onEvent(std::uint64_t arg) override { fired += arg; }
};

TEST(EventAlloc, LanesAndTypedOneShotsAllocateNothing)
{
    Simulator sim;
    Counter counter;
    VehicleDynamics vehicle;
    Ecu ecu(sim, vehicle);
    CanBus can(sim);
    can.connect([&ecu](const ControlCommand &cmd) { ecu.onCommand(cmd); });

    // A 200 Hz lane posting typed one-shots at two latencies, and a
    // 10 Hz lane sending commands over CAN to the ECU.
    sim.schedulePeriodic(Duration::millisF(5.0), Duration::zero(), [&] {
        sim.post(Duration::millisF(1.0), counter, 1);
        sim.post(Duration::millisF(7.5), counter, 1);
    });
    sim.schedulePeriodic(Duration::millisF(100.0), Duration::millisF(0.1),
                         [&] {
                             ControlCommand cmd;
                             cmd.issued_at = sim.now();
                             cmd.acceleration = -0.1;
                             can.transmit(cmd);
                         });

    sim.runUntil(Timestamp::seconds(1.0)); // warm-up
    const std::uint64_t events_before = sim.eventsExecuted();
    const std::uint64_t before = allocations();
    sim.runUntil(Timestamp::seconds(51.0));
    const std::uint64_t after = allocations();

    // 10 000 firings of the 200 Hz lane in the measured window.
    EXPECT_GE(sim.eventsExecuted() - events_before, 30000u);
    EXPECT_GE(counter.fired, 20000u);
    EXPECT_EQ(can.framesSent(), 510u);
    EXPECT_EQ(after - before, 0u);
}

TEST(EventAlloc, DataflowFramesAllocateNothing)
{
    Simulator sim;
    PlatformModel model;
    runtime::StageGraph graph;
    buildFig5Graph(graph, model, SovPipelineConfig{}, nullptr,
                   Fig5Latency::Mean);
    runtime::DataflowExecutor exec(sim, graph);
    exec.setKeepTraces(false);

    // One frame per 10 Hz planning cycle, as in the closed loop.
    std::uint64_t completed = 0;
    sim.schedulePeriodic(Duration::millisF(100.0), Duration::zero(), [&] {
        exec.releaseFrame(
            [&completed](const runtime::FrameTrace &) { ++completed; });
    });

    sim.runUntil(Timestamp::seconds(5.0)); // warm-up: 50 frames
    const std::uint64_t completed_before = completed;
    const std::uint64_t before = allocations();
    sim.runUntil(Timestamp::seconds(105.0)); // 1 000 frames
    const std::uint64_t after = allocations();

    EXPECT_GE(completed - completed_before, 999u);
    EXPECT_EQ(after - before, 0u);
}

/** Allocations made building and running a closed loop on an empty
 *  straight road for @p horizon_s under @p faults (may be nullptr),
 *  and the frames it completed. */
std::pair<std::uint64_t, std::size_t>
closedLoopRun(double horizon_s, fault::FaultPlan *faults = nullptr)
{
    World world;
    const Polyline2 route(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(2000.0, 0.0)});
    ClosedLoopConfig config;
    config.faults = faults;
    const std::uint64_t before = allocations();
    ClosedLoopSim sim(world, route, config, SovPipelineConfig{}, Rng(1));
    (void)sim.run(Duration::seconds(horizon_s));
    return {allocations() - before, sim.pipelineMetrics().count("total")};
}

TEST(EventAlloc, ClosedLoopFramesAllocateNothing)
{
    // Two runs that differ only in length. Each planning cycle plans
    // and releases one Fig. 5 frame whose completion transmits the
    // command; the longer run's extra frames may allocate only where
    // the per-stage sample buffers double, far below one allocation
    // per frame (a completion callback capturing the command itself
    // would not fit std::function's inline buffer: one per frame).
    const auto [short_allocs, short_frames] = closedLoopRun(10.0);
    const auto [long_allocs, long_frames] = closedLoopRun(40.0);
    ASSERT_GT(long_frames, short_frames + 200);
    const double per_frame =
        static_cast<double>(long_allocs - short_allocs) /
        static_cast<double>(long_frames - short_frames);
    EXPECT_LT(per_frame, 0.25) << (long_allocs - short_allocs)
                               << " allocations over "
                               << (long_frames - short_frames) << " frames";
}

TEST(EventAlloc, ClosedLoopFramesWithSilentFaultsAllocateNothing)
{
    // The same gate under a plan whose camera and radar channels never
    // fire: every planning cycle and physics step still asks the fault
    // hub, which walks lists resolved when the sim was built.
    const auto silentPlan = [](fault::FaultPlan &plan) {
        for (const fault::FaultTarget target :
             {fault::FaultTarget::Camera, fault::FaultTarget::Radar}) {
            fault::FaultSpec spec;
            spec.name = fault::toString(target);
            spec.target = target;
            spec.probability = 0.0;
            plan.add(spec);
        }
    };
    fault::FaultPlan short_plan(Rng(2));
    silentPlan(short_plan);
    fault::FaultPlan long_plan(Rng(2));
    silentPlan(long_plan);
    const auto [short_allocs, short_frames] = closedLoopRun(10.0, &short_plan);
    const auto [long_allocs, long_frames] = closedLoopRun(40.0, &long_plan);
    ASSERT_GT(long_frames, short_frames + 200);
    const double per_frame =
        static_cast<double>(long_allocs - short_allocs) /
        static_cast<double>(long_frames - short_frames);
    EXPECT_LT(per_frame, 0.25) << (long_allocs - short_allocs)
                               << " allocations over "
                               << (long_frames - short_frames) << " frames";
}

TEST(EventAlloc, WarmCollisionSweepAllocatesNothing)
{
    // firstCollision keeps its per-prediction time cursors in a
    // thread-local buffer: once a thread has run a sweep over as many
    // predictions, a call allocates nothing.
    const Polyline2 path(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    std::vector<FusedObject> objects(3);
    for (std::size_t i = 0; i < objects.size(); ++i) {
        objects[i].track_id = static_cast<std::uint32_t>(i + 1);
        objects[i].position = Vec2(15.0 + 10.0 * static_cast<double>(i), 4.0);
        objects[i].velocity = Vec2(0.0, -1.0);
    }
    const auto predictions = predictObjects(objects, Timestamp::origin());
    const auto warm = firstCollision(path, 0.0, 5.0, predictions);
    const std::uint64_t before = allocations();
    for (int i = 0; i < 100; ++i) {
        const auto hit = firstCollision(path, 0.0, 5.0, predictions);
        EXPECT_EQ(hit.has_value(), warm.has_value());
    }
    EXPECT_EQ(allocations() - before, 0u);
}

TEST(EventAlloc, WarmPlanWithObjectsAllocatesNothing)
{
    // plan() predicts the objects the swept broadphase keeps into
    // storage the planner reuses and leaves the rest unpredicted: once
    // a planner has planned as many survivors, a cycle allocates
    // nothing.
    PlannerInput input;
    input.reference_path =
        Polyline2(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    input.ego_pose = Pose2{Vec2(0.0, 0.0), 0.0};
    input.ego_speed = 5.0;
    const Vec2 places[] = {Vec2(8.0, 0.5), Vec2(12.0, 3.0),
                           Vec2(20.0, 30.0), Vec2(-25.0, 0.0)};
    const SweptBroadphase broadphase(input.reference_path, 0.0,
                                     input.ego_speed);
    for (std::size_t i = 0; i < 4; ++i) {
        FusedObject obj;
        obj.track_id = static_cast<std::uint32_t>(i + 1);
        obj.position = places[i];
        if (i == 1)
            obj.velocity = Vec2(0.0, -1.0);
        input.objects.push_back(obj);
        // The first two are live, the last two culled.
        EXPECT_EQ(broadphase.clearance(obj) > 0.0, i >= 2) << "object " << i;
    }
    const MpcPlanner planner;
    const MpcOutput warm = planner.plan(input);
    ASSERT_LT(warm.target_speed, input.speed_limit);
    const std::uint64_t before = allocations();
    for (int i = 1; i <= 100; ++i) {
        input.now = Timestamp::millisF(100.0 * i);
        EXPECT_EQ(planner.plan(input).target_speed, warm.target_speed);
    }
    EXPECT_EQ(allocations() - before, 0u);
}

/**
 * Drive @p preset's world along its route at 5 m/s for 10 s of 200 Hz
 * physics steps, as the closed loop does (timeline, radar corridor,
 * gap monitor), and count the allocations made inside the obstacle
 * pass after the first second. The pass runs on snapshots of the
 * stepped world, and the gap monitor never sees a collision (the
 * count check would stop at it).
 */
std::uint64_t
warmPassAllocations(const fleet::WorldPreset &preset, std::uint64_t *certified)
{
    World world;
    Rng rng(7);
    preset.build(world, rng);
    const RadarModel radar(RadarConfig{}, Rng(1));
    GapMonitor monitor(0.005);
    const Vec2 start = preset.route.sample(0.0);
    const double heading = preset.route.headingAt(0.0);
    std::uint64_t counted = 0;
    for (int k = 0; k < 2000; ++k) {
        const Timestamp t = Timestamp::nanos(5'000'000LL * k);
        const Pose2 ego{start + Vec2(std::cos(heading), std::sin(heading)) *
                                    (5.0 * t.toSeconds()),
                        heading};
        world.advanceTo(t, ego, 5.0);
        const WorldSnapshot snap = world.snapshot();
        const std::uint64_t before = allocations();
        (void)radar.nearestInPath(snap, ego, 0.8, t);
        // A lateral offset keeps the ego clear of lane obstacles.
        const OrientedBox2 ego_box{Pose2{ego.position + Vec2(0.0, 40.0), heading},
                                   1.3, 0.7};
        EXPECT_FALSE(monitor.step(ego_box, snap.obstacles(),
                                  world.timeline().closedForm(), t));
        if (k >= 200)
            counted += allocations() - before;
    }
    *certified = monitor.certifiedSkips();
    return counted;
}

TEST(EventAlloc, WarmObstaclePassAllocatesNothing)
{
    std::uint64_t certified = 0;
    EXPECT_EQ(warmPassAllocations(fleet::trafficWorld(6), &certified), 0u);
    // The constant-velocity cars sleep on wake certificates.
    EXPECT_GT(certified, 0u);
    EXPECT_EQ(warmPassAllocations(fleet::fuzzWorldPreset(3), &certified), 0u);
}

} // namespace
} // namespace sov
