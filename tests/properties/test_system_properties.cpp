/**
 * @file
 * Property-based sweeps over system-level invariants: the Eq. 1/Eq. 2
 * models, the cache simulator, the kd-tree, and the reactive safety
 * envelope must hold across whole parameter ranges, not just the
 * paper's operating point.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "analysis/energy_model.h"
#include "analysis/latency_model.h"
#include "core/rng.h"
#include "memsim/cache_sim.h"
#include "platform/platform_model.h"
#include "pointcloud/kdtree.h"
#include "vehicle/dynamics.h"
#include "vehicle/ecu.h"
#include "vehicle/reactive.h"

namespace sov {
namespace {

// ------------------------------------------- Eq. 1 across speeds

class LatencyModelSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LatencyModelSweep, BudgetAndDistanceAreInverse)
{
    LatencyModelParams p;
    p.speed = Speed::metersPerSecond(GetParam());
    for (double d = brakingDistance(p) + 0.5; d < 20.0; d += 1.7) {
        const Duration budget = computeLatencyBudget(p, d);
        EXPECT_NEAR(minimumAvoidableDistance(p, budget), d, 1e-7); // ns quantization
        // Budget grows monotonically with distance.
        EXPECT_LT(computeLatencyBudget(p, d - 0.4).ns(), budget.ns());
    }
    // Inside the braking envelope no budget exists.
    EXPECT_LT(computeLatencyBudget(p, brakingDistance(p) * 0.9),
              Duration::zero());
}

TEST_P(LatencyModelSweep, FasterVehiclesNeedMoreDistance)
{
    LatencyModelParams slow;
    slow.speed = Speed::metersPerSecond(GetParam());
    LatencyModelParams fast;
    fast.speed = Speed::metersPerSecond(GetParam() + 1.0);
    const Duration t = Duration::millisF(164.0);
    EXPECT_GT(minimumAvoidableDistance(fast, t),
              minimumAvoidableDistance(slow, t));
}

INSTANTIATE_TEST_SUITE_P(Speeds, LatencyModelSweep,
                         ::testing::Values(2.0, 3.5, 5.6, 7.0, 8.9));

// ------------------------------------------- Eq. 2 monotonicity

class EnergyModelSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(EnergyModelSweep, MorePowerAlwaysLessDriving)
{
    const EnergyModelParams params;
    const Power p1 = Power::watts(GetParam());
    const Power p2 = Power::watts(GetParam() + 10.0);
    EXPECT_GT(drivingHours(params, p1), drivingHours(params, p2));
    EXPECT_GE(drivingTimeReduction(params, p2),
              drivingTimeReduction(params, p1));
    // Reduction is always less than the no-AD driving time.
    EXPECT_LT(drivingTimeReduction(params, p2),
              drivingHours(params, Power::zero()));
}

INSTANTIATE_TEST_SUITE_P(Watts, EnergyModelSweep,
                         ::testing::Values(50.0, 120.0, 175.0, 250.0,
                                           400.0));

// --------------------------------------- cache containment sweep

struct CacheCase
{
    std::uint64_t size_kb;
    std::uint32_t assoc;
};

/** Prints "64KB_4way". Without it gtest prints the struct's bytes,
 *  padding included, and ctest names each case by that print. */
void
PrintTo(const CacheCase &c, std::ostream *os)
{
    *os << c.size_kb << "KB_" << c.assoc << "way";
}

class CacheContainment : public ::testing::TestWithParam<CacheCase>
{
};

TEST_P(CacheContainment, FittingWorkingSetNeverThrashes)
{
    CacheConfig cfg;
    cfg.size_bytes = GetParam().size_kb * 1024;
    cfg.associativity = GetParam().assoc;
    CacheSim cache(cfg);
    // Working set = half the cache, streamed 20 times.
    const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes / 2;
    for (int pass = 0; pass < 20; ++pass)
        for (std::uint64_t i = 0; i < lines; ++i)
            cache.access(i * cfg.line_bytes);
    EXPECT_DOUBLE_EQ(cache.stats().normalizedTraffic(), 1.0);
    // And a 2x-cache working set must generate extra traffic.
    cache.reset();
    for (int pass = 0; pass < 5; ++pass)
        for (std::uint64_t i = 0; i < lines * 4; ++i)
            cache.access(i * cfg.line_bytes);
    EXPECT_GT(cache.stats().normalizedTraffic(), 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheContainment,
    ::testing::Values(CacheCase{64, 4}, CacheCase{256, 8},
                      CacheCase{1024, 16}, CacheCase{9216, 16}));

// ----------------------------------------- kd-tree vs brute force

class KdTreeSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KdTreeSweep, NearestAlwaysMatchesBruteForce)
{
    const std::size_t n = GetParam();
    Rng rng(n * 13 + 1);
    PointCloud cloud(0);
    for (std::size_t i = 0; i < n; ++i)
        cloud.add(Vec3(rng.uniform(-30, 30), rng.uniform(-30, 30),
                       rng.uniform(0, 4)));
    const KdTree tree(cloud);
    for (int trial = 0; trial < 30; ++trial) {
        const Vec3 q(rng.uniform(-35, 35), rng.uniform(-35, 35),
                     rng.uniform(-1, 5));
        const auto nn = tree.nearest(q);
        ASSERT_TRUE(nn.has_value());
        double best = 1e18;
        for (std::size_t i = 0; i < n; ++i)
            best = std::min(best, (cloud[i] - q).squaredNorm());
        EXPECT_NEAR(nn->squared_distance, best, 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(CloudSizes, KdTreeSweep,
                         ::testing::Values(1, 7, 8, 9, 100, 1000, 5000));

// -------------------------------- reactive envelope across speeds

class ReactiveEnvelope : public ::testing::TestWithParam<double>
{
};

TEST_P(ReactiveEnvelope, StopsJustInsideTriggerDistance)
{
    const double speed = GetParam();
    Simulator sim;
    VehicleDynamics car;
    car.setSpeed(speed);
    Ecu ecu(sim, car);
    RadarModel radar(RadarConfig{}, Rng(1));
    ReactivePath reactive(sim, ecu, radar);

    // Obstacle face exactly at the trigger distance.
    const double face = reactive.triggerDistance(speed, 4.0) - 0.01;
    World world;
    Obstacle wall;
    wall.footprint =
        OrientedBox2{Pose2{Vec2(face + 1.0, 0.0), 0.0}, 1.0, 2.0};
    world.addObstacle(wall);

    bool touched = false;
    sim.schedulePeriodic(Duration::millisF(2.0), Duration::zero(), [&] {
        reactive.evaluate(world, car.pose(), car.speed(), sim.now());
        car.step(Duration::millisF(2.0));
        // Front bumper must never cross the obstacle face.
        if (car.pose().position.x() + 1.3 > face)
            touched = true;
        if (car.stopped() && car.odometer() > 0.05)
            sim.stop();
    });
    sim.runUntil(Timestamp::seconds(15.0));

    EXPECT_TRUE(car.stopped());
    EXPECT_FALSE(touched) << "at speed " << speed;
    EXPECT_GE(reactive.triggerCount(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Speeds, ReactiveEnvelope,
                         ::testing::Values(2.0, 3.5, 5.6, 7.0, 8.9));

// ---------------------------- platform latency profile invariants

class LatencyProfileSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(LatencyProfileSweep, SamplesPositiveWithMedianNearSpec)
{
    const auto task = static_cast<TaskKind>(GetParam());
    const PlatformModel model;
    for (const Platform p : {Platform::CoffeeLakeCpu, Platform::Gtx1060,
                             Platform::Tx2, Platform::ZynqFpga}) {
        const LatencyProfile profile = model.latency(task, p);
        Rng rng(GetParam() * 4 + static_cast<int>(p));
        std::vector<double> xs;
        for (int i = 0; i < 8001; ++i) {
            const double ms = profile.sample(rng).toMillis();
            EXPECT_GT(ms, 0.0);
            xs.push_back(ms);
        }
        std::nth_element(xs.begin(), xs.begin() + xs.size() / 2,
                         xs.end());
        EXPECT_NEAR(xs[xs.size() / 2], profile.median.toMillis(),
                    profile.median.toMillis() * 0.06);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Tasks, LatencyProfileSweep,
    ::testing::Range(static_cast<int>(TaskKind::Sensing),
                     static_cast<int>(TaskKind::EmPlanning) + 1));

} // namespace
} // namespace sov
