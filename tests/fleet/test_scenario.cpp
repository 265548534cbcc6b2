#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "fleet/fleet_runner.h"
#include "fleet/scenario.h"

namespace sov::fleet {
namespace {

ScenarioMatrix
smallMatrix()
{
    ScenarioMatrix m;
    m.addWorld(suddenWallWorld(40.0))
        .addWorld(openRoadWorld())
        .addFault(noFaultPreset())
        .addFaults({faultMatrixPresets()[1]})
        .addStack(bareStack())
        .addStack(supervisedStack())
        .addSeeds(1, 3);
    return m;
}

TEST(ScenarioMatrix, SizeIsCartesianProduct)
{
    const ScenarioMatrix m = smallMatrix();
    EXPECT_EQ(m.size(), 2u * 2u * 2u * 3u);
    EXPECT_EQ(m.enumerate().size(), m.size());
}

TEST(ScenarioMatrix, EnumerationOrderAndNamesAreStable)
{
    const ScenarioMatrix m = smallMatrix();
    const auto a = m.enumerate();
    const auto b = m.enumerate();
    ASSERT_EQ(a.size(), b.size());
    std::set<std::string> names;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].index, i);
        names.insert(a[i].name);
    }
    // Composed names are unique across the matrix.
    EXPECT_EQ(names.size(), a.size());
    // Seeds are the innermost axis.
    EXPECT_EQ(a[0].seed, 1u);
    EXPECT_EQ(a[1].seed, 2u);
    EXPECT_EQ(a[2].seed, 3u);
    EXPECT_EQ(a[0].name, "sudden-wall-40/no-fault/bare#s1");
}

TEST(ScenarioMatrix, EmptyAxesGetNeutralDefaults)
{
    ScenarioMatrix m;
    m.addWorld(openRoadWorld());
    const auto specs = m.enumerate();
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].faults.specs.size(), 0u);
    EXPECT_EQ(specs[0].stack.name, "supervised");
    EXPECT_EQ(specs[0].seed, 1u);
}

TEST(ScenarioMatrix, SmokeOnlyDropsNonSmokeAxes)
{
    ScenarioMatrix m;
    m.addWorld(suddenWallWorld(40.0)); // smoke
    m.addWorld(crossingPedestrianWorld(150.0, 0.5)); // not smoke
    m.addFaults(faultMatrixPresets());
    m.smokeOnly();
    EXPECT_EQ(m.worlds().size(), 1u);
    for (const FaultPreset &f : m.faults())
        EXPECT_TRUE(f.smoke);
    EXPECT_LT(m.faults().size(), faultMatrixPresets().size());
}

TEST(ScenarioPresets, FaultMatrixHasElevenUniqueRows)
{
    const auto presets = faultMatrixPresets();
    EXPECT_EQ(presets.size(), 11u);
    std::set<std::string> names;
    for (const FaultPreset &p : presets)
        names.insert(p.name);
    EXPECT_EQ(names.size(), presets.size());
    // The baseline row is smoke and fault-free.
    EXPECT_EQ(presets[0].name, "no-fault");
    EXPECT_TRUE(presets[0].smoke);
    EXPECT_TRUE(presets[0].specs.empty());
}

TEST(ScenarioPresets, StackPresetsKeepFaultPointerNull)
{
    EXPECT_EQ(bareStack().loop.faults, nullptr);
    EXPECT_EQ(supervisedStack().loop.faults, nullptr);
    EXPECT_FALSE(bareStack().loop.enable_health);
    EXPECT_TRUE(supervisedStack().loop.enable_health);
}

TEST(ScenarioPresets, WorldBuildersAreDeterministicInTheRng)
{
    const WorldPreset preset = trafficWorld(5);
    World a, b;
    Rng rng_a(7), rng_b(7);
    preset.build(a, rng_a);
    preset.build(b, rng_b);
    ASSERT_EQ(a.numObstacles(), 5u);
    ASSERT_EQ(b.numObstacles(), 5u);
    for (std::size_t i = 0; i < a.numObstacles(); ++i) {
        const Vec2 pa = a.obstacles()[i].positionAt(Timestamp::origin());
        const Vec2 pb = b.obstacles()[i].positionAt(Timestamp::origin());
        EXPECT_EQ(pa.x(), pb.x());
        EXPECT_EQ(pa.y(), pb.y());
    }
}

TEST(ScenarioPresets, SuddenWallPlacesOneObstacleAtX)
{
    World w;
    Rng rng(1);
    suddenWallWorld(40.0).build(w, rng);
    ASSERT_EQ(w.numObstacles(), 1u);
    EXPECT_DOUBLE_EQ(
        w.obstacles()[0].positionAt(Timestamp::origin()).x(), 40.0);
}

TEST(ScenarioPresets, RadarCorridorCertificateCoversMostPolls)
{
    // The reactive path's corridor certificate must answer most radar
    // polls of the sweep's obstacle-light closed loops without asking
    // the radar, and the route-end watch most route-end tests: a
    // certificate that silently stopped issuing would still be exact,
    // so only these counts can tell.
    for (const WorldPreset &preset :
         {openRoadWorld(), trafficWorld(6), crossingPedestrianWorld(150.0, 0.5)}) {
        for (const StackPreset &stack : {bareStack(), supervisedStack()}) {
            World world;
            Rng rng(3);
            preset.build(world, rng);
            ClosedLoopSim sim(world, preset.route, stack.loop, stack.pipeline,
                              Rng(5));
            sim.run(Duration::seconds(preset.horizon_s));
            const ReactivePath &reactive = sim.reactivePath();
            ASSERT_GT(reactive.evaluations(), 1000u) << preset.name;
            EXPECT_GE(reactive.certifiedSkips() * 10, reactive.evaluations() * 8)
                << preset.name << "/" << stack.name << ": "
                << reactive.certifiedSkips() << " of " << reactive.evaluations();
            EXPECT_GE(sim.routeEnd().certifiedSkips() * 10,
                      reactive.evaluations() * 8)
                << preset.name << "/" << stack.name;
        }
    }
}

/** The open road with one field broken. */
WorldPreset
brokenWorld(const char *name, double horizon_s, std::vector<Vec2> route)
{
    WorldPreset w = openRoadWorld();
    w.name = name;
    w.horizon_s = horizon_s;
    w.route = Polyline2(std::move(route));
    return w;
}

TEST(ScenarioMatrixDeathTest, RefusesHorizonsNoLoopCanRun)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<Vec2> road{Vec2(0, 0), Vec2(300, 0)};
    for (const double horizon_s :
         {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf, 0.0, -5.0}) {
        ScenarioMatrix m;
        EXPECT_DEATH(m.addWorld(brokenWorld("bad-horizon", horizon_s, road)),
                     "world 'bad-horizon': horizon_s .* is not a positive "
                     "finite number")
            << horizon_s;
    }
}

TEST(ScenarioMatrixDeathTest, RefusesRoutesNoLoopCanDrive)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<std::vector<Vec2>> routes{
        {},                                           // empty
        {Vec2(0, 0)},                                 // one point
        {Vec2(0, 0), Vec2(0, 0)},                     // zero length
        {Vec2(0, 0), Vec2(kInf, 0)},                  // infinite length
        {Vec2(0, 0), Vec2(std::nan(""), 0)},          // NaN length
    };
    for (const std::vector<Vec2> &route : routes) {
        ScenarioMatrix m;
        EXPECT_DEATH(m.addWorld(brokenWorld("bad-route", 10.0, route)),
                     "world 'bad-route': route of [0-9]+ points")
            << route.size();
    }
}

TEST(ScenarioMatrixDeathTest, RunnerRefusesABadWorldPatchedIntoASpec)
{
    // A spec edited after enumeration never reaches the closed loop.
    ScenarioMatrix m;
    m.addWorld(openRoadWorld());
    std::vector<ScenarioSpec> specs = m.enumerate();
    specs[0].world.horizon_s = -1.0;
    const FleetRunner runner;
    EXPECT_DEATH(runner.runScenario(specs[0], nullptr),
                 "world 'open-road': horizon_s");
}

} // namespace
} // namespace sov::fleet
