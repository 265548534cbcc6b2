#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "vehicle/reactive.h"

namespace sov {
namespace {

/** Wall whose near face (toward -x) sits at @p face_x. */
World
worldWithWallFaceAt(double face_x)
{
    World world;
    Obstacle wall;
    wall.footprint =
        OrientedBox2{Pose2{Vec2(face_x + 1.0, 0.0), 0.0}, 1.0, 2.0};
    world.addObstacle(wall);
    return world;
}

struct Rig
{
    Simulator sim;
    VehicleDynamics car;
    Ecu ecu{sim, car};
    RadarModel radar{RadarConfig{}, Rng(1)};
    ReactivePath reactive{sim, ecu, radar};
};

TEST(ReactiveTrigger, FiresJustInsideThresholdNotJustOutside)
{
    // The trigger threshold is exact: the radar corridor raycast is
    // noise-free, so a face 1 cm beyond the trigger distance must not
    // fire and a face 1 cm inside must.
    const double speed = 5.6;
    {
        Rig rig;
        const double trigger = rig.reactive.triggerDistance(speed, 4.0);
        World world = worldWithWallFaceAt(trigger + 0.01);
        rig.reactive.evaluate(world, Pose2{Vec2(0, 0), 0.0}, speed,
                              Timestamp::origin());
        rig.sim.run();
        EXPECT_EQ(rig.reactive.triggerCount(), 0u);
        EXPECT_FALSE(rig.ecu.emergencyLatched());
    }
    {
        Rig rig;
        const double trigger = rig.reactive.triggerDistance(speed, 4.0);
        World world = worldWithWallFaceAt(trigger - 0.01);
        rig.reactive.evaluate(world, Pose2{Vec2(0, 0), 0.0}, speed,
                              Timestamp::origin());
        rig.sim.run();
        EXPECT_EQ(rig.reactive.triggerCount(), 1u);
        EXPECT_TRUE(rig.ecu.emergencyLatched());
    }
}

TEST(ReactiveTrigger, ThresholdSitsAtThePaperBoundary)
{
    // Sec. IV: reacting at ~4.1 m from the front sensor against the
    // ~4 m braking-distance floor. The trigger decomposes into
    // reaction distance + braking distance + margin + front overhang.
    Rig rig;
    const double trigger = rig.reactive.triggerDistance(5.6, 4.0);
    const double reaction = 5.6 * 0.030; // 11 ms path + 19 ms T_mech
    const double braking = 5.6 * 5.6 / (2.0 * 4.0);
    EXPECT_NEAR(trigger, reaction + braking + 0.15 + 1.3, 1e-9);
    EXPECT_NEAR(braking, 3.92, 1e-9); // the "4 m" physical floor
    // Seen from the front bumper: inside [4.0, 4.4] m, the paper's
    // "react to objects 4.1 m away" envelope.
    const double from_bumper = trigger - 1.3;
    EXPECT_GT(from_bumper, 4.0);
    EXPECT_LT(from_bumper, 4.4);
}

TEST(ReactiveRelease, HoldsWhileObstacleInsideReleaseDistance)
{
    // Hysteresis: a stopped vehicle with the path blocked closer than
    // release_distance keeps the brake latched, even though the
    // obstacle is outside the (speed 0) trigger distance.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();
    ASSERT_TRUE(rig.ecu.emergencyLatched());

    World world = worldWithWallFaceAt(5.0); // < release_distance 6.0
    rig.reactive.evaluate(world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                          Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, ReleasesOnceObstacleBeyondReleaseDistance)
{
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World world = worldWithWallFaceAt(7.0); // > release_distance 6.0
    rig.reactive.evaluate(world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                          Timestamp::origin());
    rig.sim.run();
    EXPECT_FALSE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, ReleasesWhenPathCompletelyClear)
{
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World empty;
    rig.reactive.evaluate(empty, Pose2{Vec2(0, 0), 0.0}, 0.0,
                          Timestamp::origin());
    rig.sim.run();
    EXPECT_FALSE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, NeverReleasesWhileStillMoving)
{
    // The release gate requires the vehicle to have stopped; a clear
    // path alone is not enough while the vehicle still moves.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World empty;
    rig.reactive.evaluate(empty, Pose2{Vec2(0, 0), 0.0}, 2.0,
                          Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

TEST(ReactiveRelease, BoundaryIsExclusiveAtReleaseDistance)
{
    // Release requires distance strictly greater than release_distance.
    Rig rig;
    rig.ecu.emergencyBrake();
    rig.sim.run();

    World world = worldWithWallFaceAt(6.0);
    rig.reactive.evaluate(world, Pose2{Vec2(0, 0), 0.0}, 0.0,
                          Timestamp::origin());
    rig.sim.run();
    EXPECT_TRUE(rig.ecu.emergencyLatched());
}

/**
 * The reactive path as it was before the radar query took a decision
 * range: the full 60 m corridor every cycle, then the same trigger and
 * release rules.
 */
struct FullRangeReactive final : EventTarget
{
    Simulator &sim;
    Ecu &ecu;
    const RadarModel &radar;
    const ReactivePath &timing; //!< triggerDistance() only
    ReactiveConfig config;
    std::uint64_t triggers = 0;

    FullRangeReactive(Simulator &s, Ecu &e, const RadarModel &r,
                      const ReactivePath &t)
        : sim(s), ecu(e), radar(r), timing(t) {}

    void onEvent(std::uint64_t) override { ecu.emergencyBrake(); }

    std::optional<double>
    evaluate(const WorldSnapshot &world, const Pose2 &body, double speed,
             Timestamp t)
    {
        const auto distance =
            radar.nearestInPath(world, body, config.corridor_half_width, t);
        if (distance) {
            const double trigger = timing.triggerDistance(speed, 4.0);
            if (*distance <= trigger && !ecu.emergencyLatched()) {
                ++triggers;
                sim.post(config.path_latency, *this);
            }
        }
        if (ecu.emergencyLatched() && speed <= 1e-6 &&
            (!distance || *distance > config.release_distance)) {
            ecu.releaseEmergencyBrake();
        }
        return distance;
    }
};

TEST(ReactiveDecisionRange, MatchesTheFullRangePathOverRandomWorlds)
{
    // Random worlds ahead of and around the ego (walls, cars, boxes on
    // the trigger and release distances, sometimes a NaN box), random
    // speeds (stopped, at the 1e-6 release gate, crawling, cruising,
    // NaN) and every latch state, driven through both paths step by
    // step: trigger counts, latching and release must agree at every
    // step, and the decision-range path must return the full-range
    // distance exactly when it is not beyond the range its state reads.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Rng rng(404);
    Rig rig;
    Simulator ref_sim;
    VehicleDynamics ref_car;
    Ecu ref_ecu{ref_sim, ref_car};
    const RadarModel ref_radar{RadarConfig{}, Rng(1)};
    FullRangeReactive ref(ref_sim, ref_ecu, ref_radar, rig.reactive);
    const ReactiveConfig config;

    std::uint64_t latched_steps = 0, fired = 0, released = 0, returned = 0;
    for (int world_case = 0; world_case < 300; ++world_case) {
        World world;
        const Pose2 body{Vec2(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)),
                         rng.uniform(-M_PI, M_PI)};
        const Vec2 dir = body.direction();
        const Vec2 normal(-dir.y(), dir.x());
        const int boxes = static_cast<int>(rng.uniform(0.0, 6.0));
        for (int b = 0; b < boxes; ++b) {
            Obstacle o;
            const double u = rng.uniform();
            double along = rng.uniform(-8.0, 50.0);
            if (u < 0.3) {
                // Near face on the trigger or release distance.
                along = (rng.bernoulli(0.5)
                             ? rig.reactive.triggerDistance(rng.uniform(0.0, 6.0), 4.0)
                             : config.release_distance) +
                        rng.uniform(-0.02, 0.02) + 0.5;
            }
            o.footprint = OrientedBox2{
                Pose2{body.position + dir * along +
                          normal * rng.uniform(-2.5, 2.5),
                      body.heading + (rng.bernoulli(0.5) ? 0.0
                                                         : rng.uniform(-1.0, 1.0))},
                0.5, rng.uniform(0.2, 2.0)};
            if (rng.bernoulli(0.3))
                o.velocity = dir * rng.uniform(-3.0, 3.0);
            if (rng.bernoulli(0.03))
                o.footprint.pose.position.x() =
                    std::numeric_limits<double>::quiet_NaN();
            world.addObstacle(o);
        }

        for (int step = 0; step < 20; ++step) {
            const double v = rng.uniform();
            const double speed = v < 0.25   ? 0.0
                                 : v < 0.35 ? 1e-6
                                 : v < 0.4  ? std::nextafter(1e-6, 1.0)
                                 : v < 0.41 ? std::numeric_limits<double>::quiet_NaN()
                                            : rng.uniform(0.0, 6.0);
            if (rng.bernoulli(0.1)) {
                // Force a latch state change on both sides.
                if (rig.ecu.emergencyLatched()) {
                    rig.ecu.releaseEmergencyBrake();
                    ref_ecu.releaseEmergencyBrake();
                } else {
                    rig.ecu.emergencyBrake();
                    ref_ecu.emergencyBrake();
                }
            }
            const bool was_latched = rig.ecu.emergencyLatched();
            ASSERT_EQ(was_latched, ref_ecu.emergencyLatched());
            const Timestamp t = rig.sim.now();
            const auto full = ref.evaluate(world, body, speed, t);
            const auto got = rig.reactive.evaluate(world, body, speed, t);

            const double range =
                !was_latched   ? rig.reactive.triggerDistance(speed, 4.0)
                : speed <= 1e-6 ? config.release_distance
                                : -kInf;
            const bool kept = full && !(*full > range);
            ASSERT_EQ(got.has_value(), kept) << world_case << "/" << step;
            if (kept && !std::isnan(*full)) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
                          std::bit_cast<std::uint64_t>(*full));
            }
            returned += got.has_value();
            ASSERT_EQ(rig.reactive.triggerCount(), ref.triggers);
            ASSERT_EQ(rig.ecu.emergencyLatched(), ref_ecu.emergencyLatched());
            released += was_latched && !rig.ecu.emergencyLatched();

            // Let the posted triggers land (path latency + T_mech).
            const Timestamp next = t + Duration::millisF(rng.uniform(1.0, 40.0));
            rig.sim.runUntil(next);
            ref_sim.runUntil(next);
            fired += !was_latched && rig.ecu.emergencyLatched();
            ASSERT_EQ(rig.ecu.emergencyLatched(), ref_ecu.emergencyLatched());
            latched_steps += rig.ecu.emergencyLatched();
        }
    }
    EXPECT_GT(ref.triggers, 100u);
    EXPECT_GT(fired, 50u);
    EXPECT_GT(released, 50u);
    EXPECT_GT(latched_steps, 500u);
    EXPECT_GT(returned, 500u);
}

} // namespace
} // namespace sov
