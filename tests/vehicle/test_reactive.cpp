#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "vehicle/reactive.h"
#include "world/agent.h"

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

/**
 * The reactive path before its corridor certificate: the
 * decision-range corridor query on every poll (stateless), then the
 * same trigger and release rules.
 */
struct EveryPollReactive final : EventTarget
{
    Simulator &sim;
    Ecu &ecu;
    const RadarModel &radar;
    const ReactivePath &timing; //!< triggerDistance() only
    ReactiveConfig config;
    std::uint64_t triggers = 0;

    EveryPollReactive(Simulator &s, Ecu &e, const RadarModel &r,
                      const ReactivePath &t)
        : sim(s), ecu(e), radar(r), timing(t) {}

    void onEvent(std::uint64_t) override { ecu.emergencyBrake(); }

    std::optional<double>
    evaluate(const WorldSnapshot &world, const Pose2 &body, double speed,
             Timestamp t)
    {
        const bool latched = ecu.emergencyLatched();
        const double trigger = timing.triggerDistance(speed, 4.0);
        const double range = !latched      ? trigger
                             : speed <= 1e-6 ? config.release_distance
                                             : -std::numeric_limits<double>::infinity();
        const auto distance = radar.nearestInPath(
            world, body, config.corridor_half_width, t, range);
        if (distance && *distance <= trigger && !latched) {
            ++triggers;
            sim.post(config.path_latency, *this);
        }
        if (latched && speed <= 1e-6 &&
            (!distance || *distance > config.release_distance)) {
            ecu.releaseEmergencyBrake();
        }
        return distance;
    }
};

/** Equal bits, or both NaN, or both none. */
::testing::AssertionResult
sameValue(const std::optional<double> &want, const std::optional<double> &got)
{
    if (want.has_value() == got.has_value() &&
        (!want || std::bit_cast<std::uint64_t>(*want) ==
                      std::bit_cast<std::uint64_t>(*got) ||
         (std::isnan(*want) && std::isnan(*got)))) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "want " << (want ? std::to_string(*want) : "none") << ", got "
           << (got ? std::to_string(*got) : "none");
}

/** A behavioural agent whose row hops by @p hop every tick, cycling
 *  through three places: a row replaced in place. */
class HoppingAgent final : public Agent
{
  public:
    HoppingAgent(Obstacle spawn, Vec2 hop) : Agent(std::move(spawn)), hop_(hop) {}

    void step(const AgentView &) override { ticks_ = (ticks_ + 1) % 3; }

    Obstacle
    publish(Timestamp) const override
    {
        Obstacle o = spawn_;
        o.footprint.pose.position += hop_ * static_cast<double>(ticks_);
        return o;
    }

    bool reactive() const override { return true; }

  private:
    Vec2 hop_;
    int ticks_ = 0;
};

TEST(ReactiveCertificate, MatchesTheQueryOnEveryPollOverSequences)
{
    // Poll sequences through the certified path and, beside it, through
    // the stateless corridor query on every poll: returned values,
    // trigger counts and latch state must agree at every poll. The
    // sequences turn the ego (across the heading wrap at +-pi), spin it
    // in place beside boxes, ramp its speed across the trigger distance
    // of boxes ahead, slide it sideways until a box's edge, a few ulps
    // off parallel, lies on a ray (where the exact cast reports
    // rounding noise), hop behavioural rows in place, add and clear
    // rows, carry NaN and infinite rows, and sit at 1e6 and 1e12
    // anchors; polls skip radar dropout gaps and the latch is forced
    // on and off between them.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    const ReactiveConfig config;
    Rng rng(2024);
    std::uint64_t polls = 0, skips = 0, hits = 0, noise = 0;
    std::uint64_t triggers = 0, releases = 0;
    for (int c = 0; c < 360; ++c) {
        Rig rig;
        Simulator ref_sim;
        VehicleDynamics ref_car;
        Ecu ref_ecu{ref_sim, ref_car};
        const RadarModel ref_radar{RadarConfig{}, Rng(1)};
        EveryPollReactive ref(ref_sim, ref_ecu, ref_radar, rig.reactive);

        const int kind = c % 6;
        const double a = rng.uniform();
        const Vec2 anchor = a < 0.1    ? Vec2(1e12 + rng.uniform(-5.0, 5.0), -1e12)
                            : a < 0.25 ? Vec2(1e6 + rng.uniform(-5.0, 5.0), -1e6)
                                       : Vec2(rng.uniform(-5.0, 5.0),
                                              rng.uniform(-5.0, 5.0));
        const double h = rng.bernoulli(0.3) ? M_PI - rng.uniform(0.0, 0.05)
                                            : rng.uniform(-M_PI, M_PI);
        Pose2 pose{anchor, h};
        const Vec2 dir0 = pose.direction();
        const Vec2 normal0(-dir0.y(), dir0.x());
        const int steps = 240;
        const double dt = 0.005;
        double speed = rng.uniform(0.0, 6.0);
        const double yaw_rate = kind == 0 ? rng.uniform(-1.5, 1.5)
                          : kind == 1 ? (rng.bernoulli(0.5) ? 1.0 : -1.0) *
                                            rng.uniform(0.5, 3.0)
                                      : 0.0;
        const double ego_v = kind == 0 || kind >= 4 ? rng.uniform(0.0, 8.0) : 0.0;

        World world;
        const auto box = [&](double along, double lateral, double heading,
                             double hl, double hw) {
            Obstacle o;
            o.footprint = OrientedBox2{
                Pose2{anchor + dir0 * along + normal0 * lateral, heading}, hl, hw};
            return o;
        };
        // The band case: the ego slides sideways onto the anchor, where
        // a box beyond the trigger distance has an edge a few ulps off
        // parallel on one of its rays, drawn so that the exact cast
        // there reports rounding noise nearer than the trigger distance.
        double band_step = 0.0;
        if (kind == 3) {
            speed = 5.6;
            const double trigger = rig.reactive.triggerDistance(speed, 4.0);
            const double laterals[3] = {-config.corridor_half_width, 0.0,
                                        config.corridor_half_width};
            const LaneMap map;
            const std::vector<Landmark> landmarks;
            std::vector<Obstacle> probe(1);
            for (int tries = 0; tries < 100000; ++tries) {
                const double hl = rng.uniform(0.3, 3.0), hw = rng.uniform(0.2, 1.5);
                const bool turned = rng.bernoulli(0.3);
                const double edge = turned ? hl : hw;
                const double rho = std::sqrt(hl * hl + hw * hw);
                probe[0].footprint = OrientedBox2{
                    Pose2{anchor + normal0 * laterals[tries % 3] +
                              dir0 * (trigger + rho + rng.uniform(0.05, 2.0)) +
                              normal0 * (rng.bernoulli(0.5) ? edge : -edge),
                          h + (turned ? M_PI / 2.0 : 0.0) +
                              static_cast<double>(1 + tries % 5) * 2e-16 *
                                  (rng.bernoulli(0.5) ? 1.0 : -1.0)},
                    hl, hw};
                const WorldSnapshot snap(map, probe, landmarks, Timestamp::origin());
                if (snap.corridorcast(anchor, dir0, config.corridor_half_width,
                                      RadarConfig{}.max_range, Timestamp::origin(),
                                      trigger))
                    break;
            }
            world.addObstacle(probe[0]);
            band_step = rng.uniform(0.002, 0.02);
        }
        const int n = kind == 3 ? 0 : static_cast<int>(rng.uniform(0.0, 5.0));
        for (int b = 0; b < n; ++b) {
            const double hl = rng.uniform(0.2, 2.0), hw = rng.uniform(0.2, 1.5);
            const double heading = rng.uniform(-M_PI, M_PI);
            // Spinning egos get boxes all around them, near.
            const double bearing = rng.uniform(-M_PI, M_PI);
            const double r = rng.uniform(1.5, 4.5);
            Obstacle o = kind == 1
                ? box(r * std::cos(bearing), r * std::sin(bearing), heading, hl, hw)
                : box(rng.uniform(-5.0, 25.0), rng.uniform(-4.0, 4.0), heading, hl, hw);
            if (kind != 1 && rng.bernoulli(0.3))
                o.velocity = Vec2(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
            if (kind == 5 && rng.bernoulli(0.4)) {
                const double bad[] = {kNaN, kInf, -kInf};
                const double v = bad[static_cast<int>(rng.uniform(0.0, 3.0))];
                switch (static_cast<int>(rng.uniform(0.0, 4.0))) {
                  case 0: o.footprint.pose.position.x() = v; break;
                  case 1: o.footprint.pose.heading = v; break;
                  case 2: o.footprint.half_width = v; break;
                  default: o.velocity.y() = v; break;
                }
            }
            world.addObstacle(o);
        }
        if (kind == 4) {
            // Hops sideways across the corridor every tick.
            world.spawnAgent(std::make_unique<HoppingAgent>(
                box(rng.uniform(3.0, 6.0), -3.0, h, 0.4, 0.4), normal0 * 3.0));
        }
        const int add_at = kind == 4 ? static_cast<int>(rng.uniform(0.0, steps)) : -1;
        const int clear_at = kind == 4 && rng.bernoulli(0.3)
            ? static_cast<int>(rng.uniform(0.0, steps)) : -1;

        int dropout = 0;
        for (int k = 0; k < steps; ++k) {
            const Timestamp t = rig.sim.now();
            if (kind == 3)
                pose.position = anchor + normal0 * (band_step * (steps - 1 - k));
            if (kind == 2)
                speed = 8.0 * k / steps;
            else if (kind != 3 && rng.bernoulli(0.01))
                speed = rng.uniform(0.0, 6.0);
            if (k == add_at)
                world.addObstacle(box(rng.uniform(1.0, 6.0), rng.uniform(-1.0, 1.0),
                                      rng.uniform(-M_PI, M_PI), 0.5, 0.5));
            if (k == clear_at)
                world.reset();
            world.advanceTo(t, pose, speed);
            if (rng.bernoulli(0.02)) {
                // Force a latch state change on both sides.
                if (rig.ecu.emergencyLatched()) {
                    rig.ecu.releaseEmergencyBrake();
                    ref_ecu.releaseEmergencyBrake();
                } else {
                    rig.ecu.emergencyBrake();
                    ref_ecu.emergencyBrake();
                }
            }
            if (dropout == 0 && rng.bernoulli(0.03))
                dropout = 1 + static_cast<int>(rng.uniform(0.0, 20.0));
            if (dropout > 0) {
                --dropout;
            } else {
                const double v = rng.uniform();
                const double poll_speed = v < 0.03   ? 0.0
                                          : v < 0.05 ? 1e-6
                                          : v < 0.06 ? kNaN
                                                     : speed;
                const bool was_latched = rig.ecu.emergencyLatched();
                ASSERT_EQ(was_latched, ref_ecu.emergencyLatched());
                const WorldSnapshot snap = world.snapshot();
                const std::uint64_t slept = rig.reactive.certifiedSkips();
                const auto want = ref.evaluate(snap, pose, poll_speed, t);
                const auto got = rig.reactive.evaluate(snap, pose, poll_speed, t);
                ASSERT_TRUE(sameValue(want, got)) << "case " << c << " poll " << k;
                ASSERT_EQ(rig.reactive.triggerCount(), ref.triggers)
                    << "case " << c << " poll " << k;
                ASSERT_EQ(rig.ecu.emergencyLatched(), ref_ecu.emergencyLatched())
                    << "case " << c << " poll " << k;
                ++polls;
                skips += rig.reactive.certifiedSkips() - slept;
                hits += want.has_value();
                noise += kind == 3 && k == steps - 1 && want.has_value();
                releases += was_latched && !rig.ecu.emergencyLatched();
            }
            const Timestamp next = t + Duration::seconds(dt);
            rig.sim.runUntil(next);
            ref_sim.runUntil(next);
            ASSERT_EQ(rig.ecu.emergencyLatched(), ref_ecu.emergencyLatched());

            pose.heading = wrapAngle(pose.heading + yaw_rate * dt);
            pose.position += pose.direction() * (ego_v * dt);
        }
        triggers += ref.triggers;
    }
    EXPECT_GT(polls, 50000u);
    // Most polls sleep; the rest ask the radar and agree with it.
    EXPECT_GT(skips, polls / 4);
    EXPECT_GT(hits, 2000u);
    EXPECT_GT(noise, 0u);
    EXPECT_GT(triggers, 50u);
    EXPECT_GT(releases, 20u);
}

TEST(ReactiveCertificate, BareVectorSnapshotsNeverSleep)
{
    // Only a timeline vouches that its rows did not change. Rows in a
    // bare vector can be rewritten in place between polls, so every
    // poll over them asks the radar; the same rows in a world sleep.
    const double speed = 5.6;
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    std::vector<Obstacle> rows(1);
    Rig bare, versioned;
    const double trigger = bare.reactive.triggerDistance(speed, 4.0);
    rows[0].footprint = OrientedBox2{
        Pose2{Vec2(trigger + 5.0, 0.0), 0.0}, 1.0, 2.0};
    World world;
    world.addObstacle(rows[0]);
    const Pose2 body{Vec2(0, 0), 0.0};
    for (int k = 0; k < 5; ++k) {
        const Timestamp t = Timestamp::millisF(k);
        EXPECT_FALSE(bare.reactive.evaluate(
            WorldSnapshot(map, rows, landmarks, Timestamp::origin()), body,
            speed, t));
        EXPECT_FALSE(versioned.reactive.evaluate(world, body, speed, t));
    }
    EXPECT_EQ(bare.reactive.certifiedSkips(), 0u);
    EXPECT_EQ(versioned.reactive.certifiedSkips(), 4u);

    // The wall jumps inside the trigger distance in place.
    rows[0].footprint.pose.position.x() = trigger;
    const WorldSnapshot moved(map, rows, landmarks, Timestamp::origin());
    const Timestamp t = Timestamp::millisF(5);
    const auto seen = bare.reactive.evaluate(moved, body, speed, t);
    ASSERT_TRUE(seen);
    EXPECT_EQ(*seen, *moved.corridorcast(body.position, body.direction(), 0.8,
                                         RadarConfig{}.max_range, t, trigger));
    bare.sim.run();
    EXPECT_EQ(bare.reactive.triggerCount(), 1u);
    EXPECT_EQ(bare.reactive.certifiedSkips(), 0u);
}

} // namespace
} // namespace sov
