#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "math/matrix.h"
#include "planning/mpc.h"

namespace sov {
namespace {

PlannerInput
straightInput(double lateral_offset, double heading_error,
              double speed = 5.0)
{
    PlannerInput in;
    in.now = Timestamp::origin();
    in.reference_path = Polyline2({Vec2(0, 0), Vec2(200, 0)});
    in.ego_pose = Pose2{Vec2(20.0, lateral_offset), heading_error};
    in.ego_speed = speed;
    in.speed_limit = 5.6;
    return in;
}

FusedObject
staticObjectAt(double x, double y)
{
    FusedObject o;
    o.position = Vec2(x, y);
    o.velocity = Vec2(0, 0);
    return o;
}

TEST(Mpc, OnPathNoCorrection)
{
    const MpcPlanner planner;
    const auto out = planner.plan(straightInput(0.0, 0.0));
    EXPECT_NEAR(out.command.steer_curvature, 0.0, 1e-6);
    EXPECT_NEAR(out.lateral_error, 0.0, 1e-9);
    EXPECT_FALSE(out.blocked);
    EXPECT_NEAR(out.target_speed, 5.6, 1e-9);
}

TEST(Mpc, SteersBackTowardPath)
{
    const MpcPlanner planner;
    // Left of the path (positive offset): steer right (negative curv).
    const auto left = planner.plan(straightInput(1.0, 0.0));
    EXPECT_LT(left.command.steer_curvature, 0.0);
    // Right of the path: steer left.
    const auto right = planner.plan(straightInput(-1.0, 0.0));
    EXPECT_GT(right.command.steer_curvature, 0.0);
    // Symmetry.
    EXPECT_NEAR(left.command.steer_curvature,
                -right.command.steer_curvature, 1e-9);
}

TEST(Mpc, CorrectsHeadingError)
{
    const MpcPlanner planner;
    const auto out = planner.plan(straightInput(0.0, 0.3));
    EXPECT_LT(out.command.steer_curvature, 0.0); // turn back right
    EXPECT_NEAR(out.heading_error, 0.3, 1e-9);
}

TEST(Mpc, CurvatureClamped)
{
    const MpcPlanner planner;
    const auto out = planner.plan(straightInput(10.0, 1.0));
    EXPECT_GE(out.command.steer_curvature,
              -planner.config().max_curvature - 1e-12);
    EXPECT_LE(out.command.steer_curvature,
              planner.config().max_curvature + 1e-12);
}

TEST(Mpc, SlowsForObstacleOnPath)
{
    const MpcPlanner planner;
    auto in = straightInput(0.0, 0.0);
    in.objects.push_back(staticObjectAt(28.0, 0.0)); // 8 m ahead
    const auto out = planner.plan(in);
    EXPECT_LT(out.target_speed, 5.6);
    EXPECT_LT(out.command.acceleration, 0.0);
}

TEST(Mpc, StopsForCloseObstacle)
{
    const MpcPlanner planner;
    auto in = straightInput(0.0, 0.0);
    in.objects.push_back(staticObjectAt(23.0, 0.0)); // 3 m ahead
    const auto out = planner.plan(in);
    EXPECT_TRUE(out.blocked);
    EXPECT_EQ(out.target_speed, 0.0);
    EXPECT_LE(out.command.acceleration,
              -planner.config().hard_decel + 1e-9);
}

TEST(Mpc, IgnoresOffPathObstacle)
{
    const MpcPlanner planner;
    auto in = straightInput(0.0, 0.0);
    in.objects.push_back(staticObjectAt(35.0, 6.0)); // off to the side
    const auto out = planner.plan(in);
    EXPECT_FALSE(out.blocked);
    EXPECT_NEAR(out.target_speed, 5.6, 1e-9);
}

TEST(Mpc, AcceleratesTowardLimitWhenSlow)
{
    const MpcPlanner planner;
    const auto out = planner.plan(straightInput(0.0, 0.0, 2.0));
    EXPECT_GT(out.command.acceleration, 0.0);
    EXPECT_LE(out.command.acceleration,
              planner.config().max_accel + 1e-12);
}

TEST(Mpc, ClosedLoopConvergesToPath)
{
    // Integrate the kinematic model under the MPC for a few seconds.
    const MpcPlanner planner;
    Pose2 pose{Vec2(0.0, 1.5), 0.2};
    double speed = 5.0;
    const double dt = 0.05;
    for (int i = 0; i < 200; ++i) {
        PlannerInput in;
        in.now = Timestamp::seconds(i * dt);
        in.reference_path = Polyline2({Vec2(-10, 0), Vec2(500, 0)});
        in.ego_pose = pose;
        in.ego_speed = speed;
        in.speed_limit = 5.6;
        const auto out = planner.plan(in);
        speed = std::clamp(speed + out.command.acceleration * dt, 0.0,
                           8.94);
        pose.heading = wrapAngle(
            pose.heading + out.command.steer_curvature * speed * dt);
        pose.position += Vec2(std::cos(pose.heading),
                              std::sin(pose.heading)) * (speed * dt);
    }
    EXPECT_NEAR(pose.position.y(), 0.0, 0.15);
    EXPECT_NEAR(wrapAngle(pose.heading), 0.0, 0.05);
    EXPECT_NEAR(speed, 5.6, 0.2);
}

/** The Riccati recursion on dynamic Matrix products, as the planner
 *  ran it before its fixed-size arithmetic. */
Matrix
oracleLqrGain(const MpcConfig &config, double v)
{
    const double vdt = std::max(v, 0.5) * config.dt;
    const Matrix a{{1.0, vdt}, {0.0, 1.0}};
    const Matrix b{{0.0}, {vdt}};
    const Matrix q{{config.q_lateral, 0.0}, {0.0, config.q_heading}};
    const Matrix r{{config.r_curvature}};
    Matrix p = q;
    Matrix k(1, 2);
    for (std::size_t i = 0; i < config.horizon; ++i) {
        const Matrix bt_p = b.transpose() * p;
        const Matrix s = r + bt_p * b;
        const Matrix k_new = Matrix{{1.0 / s(0, 0)}} * (bt_p * a);
        p = q + a.transpose() * p * (a - b * k_new);
        k = k_new;
    }
    return k;
}

TEST(Mpc, LqrGainMatchesTheDynamicMatrixRecursion)
{
    // Fresh planners solve at the queried speed; one long-lived planner
    // keeps the first speed of each 0.25 m/s bucket. Both must give the
    // Matrix recursion's gains bit for bit, for 0-20 m/s and for other
    // horizons and weights.
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    MpcConfig tuned;
    tuned.horizon = 7;
    tuned.q_lateral = 0.3;
    tuned.r_curvature = 2.5;
    for (const MpcConfig &config : {MpcConfig{}, tuned}) {
        const MpcPlanner cached(config);
        Matrix bucket_gain;
        int last_bucket = -1;
        for (int i = 0; i <= 2000; ++i) {
            const double v = 0.01 * i;
            const Matrix want = oracleLqrGain(config, v);
            const LqrGain fresh = MpcPlanner(config).lqrGain(v);
            ASSERT_EQ(bits(want(0, 0)), bits(fresh.lateral)) << "v " << v;
            ASSERT_EQ(bits(want(0, 1)), bits(fresh.heading)) << "v " << v;

            const int bucket = static_cast<int>(std::max(v, 0.5) / 0.25);
            if (bucket != last_bucket) {
                bucket_gain = want;
                last_bucket = bucket;
            }
            const LqrGain hit = cached.lqrGain(v);
            ASSERT_EQ(bits(bucket_gain(0, 0)), bits(hit.lateral)) << "v " << v;
            ASSERT_EQ(bits(bucket_gain(0, 1)), bits(hit.heading)) << "v " << v;
        }
    }
    // Past the cached buckets, and for NaN, every call solves afresh.
    const MpcPlanner planner;
    for (const double v : {256.0, 300.0, 1e9}) {
        const Matrix want = oracleLqrGain(MpcConfig{}, v);
        EXPECT_EQ(bits(want(0, 0)), bits(planner.lqrGain(v).lateral)) << v;
    }
    EXPECT_TRUE(std::isnan(planner.lqrGain(std::nan("")).lateral));
}

} // namespace
} // namespace sov
