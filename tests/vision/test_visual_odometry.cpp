#include <gtest/gtest.h>

#include <cmath>

#include "vision/renderer.h"
#include "localization/vio.h"
#include "vision/visual_odometry.h"

namespace sov {
namespace {

/** A corner-rich world: landmarks plus a couple of obstacles. */
World
texturedWorld()
{
    World w;
    Rng rng(17);
    w.scatterLandmarks(Polyline2({Vec2(-5, 0), Vec2(60, 0)}), 180, 10.0,
                       4.0, rng);
    Obstacle box;
    box.cls = ObjectClass::Car;
    box.footprint = OrientedBox2{Pose2{Vec2(14.0, -3.0), 0.2}, 1.5, 1.0};
    box.height = 1.8;
    w.addObstacle(box);
    return w;
}

RenderedFrame
renderAt(const World &w, const CameraModel &cam, const Pose2 &body)
{
    const Renderer renderer;
    return renderer.render(w, cam, cam.poseAt(body), Timestamp::origin());
}

struct MotionCase
{
    const char *name;
    Pose2 from;
    Pose2 to;
};

/** Names each case after its motion, so the ctest IDs read as such. */
void
PrintTo(const MotionCase &c, std::ostream *os)
{
    *os << c.name;
}

class VoMotion : public ::testing::TestWithParam<MotionCase>
{
};

TEST_P(VoMotion, RecoversPlanarMotionFromPixels)
{
    const World w = texturedWorld();
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const RenderedFrame f0 = renderAt(w, cam, GetParam().from);
    const RenderedFrame f1 = renderAt(w, cam, GetParam().to);

    const VisualOdometryFrontEnd vo(cam);
    const VoEstimate est = vo.estimate(f0.intensity, f0.depth,
                                       f1.intensity, f1.depth);
    ASSERT_TRUE(est.valid) << "matches=" << est.matches;
    EXPECT_GE(est.inliers, 8u);

    // Ground-truth motion in the earlier body frame.
    const Pose2 &a = GetParam().from;
    const Pose2 &b = GetParam().to;
    const Vec2 world_disp = b.position - a.position;
    const double c = std::cos(a.heading), s = std::sin(a.heading);
    const Vec2 truth_disp(c * world_disp.x() + s * world_disp.y(),
                          -s * world_disp.x() + c * world_disp.y());
    const double truth_dyaw = wrapAngle(b.heading - a.heading);

    EXPECT_NEAR(est.body_displacement.x(), truth_disp.x(), 0.08);
    EXPECT_NEAR(est.body_displacement.y(), truth_disp.y(), 0.08);
    EXPECT_NEAR(est.delta_yaw, truth_dyaw, 0.015);
}

INSTANTIATE_TEST_SUITE_P(
    Motions, VoMotion,
    ::testing::Values(
        // Pure forward motion (one camera frame at 5.6 m/s, 30 FPS).
        MotionCase{"forward", Pose2{Vec2(0, 0), 0.0},
                   Pose2{Vec2(0.19, 0.0), 0.0}},
        // Forward + slight yaw (turning).
        MotionCase{"forward_yaw", Pose2{Vec2(0, 0), 0.0},
                   Pose2{Vec2(0.18, 0.02), 0.012}},
        // Stationary.
        MotionCase{"stationary", Pose2{Vec2(2, 0), 0.0},
                   Pose2{Vec2(2, 0), 0.0}},
        // Lateral drift with rotation.
        MotionCase{"lateral_yaw", Pose2{Vec2(1, 0.5), 0.05},
                   Pose2{Vec2(1.2, 0.56), 0.065}}));

TEST(VisualOdometry, FailsGracefullyOnTexturelessScene)
{
    World empty; // ground texture only, far away; few corners
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    RendererConfig rcfg;
    rcfg.render_ground_texture = false;
    const Renderer renderer(rcfg);
    const RenderedFrame f0 = renderer.render(
        empty, cam, cam.poseAt(Pose2{Vec2(0, 0), 0.0}),
        Timestamp::origin());
    const RenderedFrame f1 = renderer.render(
        empty, cam, cam.poseAt(Pose2{Vec2(0.2, 0), 0.0}),
        Timestamp::origin());
    const VisualOdometryFrontEnd vo(cam);
    const VoEstimate est =
        vo.estimate(f0.intensity, f0.depth, f1.intensity, f1.depth);
    EXPECT_FALSE(est.valid);
}

TEST(VisualOdometry, ToMeasurementWrapsEstimate)
{
    VoEstimate est;
    est.valid = true;
    est.body_displacement = Vec2(0.2, 0.01);
    est.delta_yaw = 0.005;
    const auto m = toVoMeasurement(est, Timestamp::seconds(1.0),
                                   Timestamp::seconds(1.033));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->t0, Timestamp::seconds(1.0));
    EXPECT_NEAR(m->body_displacement.x(), 0.2, 1e-12);

    VoEstimate bad;
    EXPECT_FALSE(toVoMeasurement(bad, Timestamp::origin(),
                                 Timestamp::seconds(1)).has_value());
}

TEST(VisualOdometry, DrivesVioOverRenderedSequence)
{
    // End-to-end: pixels -> VO -> VioOdometry over a short drive.
    const World w = texturedWorld();
    const CameraModel cam(CameraIntrinsics{}, Vec3(0, 0, 0));
    const VisualOdometryFrontEnd vo(cam);
    const Renderer renderer;

    VioOdometry vio;
    vio.initialize(Vec2(0, 0), 0.0);
    // Feed a perfect gyro so yaw integrates correctly between frames.
    const double yaw_rate = 0.06;
    const double dt = 1.0 / 10.0; // 10 FPS keeps the test fast
    Pose2 pose{Vec2(0, 0), 0.0};
    RenderedFrame prev =
        renderer.render(w, cam, cam.poseAt(pose), Timestamp::origin());
    vio.propagateImu(ImuSample{Timestamp::origin(), Vec3(0, 0, yaw_rate),
                               Vec3()},
                     Timestamp::origin());

    for (int i = 1; i <= 8; ++i) {
        const Timestamp t = Timestamp::seconds(i * dt);
        pose.heading = wrapAngle(pose.heading + yaw_rate * dt);
        pose.position += Vec2(std::cos(pose.heading),
                              std::sin(pose.heading)) * (2.0 * dt);
        const RenderedFrame next =
            renderer.render(w, cam, cam.poseAt(pose), t);
        vio.propagateImu(
            ImuSample{t, Vec3(0, 0, yaw_rate), Vec3()}, t);
        const VoEstimate est = vo.estimate(
            prev.intensity, prev.depth, next.intensity, next.depth);
        ASSERT_TRUE(est.valid) << "frame " << i;
        const auto m = toVoMeasurement(
            est, Timestamp::seconds((i - 1) * dt), t);
        vio.applyVo(*m);
        prev = next;
    }

    EXPECT_NEAR(vio.state().position.x(), pose.position.x(), 0.25);
    EXPECT_NEAR(vio.state().position.y(), pose.position.y(), 0.25);
    EXPECT_NEAR(vio.state().yaw, pose.heading, 0.05);
}

} // namespace
} // namespace sov
