/**
 * @file
 * Reproduces Fig. 11a: stereo depth-estimation error as the two
 * cameras of a stereo pair fall out of sync.
 *
 * The vehicle turns while driving (yaw rate ~0.3 rad/s); the right
 * image is captured @p offset later than the left. The real block-
 * matching stereo pipeline runs on the rendered pair, and its depth
 * output is scored against the renderer's ground truth.
 *
 * Expected shape (paper): error grows steeply with the offset; even
 * 30 ms of desynchronization produces multi-meter depth error.
 */
#include <cstdio>

#include "core/config.h"
#include "core/rng.h"
#include "core/stats.h"
#include "harness.h"
#include "vision/renderer.h"
#include "vision/stereo.h"
#include "world/trajectory.h"

using namespace sov;

namespace {

/** Curved drive past textured ground and obstacles. */
Trajectory
turningTrajectory()
{
    std::vector<Timestamp> ts;
    std::vector<Vec2> ps;
    const double radius = 18.0, speed = 5.6;
    const double omega = speed / radius;
    for (int i = 0; i <= 60; ++i) {
        const double t = i * 0.1;
        ts.push_back(Timestamp::seconds(t));
        ps.push_back(Vec2(radius * std::sin(omega * t),
                          radius * (1.0 - std::cos(omega * t))));
    }
    return Trajectory(ts, ps);
}

World
sceneWithObstacles()
{
    World world;
    Rng rng(3);
    // Textured boxes scattered ahead of the curving path.
    for (int i = 0; i < 6; ++i) {
        Obstacle o;
        o.cls = ObjectClass::Pedestrian; // high-frequency face texture
        o.footprint = OrientedBox2{
            Pose2{Vec2(10.0 + 4.0 * i, rng.uniform(-2.0, 6.0)),
                  rng.uniform(-0.4, 0.4)},
            0.5, 1.2};
        o.height = 2.2;
        world.addObstacle(o);
    }
    return world;
}

/** Mean absolute depth error for a given camera-to-camera offset. */
double
depthErrorForOffset(Duration offset, const World &world,
                    const Trajectory &traj)
{
    const StereoRig rig =
        StereoRig::forwardFacing(CameraIntrinsics{}, 0.5, 1.0);
    const Renderer renderer;
    StereoConfig stereo_cfg;
    stereo_cfg.max_disparity = 48;
    const StereoMatcher matcher(stereo_cfg);

    RunningStats err;
    // Average over a few instants along the curve.
    for (const double t : {2.0, 3.0, 4.0}) {
        const Timestamp t_left = Timestamp::seconds(t);
        const Timestamp t_right = t_left + offset;
        const Pose2 left_body = traj.sample(t_left).pose2();
        const Pose2 right_body = traj.sample(t_right).pose2();

        const CameraPose lp = rig.left.poseAt(left_body, 1.5);
        const CameraPose rp = rig.right.poseAt(right_body, 1.5);
        const RenderedFrame lf =
            renderer.render(world, rig.left, lp, t_left);
        const RenderedFrame rf =
            renderer.render(world, rig.right, rp, t_right);

        const DisparityMap map =
            matcher.match(lf.intensity, rf.intensity);
        for (std::size_t y = 60; y < 220; y += 6) {
            for (std::size_t x = 40; x < 280; x += 6) {
                const double gt = lf.depth(x, y);
                const double d = map.disparity(x, y);
                if (gt <= 2.0 || gt > 35.0 || d <= 0.0)
                    continue;
                err.add(std::fabs(map.depthAt(x, y, rig) - gt));
            }
        }
    }
    return err.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    Config::fromArgs(argc, argv).rejectUnread(
        "usage: bench_fig11a_sync_depth (takes no flags)");
    const World world = sceneWithObstacles();
    const Trajectory traj = turningTrajectory();

    std::printf("=== Fig. 11a: depth error vs stereo sync error ===\n");
    std::printf("(vehicle turning at ~0.3 rad/s, 5.6 m/s; real block "
                "matching on rendered pairs)\n\n");
    bench::BenchReport report("fig11a_sync_depth");
    double err_at_zero = 0.0, err_at_max = 0.0;
    std::printf("%-18s %-20s\n", "sync error (ms)", "mean |depth err| (m)");
    for (const double ms : {0.0, 10.0, 30.0, 70.0, 110.0, 150.0}) {
        const double err =
            depthErrorForOffset(Duration::millisF(ms), world, traj);
        std::printf("%-18.0f %-20.2f\n", ms, err);
        report.addRow("sweep")
            .set("sync_error_ms", ms)
            .set("depth_err_m", err);
        if (ms == 0.0)
            err_at_zero = err;
        err_at_max = err;
    }
    std::printf("\npaper: >5 m error at 30 ms offset, rising toward "
                "~13 m at 150 ms.\n");
    report.meta("depth_err_synced_m", err_at_zero);
    report.meta("depth_err_150ms_m", err_at_max);
    report.gate("error_grows_with_desync", err_at_max > err_at_zero,
                "Fig. 11a: depth error must grow with stereo offset");
    return report.write();
}
