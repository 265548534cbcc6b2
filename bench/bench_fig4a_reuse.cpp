/**
 * @file
 * Reproduces Fig. 4a: the histogram of point reuse frequency while a
 * LiDAR localization algorithm (ICP scan-to-map registration) runs on
 * two point clouds captured at two different scenes.
 *
 * Expected shape (paper): abundant reuse, but the number of reuses
 * varies wildly both across points within a cloud and across the two
 * clouds — which is why conventional memory optimizations are
 * ineffective for LiDAR processing.
 */
#include <cstdio>

#include "core/config.h"
#include "core/rng.h"
#include "core/stats.h"
#include "harness.h"
#include "memsim/mem_trace.h"
#include "pointcloud/icp.h"
#include "pointcloud/lidar_model.h"
#include "world/lane_map.h"

using namespace sov;

namespace {

World
sceneWorld(std::uint64_t seed, int obstacles)
{
    World world(LaneMap::makeLoopMap(120.0, 80.0));
    Rng rng(seed);
    for (int i = 0; i < obstacles; ++i) {
        Obstacle o;
        o.cls = static_cast<ObjectClass>(rng.uniformInt(0, 3));
        o.footprint = OrientedBox2{
            Pose2{Vec2(rng.uniform(5, 115), rng.uniform(5, 75)),
                  rng.uniform(-M_PI, M_PI)},
            rng.uniform(0.4, 2.2), rng.uniform(0.4, 1.2)};
        o.height = rng.uniform(1.0, 2.4);
        world.addObstacle(o);
    }
    return world;
}

/** Run ICP localization of a scan against a map and profile reuse. */
MemTrace
profileLocalization(std::uint64_t seed, const Pose2 &scan_pose,
                    std::uint32_t cloud_id)
{
    World world = sceneWorld(seed, 24);
    LidarConfig lidar_cfg;
    lidar_cfg.rings = 16;
    lidar_cfg.azimuth_steps = 700;
    LidarModel lidar(lidar_cfg, Rng(seed + 1));

    // The "map" is a scan from a nearby reference pose; the live scan
    // is registered against it (scan-to-map localization).
    const PointCloud map_cloud =
        lidar.scan(world, Pose2{Vec2(10, 5), 0.0}, Timestamp::origin(),
                   cloud_id);
    const PointCloud scan =
        lidar.scan(world, scan_pose, Timestamp::origin(), cloud_id + 100);

    const KdTree map_tree(map_cloud, cloud_id);
    MemTrace trace;
    IcpConfig icp_cfg;
    icp_cfg.max_iterations = 20;
    icpAlign(scan, map_cloud, map_tree, {}, icp_cfg, &trace);
    return trace;
}

RunningStats
report(const char *name, MemTrace &trace, std::uint32_t cloud_id,
       bench::BenchReport &out)
{
    const auto counts = trace.pointReuseCounts(cloud_id);
    RunningStats stats;
    for (const auto c : counts)
        stats.add(static_cast<double>(c));
    out.addRow("frames")
        .set("frame", name)
        .set("distinct_points", counts.size())
        .set("reuse_mean", stats.mean())
        .set("reuse_stddev", stats.stddev())
        .set("reuse_min", stats.min())
        .set("reuse_max", stats.max());

    std::printf("--- %s ---\n", name);
    std::printf("distinct map points touched: %zu\n", counts.size());
    std::printf("reuse frequency: mean=%.1f stddev=%.1f min=%.0f "
                "max=%.0f\n",
                stats.mean(), stats.stddev(), stats.min(), stats.max());

    const Histogram h = trace.reuseHistogram(
        cloud_id, stats.max() / 16.0 + 1.0, stats.max() + 1.0);
    std::printf("%-24s %s\n", "reuse bucket", "num points");
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        if (h.binCount(i) == 0)
            continue;
        std::printf("%8.0f..%-12.0f %llu\n", h.binLow(i),
                    h.binLow(i) + stats.max() / 16.0 + 1.0,
                    static_cast<unsigned long long>(h.binCount(i)));
    }
    std::printf("\n");
    return stats;
}

} // namespace

int
main(int argc, char **argv)
{
    Config::fromArgs(argc, argv).rejectUnread(
        "usage: bench_fig4a_reuse (takes no flags)");
    std::printf("=== Fig. 4a: point reuse frequency, ICP "
                "localization, two scenes ===\n\n");

    MemTrace frame0 =
        profileLocalization(11, Pose2{Vec2(12.0, 6.0), 0.15}, 0);
    MemTrace frame1 =
        profileLocalization(77, Pose2{Vec2(60.0, 42.0), 2.2}, 1);

    bench::BenchReport out("fig4a_reuse");
    const RunningStats a = report("Frame 0 (scene A)", frame0, 0, out);
    const RunningStats b = report("Frame 1 (scene B)", frame1, 1, out);

    std::printf("Shape check: reuse is abundant (mean >> 1) but highly "
                "irregular\n(large stddev, different distribution across "
                "the two frames), matching the paper.\n");
    out.gate("reuse_abundant", a.mean() > 1.0 && b.mean() > 1.0,
             "points must be reused many times during ICP");
    out.gate("reuse_irregular", a.stddev() > 1.0 && b.stddev() > 1.0,
             "reuse counts vary wildly across points");
    return out.write();
}
