/**
 * @file
 * Reproduces Fig. 4b: off-chip memory traffic of four point-cloud
 * workloads — localization (ICP scan-to-map), recognition (normals +
 * keypoints + descriptors), reconstruction (greedy triangulation),
 * segmentation (Euclidean clustering) — on a 9 MB / 16-way LLC,
 * normalized to the optimal communication case (every needed byte
 * fetched exactly once, perfectly packed).
 *
 * Expected shape (paper): every workload needs orders of magnitude
 * more off-chip traffic than optimal, because neighbor-search kernels
 * access map-scale clouds irregularly.
 *
 * Usage:
 *   bench_fig4b_memtraffic [map_points=N] [out=BENCH_fig4b_memtraffic.json]
 *
 * map_points outside [1, 10000000] prints the usage line and exits 2.
 */
#include <cstdint>
#include <cstdio>

#include "core/config.h"
#include "core/rng.h"
#include "harness.h"
#include "memsim/cache_sim.h"
#include "memsim/mem_trace.h"
#include "pointcloud/features.h"
#include "pointcloud/icp.h"
#include "pointcloud/reconstruction.h"
#include "pointcloud/segmentation.h"

using namespace sov;

namespace {

/** A map-scale cloud: the pre-built site map LiDAR vehicles localize
 *  against (hundreds of thousands of points; exceeds the LLC). */
PointCloud
makeMapCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    PointCloud cloud(0);
    cloud.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        // Site extents ~120 x 80 m with structure heights up to 3 m.
        cloud.add(Vec3(rng.uniform(0.0, 120.0), rng.uniform(0.0, 80.0),
                       rng.uniform(0.0, 3.0)));
    }
    return cloud;
}

/** A live scan around a pose (a local subset with noise). */
PointCloud
makeScan(const PointCloud &map, std::size_t count, const Vec3 &center,
         double radius, std::uint64_t seed)
{
    Rng rng(seed);
    PointCloud scan(1);
    scan.reserve(count);
    std::size_t taken = 0;
    for (std::size_t i = 0; i < map.size() && taken < count; ++i) {
        if ((map[i] - center).norm() > radius)
            continue;
        scan.add(map[i] + Vec3(rng.gaussian(0, 0.02),
                               rng.gaussian(0, 0.02),
                               rng.gaussian(0, 0.02)));
        ++taken;
    }
    return scan;
}

struct WorkloadResult
{
    const char *name;
    CacheStats stats;
    std::uint64_t useful_bytes;

    double
    normalizedToOptimal() const
    {
        return useful_bytes
            ? static_cast<double>(stats.trafficBytes(64)) /
                static_cast<double>(useful_bytes)
            : 0.0;
    }
};

void
report(const WorkloadResult &r, bench::BenchReport &out)
{
    std::printf("%-16s traffic=%8.1f MB  optimal=%7.2f MB  "
                "normalized=%6.1fx  hit-rate=%.2f\n",
                r.name, r.stats.trafficBytes(64) / 1e6,
                r.useful_bytes / 1e6, r.normalizedToOptimal(),
                r.stats.hitRate());
    out.addRow("workloads")
        .set("name", r.name)
        .set("traffic_mb", r.stats.trafficBytes(64) / 1e6)
        .set("optimal_mb", r.useful_bytes / 1e6)
        .set("normalized", r.normalizedToOptimal())
        .set("hit_rate", r.stats.hitRate());
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::int64_t map_points_arg = cfg.getInt("map_points", 500000);
    // "" writes BENCH_fig4b_memtraffic.json.
    const std::string out_path = cfg.getString("out", "");
    const char *const usage =
        "usage: bench_fig4b_memtraffic [map_points in 1..10000000] "
        "[out=BENCH_fig4b_memtraffic.json]";
    cfg.rejectUnread(usage);
    if (map_points_arg < 1 || map_points_arg > 10'000'000) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }
    const auto map_points = static_cast<std::size_t>(map_points_arg);

    std::printf("=== Fig. 4b: off-chip traffic vs optimal, "
                "9 MB 16-way LLC ===\n");
    std::printf("map cloud: %zu points (%.1f MB raw + kd-tree)\n\n",
                map_points, map_points * 16.0 / 1e6);

    const PointCloud map = makeMapCloud(map_points, 1);
    const KdTree map_tree(map, 0);
    bench::BenchReport out("fig4b_memtraffic");
    out.meta("map_points", map_points);

    const CacheConfig llc; // paper: 9 MB, 64 B lines, 16-way

    // ---------------------------------------------------- localization
    WorkloadResult loc{"localization", {}, 0};
    {
        CacheSim cache(llc);
        MemTrace trace;
        trace.attachCache(&cache);
        // A site-scale scan (long-range LiDAR sees most of the map),
        // so each ICP iteration re-walks a >LLC working set.
        const PointCloud scan =
            makeScan(map, 40000, Vec3(60, 40, 1.0), 75.0, 2);
        IcpConfig icp_cfg;
        icp_cfg.max_iterations = 25;
        RigidTransform guess;
        guess.rotation = Quat::fromYaw(0.01);
        guess.translation = Vec3(0.2, 0.1, 0.0);
        icpAlign(scan, map, map_tree, guess, icp_cfg, &trace);
        loc.stats = cache.stats();
        loc.useful_bytes = trace.usefulBytes();
    }
    report(loc, out);

    // ----------------------------------------------------- recognition
    WorkloadResult rec{"recognition", {}, 0};
    {
        CacheSim cache(llc);
        MemTrace trace;
        trace.attachCache(&cache);
        // Normal estimation, keypoints, descriptors over the map —
        // the PCL recognition front half.
        const auto normals =
            estimateNormals(map, map_tree, 0.6, &trace);
        const auto keypoints = curvatureKeypoints(
            map, map_tree, normals, 0.6, 0.05, &trace);
        computeDescriptors(map, map_tree, keypoints, 1.0, &trace);
        rec.stats = cache.stats();
        rec.useful_bytes = trace.usefulBytes();
    }
    report(rec, out);

    // -------------------------------------------------- reconstruction
    WorkloadResult recon{"reconstruction", {}, 0};
    {
        CacheSim cache(llc);
        MemTrace trace;
        trace.attachCache(&cache);
        ReconstructionConfig rc;
        rc.max_neighbors = 8;
        rc.radius = 0.8;
        rc.max_edge_length = 1.2;
        greedyTriangulation(map, map_tree, rc, &trace);
        recon.stats = cache.stats();
        recon.useful_bytes = trace.usefulBytes();
    }
    report(recon, out);

    // ---------------------------------------------------- segmentation
    WorkloadResult seg{"segmentation", {}, 0};
    {
        CacheSim cache(llc);
        MemTrace trace;
        trace.attachCache(&cache);
        SegmentationConfig sc;
        sc.cluster_tolerance = 0.6;
        sc.min_cluster_size = 10;
        euclideanClusters(map, map_tree, sc, &trace);
        seg.stats = cache.stats();
        seg.useful_bytes = trace.usefulBytes();
    }
    report(seg, out);

    std::printf("\nShape check: every workload needs far more traffic "
                "than the optimal\ncommunication case (paper reports "
                "up to several hundred x on real hardware).\n");
    out.gate("traffic_exceeds_optimal",
             loc.normalizedToOptimal() > 1.0 &&
                 rec.normalizedToOptimal() > 1.0 &&
                 recon.normalizedToOptimal() > 1.0 &&
                 seg.normalizedToOptimal() > 1.0,
             "every workload needs more off-chip traffic than optimal");
    return out.write(out_path);
}
