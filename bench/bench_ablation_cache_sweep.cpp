/**
 * @file
 * Ablation: how the Fig. 4b conclusion depends on the LLC geometry.
 * Sweeps cache size and associativity for the ICP localization
 * workload — showing that LiDAR localization against a map-scale
 * cloud stays traffic-bound until the cache swallows the whole
 * working set, and that associativity barely helps (the access
 * pattern is irregular, not conflict-limited).
 *
 * Usage:
 *   bench_ablation_cache_sweep [map_points=N]
 *                              [out=BENCH_ablation_cache_sweep.json]
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
#include "pointcloud/icp.h"

using namespace sov;

namespace {

PointCloud
makeMapCloud(std::size_t points, std::uint64_t seed)
{
    Rng rng(seed);
    PointCloud cloud(0);
    cloud.reserve(points);
    for (std::size_t i = 0; i < points; ++i)
        cloud.add(Vec3(rng.uniform(0.0, 120.0), rng.uniform(0.0, 80.0),
                       rng.uniform(0.0, 3.0)));
    return cloud;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::int64_t map_points_arg = cfg.getInt("map_points", 400000);
    if (map_points_arg < 1 || map_points_arg > 10'000'000) {
        std::fprintf(stderr, "usage: bench_ablation_cache_sweep "
                             "[map_points in 1..10000000] "
                             "[out=BENCH_ablation_cache_sweep.json]\n");
        return 2;
    }
    const auto map_points = static_cast<std::size_t>(map_points_arg);

    const PointCloud map = makeMapCloud(map_points, 1);
    const KdTree map_tree(map, 0);
    Rng scan_rng(2);
    PointCloud scan(1);
    for (int i = 0; i < 20000; ++i) {
        scan.add(Vec3(40.0 + scan_rng.uniform(-25, 25),
                      30.0 + scan_rng.uniform(-25, 25),
                      scan_rng.uniform(0.0, 3.0)));
    }

    std::printf("=== Ablation: LLC geometry vs localization traffic "
                "===\n");
    std::printf("map: %zu points; ICP 10 iterations\n\n", map_points);
    std::printf("%-12s %-8s %-14s %-12s\n", "size (MB)", "ways",
                "normalized", "hit-rate");

    bench::BenchReport report("ablation_cache_sweep");
    report.meta("map_points", map_points);
    double smallest_16w = 0.0, largest_16w = 0.0;
    for (const std::uint64_t mb : {1ull, 3ull, 9ull, 18ull, 36ull}) {
        for (const std::uint32_t ways : {4u, 16u}) {
            CacheConfig llc;
            llc.size_bytes = mb << 20;
            llc.associativity = ways;
            CacheSim cache(llc);
            MemTrace trace;
            trace.attachCache(&cache);
            IcpConfig icp_cfg;
            icp_cfg.max_iterations = 10;
            icpAlign(scan, map, map_tree, {}, icp_cfg, &trace);
            const double normalized = cache.stats().normalizedTraffic();
            std::printf("%-12llu %-8u %-14.1f %-12.3f\n",
                        static_cast<unsigned long long>(mb), ways,
                        normalized, cache.stats().hitRate());
            report.addRow("sweep")
                .set("size_mb", mb)
                .set("ways", ways)
                .set("normalized", normalized)
                .set("hit_rate", cache.stats().hitRate());
            if (ways == 16u) {
                if (mb == 1ull)
                    smallest_16w = normalized;
                if (mb == 36ull)
                    largest_16w = normalized;
            }
        }
    }
    std::printf("\nShape: traffic collapses only once the cache holds "
                "the full working set;\nhigher associativity does not "
                "rescue the irregular access pattern.\n");
    report.gate("traffic_collapses_with_capacity",
                largest_16w < smallest_16w,
                "a 36 MB LLC must cut traffic vs 1 MB at 16 ways");
    return report.write();
}
