/**
 * @file
 * Gates for the ICP Fast/Simd tiers and KdTree::nearestFast: the fast
 * kd-tree traversal must reproduce the recursive oracle bit-for-bit
 * (ties included) on adversarial clouds, the closed-form Fast solver
 * must land on the same transform as the Reference accumulation, and
 * the Simd tier must run the Fast code bit for bit.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/rng.h"
#include "pointcloud/icp.h"

namespace sov {
namespace {

/** Structured (non-planar) cloud so registration is well-conditioned. */
PointCloud
structuredCloud(std::uint32_t id, std::uint64_t seed)
{
    Rng rng(seed);
    PointCloud cloud(id);
    for (int i = 0; i < 300; ++i) {
        cloud.add(Vec3(rng.uniform(0, 20), 0.0, rng.uniform(0, 3)));
        cloud.add(Vec3(0.0, rng.uniform(0, 15), rng.uniform(0, 3)));
        cloud.add(Vec3(rng.uniform(0, 20), rng.uniform(0, 15),
                       rng.uniform(0, 0.2)));
    }
    return cloud;
}

/** Clouds built to stress tie-breaking and degenerate splits. */
std::vector<PointCloud>
adversarialClouds()
{
    std::vector<PointCloud> clouds;

    // Exact duplicates: every point appears three times, so nearest
    // queries constantly hit distance ties.
    PointCloud dupes(0);
    Rng rng(11);
    for (int i = 0; i < 50; ++i) {
        const Vec3 p(rng.uniform(-5, 5), rng.uniform(-5, 5),
                     rng.uniform(-5, 5));
        dupes.add(p);
        dupes.add(p);
        dupes.add(p);
    }
    clouds.push_back(dupes);

    // Collinear: zero extent in two dimensions.
    PointCloud line(1);
    for (int i = 0; i < 200; ++i)
        line.add(Vec3(0.05 * i, 1.0, -2.0));
    clouds.push_back(line);

    // Regular grid: many equidistant neighbors and identical splits.
    PointCloud grid(2);
    for (int x = 0; x < 8; ++x)
        for (int y = 0; y < 8; ++y)
            for (int z = 0; z < 4; ++z)
                grid.add(Vec3(x, y, z));
    clouds.push_back(grid);

    // Single point and tiny clouds (stack/leaf edge cases).
    PointCloud tiny(3);
    tiny.add(Vec3(1.0, 2.0, 3.0));
    clouds.push_back(tiny);

    return clouds;
}

TEST(KdTreeFast, BitIdenticalToRecursiveOracle)
{
    for (const PointCloud &cloud : adversarialClouds()) {
        const KdTree tree(cloud);
        Rng rng(cloud.id() + 101);
        for (int q = 0; q < 500; ++q) {
            const Vec3 query(rng.uniform(-8, 24), rng.uniform(-8, 20),
                             rng.uniform(-6, 8));
            const auto oracle = tree.nearest(query);
            const auto fast = tree.nearestFast(query);
            ASSERT_TRUE(oracle && fast);
            // Bitwise: same index (ties resolved identically) and the
            // exact same rounded distance.
            EXPECT_EQ(oracle->index, fast->index);
            EXPECT_EQ(oracle->squared_distance, fast->squared_distance);
        }
        // On-point queries (distance exactly zero, duplicate ties).
        for (std::size_t i = 0; i < cloud.size(); i += 7) {
            const auto oracle = tree.nearest(cloud[i]);
            const auto fast = tree.nearestFast(cloud[i]);
            ASSERT_TRUE(oracle && fast);
            EXPECT_EQ(oracle->index, fast->index);
            EXPECT_EQ(oracle->squared_distance, fast->squared_distance);
        }
    }
}

TEST(KdTreeFast, SeededDistanceMatchesUnseededBitwise)
{
    // A warm start takes the bottom-up path (seed leaf + ancestor
    // replay) instead of the root descent, but the distance it
    // returns must still be the exact nearest — bitwise — for every
    // seed, including seeds far from the query (the query "crossed
    // splits" relative to the seed's leaf).
    for (const PointCloud &cloud : adversarialClouds()) {
        const KdTree tree(cloud);
        Rng rng(cloud.id() + 404);
        for (int q = 0; q < 400; ++q) {
            const Vec3 query(rng.uniform(-8, 24), rng.uniform(-8, 20),
                             rng.uniform(-6, 8));
            const auto unseeded = tree.nearestFast(query);
            const std::uint32_t seed = static_cast<std::uint32_t>(
                rng.uniformInt(0,
                               static_cast<std::int64_t>(cloud.size()) -
                                   1));
            const auto seeded =
                tree.nearestFast(query, seed);
            ASSERT_TRUE(unseeded && seeded);
            EXPECT_EQ(unseeded->squared_distance,
                      seeded->squared_distance);
        }
    }
}

TEST(KdTreeFast, BatchMatchesSequentialBitwise)
{
    // nearestBatch must replay nearestFast exactly — same index (ties
    // included), same rounded distance — seeded and unseeded, for
    // every batch length.
    for (const PointCloud &cloud : adversarialClouds()) {
        const KdTree tree(cloud);
        Rng rng(cloud.id() + 303);
        for (const std::size_t n : {1ul, 3ul, 4ul, 7ul, 64ul, 257ul}) {
            std::vector<double> qx(n), qy(n), qz(n);
            std::vector<std::uint32_t> seeds(n);
            for (std::size_t i = 0; i < n; ++i) {
                qx[i] = rng.uniform(-8, 24);
                qy[i] = rng.uniform(-8, 20);
                qz[i] = rng.uniform(-6, 8);
                // Mix unseeded, valid, and out-of-range seeds.
                seeds[i] = rng.uniformInt(0, 2) == 0
                    ? KdTree::kNoSeed
                    : static_cast<std::uint32_t>(rng.uniformInt(
                          0,
                          static_cast<std::int64_t>(cloud.size()) + 1));
            }
            std::vector<std::uint32_t> idx(n);
            std::vector<double> d2(n);
            tree.nearestBatch(qx.data(), qy.data(), qz.data(), n,
                              seeds.data(), idx.data(), d2.data());
            for (std::size_t i = 0; i < n; ++i) {
                const auto one =
                    tree.nearestFast(Vec3(qx[i], qy[i], qz[i]), seeds[i]);
                ASSERT_TRUE(one);
                EXPECT_EQ(one->index, idx[i]);
                EXPECT_EQ(one->squared_distance, d2[i]);
            }
        }
    }
}

TEST(IcpFast, MatchesReferenceTransform)
{
    const PointCloud target = structuredCloud(0, 1);
    const Quat true_rot = Quat::fromYaw(0.08);
    const Vec3 true_t(0.4, -0.3, 0.05);
    const PointCloud source =
        target.transformed(true_rot.conjugate(),
                           true_rot.conjugate().rotate(-true_t));
    const KdTree tree(target);

    IcpConfig ref_config;
    const IcpResult ref = icpAlign(source, target, tree, {}, ref_config);

    IcpConfig fast_config;
    fast_config.backend = KernelBackend::Fast;
    const IcpResult fast =
        icpAlign(source, target, tree, {}, fast_config);

    // Same correspondences (nearestFast is exact), same normal
    // equations up to summation order — transforms agree to far
    // below the solver's convergence threshold scale.
    EXPECT_TRUE(ref.converged);
    EXPECT_TRUE(fast.converged);
    EXPECT_NEAR(
        fast.transform.rotation.angularDistance(ref.transform.rotation),
        0.0, 1e-9);
    EXPECT_NEAR(
        (fast.transform.translation - ref.transform.translation).norm(),
        0.0, 1e-9);
    EXPECT_NEAR(fast.mean_error, ref.mean_error, 1e-12);
    EXPECT_EQ(ref.iterations, fast.iterations);
}

/** Every output bit of two ICP runs matches. */
void
expectBitwiseEqual(const IcpResult &a, const IcpResult &b)
{
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.mean_error, b.mean_error);
    EXPECT_EQ(a.transform.rotation.w(), b.transform.rotation.w());
    EXPECT_EQ(a.transform.rotation.x(), b.transform.rotation.x());
    EXPECT_EQ(a.transform.rotation.y(), b.transform.rotation.y());
    EXPECT_EQ(a.transform.rotation.z(), b.transform.rotation.z());
    EXPECT_EQ(a.transform.translation.x(), b.transform.translation.x());
    EXPECT_EQ(a.transform.translation.y(), b.transform.translation.y());
    EXPECT_EQ(a.transform.translation.z(), b.transform.translation.z());
}

/** Align @p source onto @p target with backend @p a, then @p b. */
std::pair<IcpResult, IcpResult>
alignBoth(const PointCloud &source, const PointCloud &target,
          const KdTree &tree, KernelBackend a, KernelBackend b)
{
    IcpConfig config;
    config.backend = a;
    const IcpResult ra = icpAlign(source, target, tree, {}, config);
    config.backend = b;
    return {ra, icpAlign(source, target, tree, {}, config)};
}

TEST(IcpFast, SimdMatchesFast)
{
    // ICP has no vector bodies: KernelBackend::Simd runs the Fast
    // path, so every output bit matches on any host and build.
    const PointCloud target = structuredCloud(0, 8);
    const PointCloud source =
        target.transformed(Quat::fromYaw(-0.06), Vec3(0.3, 0.2, 0.0));
    const KdTree tree(target);
    const auto [fast, simd] = alignBoth(source, target, tree,
                                        KernelBackend::Fast,
                                        KernelBackend::Simd);
    expectBitwiseEqual(fast, simd);
}

TEST(IcpFast, SimdBackendIsFastBitwise)
{
    // The same across a larger rotation and a pure translation.
    const PointCloud target = structuredCloud(0, 8);
    const KdTree tree(target);
    const PointCloud sources[] = {
        target.transformed(Quat::fromYaw(0.11), Vec3(-0.5, 0.4, 0.05)),
        target.transformed(Quat::fromYaw(0.0), Vec3(1.2, 0.0, 0.0)),
    };
    for (const PointCloud &source : sources) {
        const auto [fast, simd] = alignBoth(source, target, tree,
                                            KernelBackend::Fast,
                                            KernelBackend::Simd);
        expectBitwiseEqual(fast, simd);
    }
}

TEST(IcpFast, TracedRunsUseReferencePath)
{
    const PointCloud target = structuredCloud(0, 5);
    PointCloud source = structuredCloud(1, 5);
    source = source.transformed(Quat::fromYaw(0.02), Vec3(0.1, 0, 0));
    const KdTree tree(target, 0);

    IcpConfig config;
    config.backend = KernelBackend::Simd;
    MemTrace trace;
    icpAlign(source, target, tree, {}, config, &trace);
    // The Fast path has no touch hooks; a traced run must still see
    // the Reference access pattern.
    EXPECT_FALSE(trace.pointReuseCounts(0).empty());
}

} // namespace
} // namespace sov
