#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/rng.h"
#include "vision/kcf.h"

namespace sov {
namespace {

/** Frame with a textured square target at (cx, cy) over a noisy bg. */
Image
targetFrame(std::size_t w, std::size_t h, double cx, double cy,
            std::uint64_t bg_seed = 77)
{
    Rng rng(bg_seed);
    Image img(w, h);
    for (auto &v : img.data())
        v = static_cast<float>(rng.uniform(0.35, 0.45));
    // A distinctive patterned square (deterministic pattern).
    for (int dy = -8; dy <= 8; ++dy) {
        for (int dx = -8; dx <= 8; ++dx) {
            const long x = static_cast<long>(std::lround(cx)) + dx;
            const long y = static_cast<long>(std::lround(cy)) + dy;
            if (x < 0 || y < 0 || x >= static_cast<long>(w) ||
                y >= static_cast<long>(h)) {
                continue;
            }
            const float v = 0.5f + 0.45f *
                static_cast<float>(std::sin(dx * 0.9) * std::cos(dy * 0.7));
            img(static_cast<std::size_t>(x),
                static_cast<std::size_t>(y)) = v;
        }
    }
    return img;
}

TEST(Kcf, TracksSteadyTarget)
{
    KcfTracker tracker;
    const Image f0 = targetFrame(160, 120, 80, 60);
    tracker.init(f0, 80, 60);
    const auto s = tracker.update(f0);
    EXPECT_TRUE(s.confident);
    EXPECT_NEAR(s.x, 80.0, 1.0);
    EXPECT_NEAR(s.y, 60.0, 1.0);
}

TEST(Kcf, FollowsMovingTarget)
{
    KcfTracker tracker;
    double cx = 60, cy = 60;
    tracker.init(targetFrame(160, 120, cx, cy), cx, cy);
    for (int step = 0; step < 15; ++step) {
        cx += 3.0;
        cy += 1.0;
        const auto s = tracker.update(targetFrame(160, 120, cx, cy));
        ASSERT_TRUE(s.confident) << "step " << step;
        EXPECT_NEAR(s.x, cx, 2.5);
        EXPECT_NEAR(s.y, cy, 2.5);
    }
}

TEST(Kcf, LosesVanishedTarget)
{
    KcfTracker tracker;
    tracker.init(targetFrame(160, 120, 80, 60), 80, 60);
    // Target removed: uniform noise only.
    Rng rng(99);
    Image empty(160, 120);
    for (auto &v : empty.data())
        v = static_cast<float>(rng.uniform(0.35, 0.45));
    const auto s = tracker.update(empty);
    EXPECT_FALSE(s.confident);
    // Position must not run away when unconfident.
    EXPECT_NEAR(s.x, 80.0, 1e-9);
    EXPECT_NEAR(s.y, 60.0, 1e-9);
}

TEST(Kcf, ReinitRestartsTracking)
{
    KcfTracker tracker;
    tracker.init(targetFrame(160, 120, 40, 40), 40, 40);
    tracker.update(targetFrame(160, 120, 42, 40));
    tracker.init(targetFrame(160, 120, 100, 80), 100, 80);
    const auto s = tracker.update(targetFrame(160, 120, 102, 81));
    EXPECT_TRUE(s.confident);
    EXPECT_NEAR(s.x, 102.0, 2.0);
    EXPECT_NEAR(s.y, 81.0, 2.0);
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Kcf, TiersTrackBitIdentical)
{
    // The plan replays fft2d's twiddle rounding and the Simd tier runs
    // the Fast code, so every tier follows the target bit for bit.
    const KernelBackend tiers[] = {KernelBackend::Reference,
                                   KernelBackend::Fast,
                                   KernelBackend::Simd};
    std::vector<KcfTracker> trackers;
    for (const KernelBackend backend : tiers) {
        KcfConfig cfg;
        cfg.backend = backend;
        trackers.emplace_back(cfg);
    }
    double cx = 50, cy = 45;
    for (auto &t : trackers)
        t.init(targetFrame(160, 120, cx, cy), cx, cy);
    for (int step = 0; step < 24; ++step) {
        cx += 2.5;
        cy += 0.75;
        const Image frame = targetFrame(160, 120, cx, cy);
        const KcfStatus want = trackers[0].update(frame);
        ASSERT_TRUE(want.confident) << "step " << step;
        for (std::size_t i = 1; i < trackers.size(); ++i) {
            const KcfStatus got = trackers[i].update(frame);
            const char *tier = kernelBackendName(tiers[i]);
            EXPECT_TRUE(bitEqual(want.x, got.x)) << tier << " step " << step;
            EXPECT_TRUE(bitEqual(want.y, got.y)) << tier << " step " << step;
            EXPECT_TRUE(bitEqual(want.psr, got.psr))
                << tier << " step " << step;
            EXPECT_TRUE(got.confident) << tier << " step " << step;
        }
    }
}

TEST(Kcf, InitializedFlag)
{
    KcfTracker tracker;
    EXPECT_FALSE(tracker.initialized());
    tracker.init(targetFrame(160, 120, 50, 50), 50, 50);
    EXPECT_TRUE(tracker.initialized());
}

} // namespace
} // namespace sov
