/**
 * Fast-vs-reference equivalence for the perception kernel backends
 * (vision/kernels.h), plus the determinism and allocation contracts.
 * Each check runs the Fast tier and the Simd tier that ships
 * (defaultKernelBackend()):
 *
 *  - quantized stereo inputs (multiples of 1/256): Fast and Simd ==
 *    Reference bit-for-bit — every SAD partial sum is exactly
 *    representable in float, so the summation orders agree;
 *  - arbitrary float inputs: the output is bit-identical across
 *    thread counts (fixed row-block partitioning);
 *  - im2col GEMM convolution: epsilon equivalence forward/backward;
 *  - FrameArena scratch: steady-state frames stop allocating.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/hash.h"
#include "core/thread_pool.h"
#include "vision/cnn.h"
#include "vision/stereo.h"

namespace sov {
namespace {

/** Snap to multiples of 1/256 — 8-bit sensor quantization. */
void
quantize256(Image &img)
{
    for (auto &v : img.data())
        v = std::round(v * 256.0f) / 256.0f;
}

/** Random blurred texture plus a constant-disparity shifted right eye. */
std::pair<Image, Image>
makeShiftedPair(std::size_t w, std::size_t h, double d_true,
                std::uint64_t seed, bool quantized)
{
    Rng rng(seed);
    Image left(w, h);
    for (auto &v : left.data())
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    left = left.gaussianBlur(1.0);
    Image right(w, h);
    for (std::size_t y = 0; y < h; ++y)
        for (std::size_t x = 0; x < w; ++x)
            right(x, y) = left.sampleBilinear(x + d_true, y);
    if (quantized) {
        quantize256(left);
        quantize256(right);
    }
    return {std::move(left), std::move(right)};
}

std::uint64_t
fingerprint(const DisparityMap &map)
{
    std::uint64_t h = kFnv1aTruncatedOffset;
    fnv1aBytes(h, map.disparity.data().data(),
               map.disparity.data().size() * sizeof(float));
    fnv1aPod(h, map.density);
    return h;
}

void
expectBitIdentical(const DisparityMap &a, const DisparityMap &b)
{
    ASSERT_EQ(a.disparity.width(), b.disparity.width());
    ASSERT_EQ(a.disparity.height(), b.disparity.height());
    for (std::size_t y = 0; y < a.disparity.height(); ++y)
        for (std::size_t x = 0; x < a.disparity.width(); ++x)
            ASSERT_EQ(a.disparity(x, y), b.disparity(x, y))
                << "pixel (" << x << ", " << y << ")";
    EXPECT_EQ(a.density, b.density);
}

/** The optimized tiers every equivalence check below runs. */
const KernelBackend kOptimizedTiers[] = {KernelBackend::Fast,
                                         KernelBackend::Simd};

TEST(KernelBackendEnum, NamesRoundTrip)
{
    EXPECT_STREQ(kernelBackendName(KernelBackend::Reference), "reference");
    EXPECT_STREQ(kernelBackendName(KernelBackend::Fast), "fast");
    EXPECT_EQ(kernelBackendFromName("reference"), KernelBackend::Reference);
    EXPECT_EQ(kernelBackendFromName("ref"), KernelBackend::Reference);
    EXPECT_EQ(kernelBackendFromName("fast"), KernelBackend::Fast);
}

TEST(StereoKernels, FastMatchesReferenceBitwiseOnQuantizedInput)
{
    const auto [left, right] = makeShiftedPair(96, 72, 6.0, 21, true);
    StereoConfig cfg;
    cfg.max_disparity = 16;
    const StereoMatcher ref(cfg);
    const DisparityMap want = ref.match(left, right);
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        cfg.backend = tier;
        const StereoMatcher fast(cfg);
        expectBitIdentical(want, fast.match(left, right));
    }
}

TEST(StereoKernels, FastMatchesReferenceAcrossConfigs)
{
    const auto [left, right] = makeShiftedPair(80, 60, 4.0, 22, true);
    for (const bool lr : {true, false}) {
        for (const int radius : {2, 3}) {
            StereoConfig cfg;
            cfg.max_disparity = 12;
            cfg.block_radius = radius;
            cfg.left_right_check = lr;
            cfg.row_block = 5; // not a divisor of the image height
            const StereoMatcher ref(cfg);
            const DisparityMap want = ref.match(left, right);
            for (const KernelBackend tier : kOptimizedTiers) {
                SCOPED_TRACE(kernelBackendName(tier));
                cfg.backend = tier;
                const StereoMatcher fast(cfg);
                expectBitIdentical(want, fast.match(left, right));
            }
        }
    }
}

TEST(StereoKernels, SupportPointsIdenticalOnQuantizedInput)
{
    const auto [left, right] = makeShiftedPair(96, 72, 5.0, 23, true);
    StereoConfig cfg;
    cfg.max_disparity = 16;
    const StereoMatcher ref(cfg);
    const auto a = ref.supportPoints(left, right);
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        cfg.backend = tier;
        const StereoMatcher fast(cfg);
        const auto b = fast.supportPoints(left, right);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].x, b[i].x);
            EXPECT_EQ(a[i].y, b[i].y);
            EXPECT_EQ(a[i].disparity, b[i].disparity) << "support " << i;
        }
    }
}

TEST(StereoKernels, FastOutputIndependentOfThreadCount)
{
    // Unquantized floats: the *cross-backend* bitwise guarantee does
    // not apply, but each optimized backend must still be bit-identical
    // for any thread count — including no pool at all.
    const auto [left, right] = makeShiftedPair(96, 72, 6.0, 24, false);
    for (const KernelBackend tier : kOptimizedTiers) {
        StereoConfig cfg;
        cfg.max_disparity = 16;
        cfg.backend = tier;

        StereoMatcher serial(cfg);
        const std::uint64_t want = fingerprint(serial.match(left, right));
        for (const std::size_t threads : {1u, 2u, 8u}) {
            ThreadPool pool(threads);
            StereoMatcher matcher(cfg);
            matcher.setThreadPool(&pool);
            EXPECT_EQ(fingerprint(matcher.match(left, right)), want)
                << kernelBackendName(tier) << ", " << threads
                << " threads";
        }
    }
}

TEST(StereoKernels, ScratchArenaStopsAllocatingAfterWarmup)
{
    const auto [left, right] = makeShiftedPair(96, 72, 6.0, 25, false);
    for (const KernelBackend tier : kOptimizedTiers) {
        StereoConfig cfg;
        cfg.max_disparity = 16;
        cfg.backend = tier;
        StereoMatcher matcher(cfg);
        matcher.match(left, right);
        matcher.match(left, right);
        const std::size_t warm =
            matcher.scratchArena().systemAllocations();
        for (int frame = 0; frame < 4; ++frame)
            matcher.match(left, right);
        EXPECT_EQ(matcher.scratchArena().systemAllocations(), warm)
            << kernelBackendName(tier);
    }
}

// ----------------------------------------------------------------- CNN

Tensor
randomTensor(std::size_t c, std::size_t h, std::size_t w,
             std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(c, h, w);
    for (auto &v : t.data())
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

TEST(ConvKernels, ForwardFastMatchesReference)
{
    Rng r1(7);
    Conv2d ref(3, 5, 3, r1);
    const Tensor input = randomTensor(3, 17, 19, 31);
    const Tensor a = ref.forward(input);
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        Rng r2(7);
        Conv2d fast(3, 5, 3, r2);
        fast.setBackend(tier);
        const Tensor b = fast.forward(input);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_NEAR(a.data()[i], b.data()[i], 1e-4)
                << "element " << i;
    }
}

TEST(ConvKernels, BackwardFastMatchesReference)
{
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        Rng r1(8), r2(8);
        Conv2d ref(2, 4, 3, r1);
        Conv2d fast(2, 4, 3, r2);
        fast.setBackend(tier);

        const Tensor input = randomTensor(2, 11, 13, 32);
        ref.forward(input);
        fast.forward(input);

        const Tensor grad_out = randomTensor(4, 11, 13, 33);
        const Tensor ga = ref.backward(grad_out);
        const Tensor gb = fast.backward(grad_out);
        ASSERT_EQ(ga.size(), gb.size());
        for (std::size_t i = 0; i < ga.size(); ++i)
            ASSERT_NEAR(ga.data()[i], gb.data()[i], 1e-3) << "dInput " << i;

        // The accumulated parameter gradients must agree too: step both
        // layers and compare the resulting weights.
        ref.applyGradients(0.1f, 1);
        fast.applyGradients(0.1f, 1);
        for (std::size_t o = 0; o < 4; ++o) {
            EXPECT_NEAR(ref.bias(o), fast.bias(o), 1e-3);
            for (std::size_t i = 0; i < 2; ++i)
                for (std::size_t ky = 0; ky < 3; ++ky)
                    for (std::size_t kx = 0; kx < 3; ++kx)
                        ASSERT_NEAR(ref.weight(o, i, ky, kx),
                                    fast.weight(o, i, ky, kx), 1e-3);
        }
    }
}

TEST(ConvKernels, ScratchArenaStopsAllocatingAfterWarmup)
{
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        Rng rng(9);
        Conv2d conv(1, 8, 3, rng);
        conv.setBackend(tier);
        const Tensor input = randomTensor(1, 16, 16, 34);
        conv.forward(Tensor(input), false);
        const std::size_t warm = conv.scratchArena().systemAllocations();
        EXPECT_GT(warm, 0u);
        for (int frame = 0; frame < 8; ++frame)
            conv.forward(Tensor(input), false);
        EXPECT_EQ(conv.scratchArena().systemAllocations(), warm);
    }
}

TEST(NetworkKernels, InferenceBackendsAgree)
{
    for (const KernelBackend tier : kOptimizedTiers) {
        SCOPED_TRACE(kernelBackendName(tier));
        Rng r1(42), r2(42);
        Network ref = makePatchClassifier(16, 5, r1);
        Network fast = makePatchClassifier(16, 5, r2);
        fast.setBackend(tier);

        for (std::uint64_t seed = 50; seed < 56; ++seed) {
            const Tensor patch = randomTensor(1, 16, 16, seed);
            const Tensor la = ref.forward(patch);
            const Tensor lb = fast.forward(patch);
            ASSERT_EQ(la.size(), lb.size());
            for (std::size_t i = 0; i < la.size(); ++i)
                EXPECT_NEAR(la.data()[i], lb.data()[i], 1e-3) << "logit " << i;
            EXPECT_EQ(ref.predict(patch), fast.predict(patch));
        }
    }
}

TEST(NetworkKernels, InferMatchesForward)
{
    Rng rng(43);
    Network net = makePatchClassifier(16, 5, rng);
    net.setBackend(KernelBackend::Fast);
    const Tensor patch = randomTensor(1, 16, 16, 60);
    const Tensor via_forward = net.forward(patch);
    const Tensor via_infer = net.infer(Tensor(patch));
    ASSERT_EQ(via_forward.size(), via_infer.size());
    for (std::size_t i = 0; i < via_forward.size(); ++i)
        EXPECT_EQ(via_forward.data()[i], via_infer.data()[i]);
}

} // namespace
} // namespace sov
