/**
 * @file
 * Property tests for the sov::simd primitives: every vector body must
 * match its scalar twin across unaligned sizes and ragged tails —
 * bit-identically for the element-wise kernels, and to reassociation
 * epsilon for the reduction (dot), per the equivalence
 * policy in math/simd_kernels.h. Each test runs every level up to the
 * detected one (SSE2, then AVX2), so an AVX2 host still checks the
 * SSE2 bodies. On hosts/builds without SIMD the suite skips.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "core/simd.h"
#include "math/simd_kernels.h"

namespace sov {
namespace {

/** Sizes chosen to hit empty, sub-vector, exact-lane and ragged-tail
 *  paths for 4- and 8-wide kernels alike. */
const std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  7,  8, 9,
                              15, 16, 17, 31, 32, 33, 63, 100};

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto &x : v)
        x = static_cast<float>(rng.uniform(-4.0, 4.0));
    return v;
}

class SimdKernels : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const SimdLevel detected = detectSimdLevel();
        if (detected == SimdLevel::None)
            GTEST_SKIP() << "no SIMD support on this host/build";
        levels_.push_back(SimdLevel::Sse2);
        if (detected == SimdLevel::Avx2)
            levels_.push_back(SimdLevel::Avx2);
    }

    /** Every vector level the host runs, narrowest first. */
    std::vector<SimdLevel> levels_;
};

TEST_F(SimdKernels, AbsDiffAddMatchesScalarBitwise)
{
    for (const SimdLevel level : levels_) {
        for (const std::size_t n : kSizes) {
            const auto a = randomFloats(n, 2 * n + 1);
            const auto b = randomFloats(n, 2 * n + 2);
            auto scalar = randomFloats(n, 2 * n + 3);
            auto vector = scalar;
            simd::absDiffAdd(scalar.data(), a.data(), b.data(), n,
                             SimdLevel::None);
            simd::absDiffAdd(vector.data(), a.data(), b.data(), n, level);
            EXPECT_EQ(scalar, vector)
                << simdLevelName(level) << " n=" << n;
        }
    }
}

TEST_F(SimdKernels, AbsDiffSubMatchesScalarBitwise)
{
    for (const SimdLevel level : levels_) {
        for (const std::size_t n : kSizes) {
            const auto a = randomFloats(n, 3 * n + 1);
            const auto b = randomFloats(n, 3 * n + 2);
            auto scalar = randomFloats(n, 3 * n + 3);
            auto vector = scalar;
            simd::absDiffSub(scalar.data(), a.data(), b.data(), n,
                             SimdLevel::None);
            simd::absDiffSub(vector.data(), a.data(), b.data(), n, level);
            EXPECT_EQ(scalar, vector)
                << simdLevelName(level) << " n=" << n;
        }
    }
}

TEST_F(SimdKernels, AxpyMatchesScalarBitwise)
{
    for (const SimdLevel level : levels_) {
        for (const std::size_t n : kSizes) {
            const auto src = randomFloats(n, 5 * n + 1);
            auto scalar = randomFloats(n, 5 * n + 2);
            auto vector = scalar;
            simd::axpy(scalar.data(), src.data(), 1.7f, n,
                       SimdLevel::None);
            simd::axpy(vector.data(), src.data(), 1.7f, n, level);
            EXPECT_EQ(scalar, vector)
                << simdLevelName(level) << " n=" << n;
        }
    }
}

TEST_F(SimdKernels, DotMatchesScalarToReassociationEpsilon)
{
    for (const SimdLevel level : levels_) {
        for (const std::size_t n : kSizes) {
            const auto a = randomFloats(n, 7 * n + 1);
            const auto b = randomFloats(n, 7 * n + 2);
            const float scalar =
                simd::dot(a.data(), b.data(), n, SimdLevel::None);
            const float vector = simd::dot(a.data(), b.data(), n, level);
            // Reassociated sum: tolerance scales with n, stays tiny.
            const float tol =
                1e-5f * static_cast<float>(n + 1) +
                1e-6f * std::fabs(scalar);
            EXPECT_NEAR(scalar, vector, tol)
                << simdLevelName(level) << " n=" << n;
        }
    }
}

// Dispatch sanity that runs everywhere, including SOV_SIMD=OFF builds:
// SimdLevel::None must always take the scalar bodies.
TEST(SimdDispatch, DetectionIsStable)
{
    EXPECT_EQ(detectSimdLevel(), detectSimdLevel());
#if !defined(SOV_SIMD_ENABLED)
    EXPECT_EQ(detectSimdLevel(), SimdLevel::None);
    EXPECT_FALSE(simdCompiledIn());
#endif
}

TEST(SimdDispatch, LevelNamesRoundTrip)
{
    EXPECT_STREQ("none", simdLevelName(SimdLevel::None));
    EXPECT_STREQ("sse2", simdLevelName(SimdLevel::Sse2));
    EXPECT_STREQ("avx2", simdLevelName(SimdLevel::Avx2));
}

} // namespace
} // namespace sov
