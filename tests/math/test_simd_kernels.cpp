/**
 * @file
 * Property tests for the sov::simd primitives: every vector body must
 * match its scalar twin across unaligned sizes and ragged tails —
 * bit-identically for the element-wise kernels, and to reassociation
 * epsilon for the reduction (dot), per the equivalence
 * policy in math/simd_kernels.h. On hosts/builds without SIMD the
 * dispatchers must degrade to the scalar bodies, so the suite still
 * runs (and trivially passes) there.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "core/simd.h"
#include "math/fft.h"
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

std::vector<Complex>
randomComplex(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> v(n);
    for (auto &c : v)
        c = Complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0));
    return v;
}

class SimdKernels : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        level_ = detectSimdLevel();
        if (level_ == SimdLevel::None)
            GTEST_SKIP() << "no SIMD support on this host/build";
    }

    SimdLevel level_ = SimdLevel::None;
};

TEST_F(SimdKernels, AbsDiffAddMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        const auto a = randomFloats(n, 2 * n + 1);
        const auto b = randomFloats(n, 2 * n + 2);
        auto scalar = randomFloats(n, 2 * n + 3);
        auto vector = scalar;
        simd::absDiffAdd(scalar.data(), a.data(), b.data(), n,
                         SimdLevel::None);
        simd::absDiffAdd(vector.data(), a.data(), b.data(), n, level_);
        EXPECT_EQ(scalar, vector) << "n=" << n;
    }
}

TEST_F(SimdKernels, AbsDiffSubMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        const auto a = randomFloats(n, 3 * n + 1);
        const auto b = randomFloats(n, 3 * n + 2);
        auto scalar = randomFloats(n, 3 * n + 3);
        auto vector = scalar;
        simd::absDiffSub(scalar.data(), a.data(), b.data(), n,
                         SimdLevel::None);
        simd::absDiffSub(vector.data(), a.data(), b.data(), n, level_);
        EXPECT_EQ(scalar, vector) << "n=" << n;
    }
}

TEST_F(SimdKernels, AxpyMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        const auto src = randomFloats(n, 5 * n + 1);
        auto scalar = randomFloats(n, 5 * n + 2);
        auto vector = scalar;
        simd::axpy(scalar.data(), src.data(), 1.7f, n, SimdLevel::None);
        simd::axpy(vector.data(), src.data(), 1.7f, n, level_);
        EXPECT_EQ(scalar, vector) << "n=" << n;
    }
}

TEST_F(SimdKernels, DotMatchesScalarToReassociationEpsilon)
{
    for (const std::size_t n : kSizes) {
        const auto a = randomFloats(n, 7 * n + 1);
        const auto b = randomFloats(n, 7 * n + 2);
        const float scalar =
            simd::dot(a.data(), b.data(), n, SimdLevel::None);
        const float vector = simd::dot(a.data(), b.data(), n, level_);
        // Reassociated sum: tolerance scales with n, stays tiny.
        const float tol =
            1e-5f * static_cast<float>(n + 1) +
            1e-6f * std::fabs(scalar);
        EXPECT_NEAR(scalar, vector, tol) << "n=" << n;
    }
}

TEST_F(SimdKernels, ButterflyMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        auto scalar_lo = randomComplex(n, 11 * n + 1);
        auto scalar_hi = randomComplex(n, 11 * n + 2);
        const auto w = randomComplex(n, 11 * n + 3);
        auto vector_lo = scalar_lo;
        auto vector_hi = scalar_hi;
        simd::butterfly(scalar_lo.data(), scalar_hi.data(), w.data(), n,
                        SimdLevel::None);
        simd::butterfly(vector_lo.data(), vector_hi.data(), w.data(), n,
                        level_);
        EXPECT_EQ(scalar_lo, vector_lo) << "n=" << n;
        EXPECT_EQ(scalar_hi, vector_hi) << "n=" << n;
    }
}

TEST_F(SimdKernels, HadamardMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        const auto a = randomComplex(n, 13 * n + 1);
        const auto b = randomComplex(n, 13 * n + 2);
        for (const bool conj_b : {false, true}) {
            std::vector<Complex> scalar(n);
            std::vector<Complex> vectorized(n);
            simd::hadamardMul(scalar.data(), a.data(), b.data(), n,
                              conj_b, SimdLevel::None);
            simd::hadamardMul(vectorized.data(), a.data(), b.data(), n,
                              conj_b, level_);
            EXPECT_EQ(scalar, vectorized) << "n=" << n
                                          << " conj=" << conj_b;
        }
    }
}

TEST_F(SimdKernels, ScaleMatchesScalarBitwise)
{
    for (const std::size_t n : kSizes) {
        auto scalar = randomComplex(n, 17 * n + 1);
        auto vector = scalar;
        simd::scale(scalar.data(), 1.0 / 3.0, n, SimdLevel::None);
        simd::scale(vector.data(), 1.0 / 3.0, n, level_);
        EXPECT_EQ(scalar, vector) << "n=" << n;
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
