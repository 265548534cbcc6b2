/**
 * @file
 * FftPlan / Fft2dPlan gates: a planned transform must be bit-identical
 * to the ad-hoc fft()/fft2d() oracle (the plan precomputes exactly the
 * iteratively-generated twiddle sequence), and the 2-D scratch arena
 * must stop allocating after warm-up.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/rng.h"
#include "math/fft.h"
#include "math/fft_plan.h"

namespace sov {
namespace {

std::vector<Complex>
randomSignal(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Complex> data(n);
    for (auto &c : data)
        c = Complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
    return data;
}

/** Bitwise comparison — equality of rounded doubles, not epsilon. */
void
expectBitEqual(const std::vector<Complex> &a,
               const std::vector<Complex> &b)
{
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(Complex)));
}

TEST(FftPlan, ForwardBitIdenticalToAdhoc)
{
    for (std::size_t n : {1u, 2u, 4u, 8u, 32u, 128u, 256u}) {
        const auto signal = randomSignal(n, 7 * n + 1);
        auto adhoc = signal;
        fft(adhoc, false);

        FftPlan plan(n);
        auto planned = signal;
        plan.forward(planned.data());
        expectBitEqual(adhoc, planned);
    }
}

TEST(FftPlan, InverseBitIdenticalToAdhoc)
{
    for (std::size_t n : {1u, 2u, 8u, 64u, 256u}) {
        const auto signal = randomSignal(n, 13 * n + 5);
        auto adhoc = signal;
        fft(adhoc, true);

        FftPlan plan(n);
        auto planned = signal;
        plan.inverse(planned.data());
        expectBitEqual(adhoc, planned);
    }
}

TEST(FftPlan, ReusableAcrossCalls)
{
    FftPlan plan(64);
    for (int trial = 0; trial < 4; ++trial) {
        const auto signal = randomSignal(64, 100 + trial);
        auto adhoc = signal;
        fft(adhoc, false);
        auto planned = signal;
        plan.forward(planned.data());
        expectBitEqual(adhoc, planned);
    }
}

TEST(Fft2dPlan, ForwardAndInverseBitIdenticalToAdhoc)
{
    const struct
    {
        std::size_t rows, cols;
    } shapes[] = {{4, 4}, {8, 16}, {16, 8}, {64, 64}};
    for (const auto &s : shapes) {
        const auto signal = randomSignal(s.rows * s.cols,
                                         s.rows * 31 + s.cols);
        Fft2dPlan plan(s.rows, s.cols);

        auto adhoc = signal;
        fft2d(adhoc, s.rows, s.cols, false);
        auto planned = signal;
        plan.forward(planned.data());
        expectBitEqual(adhoc, planned);

        fft2d(adhoc, s.rows, s.cols, true);
        plan.inverse(planned.data());
        expectBitEqual(adhoc, planned);
    }
}

TEST(Fft2dPlan, RoundTripRecoversSignal)
{
    const std::size_t n = 32;
    const auto signal = randomSignal(n * n, 99);
    Fft2dPlan plan(n, n);
    auto data = signal;
    plan.forward(data.data());
    plan.inverse(data.data());
    for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_NEAR(signal[i].real(), data[i].real(), 1e-9);
        EXPECT_NEAR(signal[i].imag(), data[i].imag(), 1e-9);
    }
}

TEST(Fft2dPlan, ScratchArenaStopsGrowingAfterWarmup)
{
    Fft2dPlan plan(64, 64);
    auto data = randomSignal(64 * 64, 3);
    plan.forward(data.data());
    plan.inverse(data.data());
    const std::size_t warm = plan.scratchSystemAllocations();
    for (int i = 0; i < 100; ++i) {
        plan.forward(data.data());
        plan.inverse(data.data());
    }
    EXPECT_EQ(warm, plan.scratchSystemAllocations());
}

} // namespace
} // namespace sov
