/**
 * @file
 * Planned radix-2 FFT: precomputed twiddle and bit-reversal tables
 * plus arena scratch, so the KCF steady state transforms without
 * per-call trigonometry or allocation.
 *
 * The ad-hoc fft() in math/fft.h generates its twiddles iteratively
 * (w *= wlen per butterfly), accumulating a specific rounding pattern.
 * FftPlan precomputes exactly that iteratively-generated sequence per
 * stage and direction, so a planned transform is bit-identical to the
 * ad-hoc oracle — tests/math/test_fft_plan.cpp gates on it. The
 * butterfly and normalization loops are scalar: an AVX2 butterfly
 * tier measured below 1.2× over them on the KCF window and was
 * deleted, so the KCF Fast and Simd tiers share this one plan.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/arena.h"
#include "math/fft.h"

namespace sov {

/** Reusable 1-D transform plan for a fixed power-of-two length. */
class FftPlan
{
  public:
    /** @param n Transform length; must be a power of two. */
    explicit FftPlan(std::size_t n);

    std::size_t size() const { return n_; }

    /** In-place forward transform of @p data (length size()). */
    void forward(Complex *data) const;

    /** In-place inverse transform including the 1/N normalization. */
    void inverse(Complex *data) const;

  private:
    void run(Complex *data, bool inverse) const;

    std::size_t n_;
    /** Bit-reversal permutation as (i, j) swap pairs, i < j. */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps_;
    /** Per-stage twiddles, stages concatenated in ascending length. */
    std::vector<Complex> fwd_twiddles_;
    std::vector<Complex> inv_twiddles_;
};

/**
 * Row-major 2-D transform plan. Rows transform in place; the column
 * pass gathers through a FrameArena-backed scratch column, so a
 * warmed-up plan performs zero allocations per transform
 * (systemAllocations() is exposed for the zero-growth gate).
 */
class Fft2dPlan
{
  public:
    Fft2dPlan(std::size_t rows, std::size_t cols);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** In-place forward transform of rows()*cols() values. */
    void forward(Complex *data);

    /** In-place inverse transform (per-axis 1/N like fft2d). */
    void inverse(Complex *data);

    /** Scratch-arena allocation count, for zero-growth tests. */
    std::size_t scratchSystemAllocations() const
    {
        return arena_.systemAllocations();
    }

  private:
    void run(Complex *data, bool inverse);

    std::size_t rows_;
    std::size_t cols_;
    FftPlan row_plan_;
    FftPlan col_plan_;
    FrameArena arena_;
};

} // namespace sov
