#include "math/fft_plan.h"

#include <cmath>

#include "core/logging.h"

namespace sov {

namespace {

/**
 * The twiddle sequence the ad-hoc fft() generates for one stage:
 * w_0 = 1, w_{k+1} = w_k · wlen. Reproducing the iterative product —
 * rather than calling cos/sin per k — is what keeps the planned
 * transform bit-identical to the oracle.
 */
void
appendStageTwiddles(std::vector<Complex> &table, std::size_t len,
                    bool inverse)
{
    const double ang = 2.0 * M_PI / static_cast<double>(len) *
        (inverse ? 1.0 : -1.0);
    const Complex wlen(std::cos(ang), std::sin(ang));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
        table.push_back(w);
        w *= wlen;
    }
}

/**
 * One radix-2 butterfly block: for k < half,
 *   v = hi[k]·w[k]; hi[k] = lo[k] − v; lo[k] = lo[k] + v.
 * @p w points at the precomputed twiddles for this stage.
 */
void
butterfly(Complex *lo, Complex *hi, const Complex *w, std::size_t half)
{
    for (std::size_t k = 0; k < half; ++k) {
        const Complex u = lo[k];
        const Complex v = hi[k] * w[k];
        lo[k] = u + v;
        hi[k] = u - v;
    }
}

/** data[i] *= s — the inverse-FFT 1/N normalization. */
void
scale(Complex *data, double s, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        data[i] *= s;
}

} // namespace

FftPlan::FftPlan(std::size_t n) : n_(n)
{
    SOV_ASSERT(isPowerOfTwo(n));

    // Same index walk as fft()'s in-place bit-reversal; only the
    // i < j pairs actually move data.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            swaps_.emplace_back(static_cast<std::uint32_t>(i),
                                static_cast<std::uint32_t>(j));
    }

    fwd_twiddles_.reserve(n > 0 ? n - 1 : 0);
    inv_twiddles_.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t len = 2; len <= n; len <<= 1) {
        appendStageTwiddles(fwd_twiddles_, len, false);
        appendStageTwiddles(inv_twiddles_, len, true);
    }
}

void
FftPlan::run(Complex *data, bool inverse) const
{
    for (const auto &[i, j] : swaps_)
        std::swap(data[i], data[j]);

    const std::vector<Complex> &table =
        inverse ? inv_twiddles_ : fwd_twiddles_;
    const Complex *w = table.data();
    for (std::size_t len = 2; len <= n_; len <<= 1) {
        const std::size_t half = len / 2;
        for (std::size_t i = 0; i < n_; i += len)
            butterfly(data + i, data + i + half, w, half);
        w += half;
    }

    if (inverse)
        scale(data, 1.0 / static_cast<double>(n_), n_);
}

void
FftPlan::forward(Complex *data) const
{
    run(data, false);
}

void
FftPlan::inverse(Complex *data) const
{
    run(data, true);
}

Fft2dPlan::Fft2dPlan(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_plan_(cols), col_plan_(rows)
{
}

void
Fft2dPlan::run(Complex *data, bool inverse)
{
    // Rows transform in place — the ad-hoc fft2d's copy through a row
    // buffer does not change the arithmetic, only the traffic. The
    // per-axis 1/N normalization of the inverse matches fft2d's
    // per-axis fft(..., inverse) calls.
    for (std::size_t r = 0; r < rows_; ++r) {
        Complex *row = data + r * cols_;
        inverse ? row_plan_.inverse(row) : row_plan_.forward(row);
    }

    arena_.reset();
    Complex *col = arena_.alloc<Complex>(rows_);
    for (std::size_t c = 0; c < cols_; ++c) {
        for (std::size_t r = 0; r < rows_; ++r)
            col[r] = data[r * cols_ + c];
        inverse ? col_plan_.inverse(col) : col_plan_.forward(col);
        for (std::size_t r = 0; r < rows_; ++r)
            data[r * cols_ + c] = col[r];
    }
}

void
Fft2dPlan::forward(Complex *data)
{
    run(data, false);
}

void
Fft2dPlan::inverse(Complex *data)
{
    run(data, true);
}

} // namespace sov
