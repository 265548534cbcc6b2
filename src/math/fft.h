/**
 * @file
 * Radix-2 FFT (1-D and 2-D) used by the KCF visual tracker (Table III),
 * which trains and evaluates correlation filters in the Fourier domain.
 * These ad-hoc transforms are KCF's Reference tier and the oracle the
 * planned transforms (math/fft_plan.h) are gated bit-identical
 * against; KCF multiplies spectra element-wise inline.
 */
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace sov {

using Complex = std::complex<double>;

/** True if n is a power of two (and nonzero). */
bool isPowerOfTwo(std::size_t n);

/**
 * In-place iterative radix-2 FFT.
 * @param data Length must be a power of two.
 * @param inverse If true computes the inverse transform including
 *        the 1/N normalization.
 */
void fft(std::vector<Complex> &data, bool inverse);

/** Forward FFT of a real signal (length must be a power of two). */
std::vector<Complex> fftReal(const std::vector<double> &data);

/**
 * fftReal into a caller-owned buffer. @p out is resized to the input
 * length; a warm buffer is reused without reallocating, so per-frame
 * callers pay no steady-state allocation.
 */
void fftRealInto(const std::vector<double> &data,
                 std::vector<Complex> &out);

/** Inverse FFT returning only the real parts. */
std::vector<double> ifftToReal(std::vector<Complex> spectrum);

/**
 * ifftToReal into a caller-owned buffer; @p spectrum is transformed
 * in place (it holds the time-domain values afterwards).
 */
void ifftToRealInto(std::vector<Complex> &spectrum,
                    std::vector<double> &out);

/**
 * Row-major 2-D FFT.
 * @param data rows*cols complex values, both dimensions powers of two.
 */
void fft2d(std::vector<Complex> &data, std::size_t rows, std::size_t cols,
           bool inverse);

} // namespace sov
