/**
 * @file
 * Shared inner-loop primitives for the KernelBackend::Simd tier.
 *
 * Each primitive takes the SimdLevel to run at; the Fast backends call
 * these with SimdLevel::None (the scalar body *is* the Fast loop) and
 * the Simd backends pass detectSimdLevel(), so there is exactly one
 * dispatch point — and one scalar definition — per hot loop. A level
 * the build or function does not support silently degrades to the
 * scalar body.
 *
 * Equivalence policy (gated in bench_kernels and the unit tests):
 *  - element-wise loops (absDiffAccum, axpy, butterfly, hadamardMul,
 *    scale) perform the same individually rounded operations per
 *    element in both bodies — mul and add are kept as separate
 *    instructions (target("avx2") does not enable FMA contraction) —
 *    so vector output is bit-identical to scalar;
 *  - the reduction (dot) holds per-lane partial sums and folds them
 *    in fixed lane order, which reassociates the sum: results are
 *    deterministic but differ from scalar by a documented epsilon.
 *
 * A kernel gets a primitive here only while its vector body pays (at
 * least 1.2× over Fast in paired runs); ICP's does not, so its Simd
 * tier runs the Fast code (pointcloud/icp.h).
 *
 * Coverage: the f32 kernels have SSE2 and AVX2 bodies; the f64 /
 * complex kernels are AVX2-only (SSE2 lacks addsub and 4-wide f64)
 * and run scalar below that.
 */
#pragma once

#include <complex>
#include <cstddef>

#include "core/simd.h"

namespace sov::simd {

using Complex = std::complex<double>;

/** dst[i] += |a[i] - b[i]| — the stereo SAD column-sum update. */
void absDiffAdd(float *dst, const float *a, const float *b,
                std::size_t n, SimdLevel level);

/** dst[i] -= |a[i] - b[i]| — the leaving-row column-sum update. */
void absDiffSub(float *dst, const float *a, const float *b,
                std::size_t n, SimdLevel level);

/** dst[j] += s * src[j] — the gemmF32/gemmTnF32 micro-row. */
void axpy(float *dst, const float *src, float s, std::size_t n,
          SimdLevel level);

/** Σ a[i]·b[i] — the gemmNtF32 micro-dot (lane-reassociated). */
float dot(const float *a, const float *b, std::size_t n,
          SimdLevel level);

/**
 * One radix-2 butterfly block: for k < half,
 *   v = hi[k]·w[k]; hi[k] = lo[k] − v; lo[k] = lo[k] + v.
 * @p w points at the precomputed twiddles for this stage.
 */
void butterfly(Complex *lo, Complex *hi, const Complex *w,
               std::size_t half, SimdLevel level);

/** out[i] = a[i]·b[i] (conj_b: a[i]·conj(b[i])). May alias a or b. */
void hadamardMul(Complex *out, const Complex *a, const Complex *b,
                 std::size_t n, bool conj_b, SimdLevel level);

/** data[i] *= s — the inverse-FFT 1/N normalization. */
void scale(Complex *data, double s, std::size_t n, SimdLevel level);

} // namespace sov::simd
