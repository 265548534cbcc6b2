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
 *  - element-wise loops (absDiffAccum, axpy) perform the same
 *    individually rounded operations per element in both bodies — mul
 *    and add are kept as separate instructions (target("avx2") does
 *    not enable FMA contraction) — so vector output is bit-identical
 *    to scalar;
 *  - the reduction (dot) holds per-lane partial sums and folds them
 *    in fixed lane order, which reassociates the sum: results are
 *    deterministic but differ from scalar by a documented epsilon.
 *
 * A kernel gets a primitive here only while its vector body pays (at
 * least 1.2× over Fast in paired runs): the stereo SAD and the GEMM
 * micro-kernels do. ICP's and the FFT butterflies' did not, so the
 * ICP and KCF Simd tiers run the Fast code (pointcloud/icp.h,
 * vision/kcf.h).
 *
 * Coverage: every primitive has SSE2 and AVX2 bodies.
 */
#pragma once

#include <cstddef>

#include "core/simd.h"

namespace sov::simd {

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

} // namespace sov::simd
