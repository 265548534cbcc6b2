/**
 * @file
 * Kernel backend selection for the perception hot path.
 *
 * Every optimized perception kernel (sliding-window stereo SAD,
 * im2col GEMM convolution, closed-form ICP accumulation, planned FFT)
 * keeps its naive scalar implementation as a reference oracle. The
 * backend switch selects between them at the algorithm-config level
 * so benchmarks, tests and the KernelExecutor-driven pipelines can
 * run either side of the comparison on the same inputs.
 *
 * Three tiers:
 *  - Reference — the naive scalar oracle. Never deleted; every other
 *    tier is gated against it.
 *  - Fast — algorithmically restructured scalar code (sliding
 *    windows, im2col, closed-form accumulation, precomputed FFT
 *    plans, FrameArena scratch).
 *  - Simd — the Fast structure with explicitly vectorized (SSE2 /
 *    AVX2) inner loops, dispatched at runtime via core/simd.h. On a
 *    host (or build: SOV_SIMD=OFF) without vector support the Simd
 *    tier silently degrades to the Fast scalar loops — safe, because
 *    every Simd loop is gated bit-identical (or documented-epsilon
 *    where vectorization reassociates a reduction) against Reference.
 *    A kernel keeps vector bodies only while they pay (at least 1.2×
 *    over Fast in paired runs): stereo SAD and convolution do; ICP
 *    and KCF's FFT butterflies did not, so their Simd tiers run the
 *    Fast code exactly. No tier forks an algorithm.
 *
 * Determinism contract (Fast and Simd backends): outputs depend only
 * on the inputs and the kernel configuration — never on the thread
 * count of the ThreadPool executing it. Parallel kernels partition
 * work into fixed-size blocks (config-derived, not thread-derived)
 * and reduce results in block order. bench_kernels and
 * tests/vision/test_kernels enforce this with cross-thread-count
 * fingerprints.
 */
#pragma once

#include <string>

namespace sov {

/** Which implementation of a perception kernel runs. */
enum class KernelBackend
{
    Reference, //!< naive scalar oracle
    Fast,      //!< optimized scalar (sliding-window / im2col / plan)
    Simd,      //!< Fast structure + vectorized inner loops
};

/** Canonical lowercase name ("reference" / "fast" / "simd"). */
const char *kernelBackendName(KernelBackend backend);

/** Parse a backend name; fatal on anything else. */
KernelBackend kernelBackendFromName(const std::string &name);

/**
 * The production default tier: Simd. Closed-loop stacks and sweep
 * configs start here (runtime dispatch falls back to the Fast scalar
 * loops on hosts without vector support, so the default is safe
 * everywhere); per-kernel configs that exist to *gate* the tiers
 * (StereoConfig, DetectorConfig, ...) keep Reference as their default
 * so the oracle comparisons stay explicit.
 */
KernelBackend defaultKernelBackend();

} // namespace sov
