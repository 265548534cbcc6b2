/**
 * @file
 * Scalar and vector bodies of the Simd-tier primitives.
 *
 * The whole translation unit compiles for the generic target; every
 * vector body carries a per-function target attribute and is only
 * reachable through the level dispatch, which never hands a body an
 * instruction set the host lacks (core/simd.h probes with
 * __builtin_cpu_supports). Note that target("avx2") deliberately does
 * NOT enable FMA: keeping mul and add as separate, individually
 * rounded instructions is what makes the element-wise bodies
 * bit-identical to their scalar twins.
 */
#include "math/simd_kernels.h"

#include <cmath>

#if defined(SOV_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
#define SOV_SIMD_X86 1
#include <immintrin.h>
#else
#define SOV_SIMD_X86 0
#endif

namespace sov::simd {

namespace {

// ------------------------------------------------------ scalar bodies

template <bool Add>
void
absDiffAccumScalar(float *dst, const float *a, const float *b,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float d = std::fabs(a[i] - b[i]);
        dst[i] = Add ? dst[i] + d : dst[i] - d;
    }
}

void
axpyScalar(float *dst, const float *src, float s, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] += s * src[j];
}

float
dotScalar(const float *a, const float *b, std::size_t n)
{
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i)
        acc += a[i] * b[i];
    return acc;
}

#if SOV_SIMD_X86

// ------------------------------------------------------ vector bodies

template <bool Add>
__attribute__((target("avx2"))) void
absDiffAccumAvx2(float *dst, const float *a, const float *b,
                 std::size_t n)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 d = _mm256_andnot_ps(
            sign, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                _mm256_loadu_ps(b + i)));
        const __m256 acc = _mm256_loadu_ps(dst + i);
        _mm256_storeu_ps(dst + i,
                         Add ? _mm256_add_ps(acc, d)
                             : _mm256_sub_ps(acc, d));
    }
    absDiffAccumScalar<Add>(dst + i, a + i, b + i, n - i);
}

template <bool Add>
__attribute__((target("sse2"))) void
absDiffAccumSse2(float *dst, const float *a, const float *b,
                 std::size_t n)
{
    const __m128 sign = _mm_set1_ps(-0.0f);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m128 d = _mm_andnot_ps(
            sign,
            _mm_sub_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i)));
        const __m128 acc = _mm_loadu_ps(dst + i);
        _mm_storeu_ps(dst + i,
                      Add ? _mm_add_ps(acc, d) : _mm_sub_ps(acc, d));
    }
    absDiffAccumScalar<Add>(dst + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void
axpyAvx2(float *dst, const float *src, float s, std::size_t n)
{
    const __m256 vs = _mm256_set1_ps(s);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 acc = _mm256_add_ps(
            _mm256_loadu_ps(dst + j),
            _mm256_mul_ps(vs, _mm256_loadu_ps(src + j)));
        _mm256_storeu_ps(dst + j, acc);
    }
    axpyScalar(dst + j, src + j, s, n - j);
}

__attribute__((target("sse2"))) void
axpySse2(float *dst, const float *src, float s, std::size_t n)
{
    const __m128 vs = _mm_set1_ps(s);
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
        const __m128 acc =
            _mm_add_ps(_mm_loadu_ps(dst + j),
                       _mm_mul_ps(vs, _mm_loadu_ps(src + j)));
        _mm_storeu_ps(dst + j, acc);
    }
    axpyScalar(dst + j, src + j, s, n - j);
}

__attribute__((target("avx2"))) float
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    // Fixed lane-fold order keeps the reassociation deterministic.
    float sum = 0.0f;
    for (float lane : lanes)
        sum += lane;
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

__attribute__((target("sse2"))) float
dotSse2(const float *a, const float *b, std::size_t n)
{
    __m128 acc = _mm_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(a + i),
                                         _mm_loadu_ps(b + i)));
    alignas(16) float lanes[4];
    _mm_store_ps(lanes, acc);
    float sum = 0.0f;
    for (float lane : lanes)
        sum += lane;
    for (; i < n; ++i)
        sum += a[i] * b[i];
    return sum;
}

#endif // SOV_SIMD_X86

} // namespace

// --------------------------------------------------------- dispatchers

void
absDiffAdd(float *dst, const float *a, const float *b, std::size_t n,
           [[maybe_unused]] SimdLevel level)
{
#if SOV_SIMD_X86
    if (level == SimdLevel::Avx2)
        return absDiffAccumAvx2<true>(dst, a, b, n);
    if (level == SimdLevel::Sse2)
        return absDiffAccumSse2<true>(dst, a, b, n);
#endif
    absDiffAccumScalar<true>(dst, a, b, n);
}

void
absDiffSub(float *dst, const float *a, const float *b, std::size_t n,
           [[maybe_unused]] SimdLevel level)
{
#if SOV_SIMD_X86
    if (level == SimdLevel::Avx2)
        return absDiffAccumAvx2<false>(dst, a, b, n);
    if (level == SimdLevel::Sse2)
        return absDiffAccumSse2<false>(dst, a, b, n);
#endif
    absDiffAccumScalar<false>(dst, a, b, n);
}

void
axpy(float *dst, const float *src, float s, std::size_t n,
     [[maybe_unused]] SimdLevel level)
{
#if SOV_SIMD_X86
    if (level == SimdLevel::Avx2)
        return axpyAvx2(dst, src, s, n);
    if (level == SimdLevel::Sse2)
        return axpySse2(dst, src, s, n);
#endif
    axpyScalar(dst, src, s, n);
}

float
dot(const float *a, const float *b, std::size_t n,
    [[maybe_unused]] SimdLevel level)
{
#if SOV_SIMD_X86
    if (level == SimdLevel::Avx2)
        return dotAvx2(a, b, n);
    if (level == SimdLevel::Sse2)
        return dotSse2(a, b, n);
#endif
    return dotScalar(a, b, n);
}

} // namespace sov::simd
