/**
 * @file
 * Fast backend of the ELAS-style stereo matcher.
 *
 * The reference oracle recomputes the full (2r+1)^2 SAD window for
 * every (pixel, disparity) pair. This backend restructures the same
 * computation around a per-row SAD table W_d(x):
 *
 *  - column sums: colsum_d(x, y) = sum_dy |L(x, y+dy) - R(x-d, y+dy)|
 *    are maintained incrementally down the rows of a block (add the
 *    entering row, subtract the leaving one — O(1) per row per column
 *    instead of O(2r+1));
 *  - window sums: W_d(x) slides along x (add the entering column sum,
 *    subtract the leaving one — O(1) per pixel step);
 *  - one table serves everything: the dense search reads W_d(x), the
 *    subpixel parabola reads its d +/- 1 neighbors, and the left-right
 *    check is the identity SAD_right(x_r, d) == W_d(x_r + d) — the
 *    reference recomputes all three from scratch.
 *
 * Parallelism & determinism: rows are processed in fixed-size blocks
 * (StereoConfig::row_block) fanned out over a core::ThreadPool. The
 * partitioning depends only on the config, every block starts its
 * column sums fresh, blocks write disjoint output rows, and the valid
 * -pixel reduction runs in block order — so the output is bit-identical
 * for any thread count (including none). Scratch slabs are carved out
 * of the matcher's FrameArena before the fan-out; steady-state frames
 * perform no scratch allocation.
 *
 * Numerics: the table accumulates in float. For images whose
 * intensities are multiples of 1/256 (8-bit sensor data) every partial
 * sum is exactly representable, so the fast output is bit-identical to
 * the reference backend; tests/vision/test_kernels.cpp and
 * bench_kernels gate on that.
 */
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/logging.h"
#include "core/simd.h"
#include "core/thread_pool.h"
#include "math/simd_kernels.h"
#include "vision/stereo.h"

namespace sov {

namespace {

/** Geometry shared by every helper below. */
struct FastParams
{
    int w = 0;    //!< image width
    int h = 0;    //!< image height
    int r = 0;    //!< SAD window radius
    int D = 0;    //!< largest tabulated disparity (max_disparity + margin)
    int span = 0; //!< padded column range: w + 2r
    int n = 0;    //!< window element count (2r+1)^2
    /** Vector level of the SAD inner loop (None for the Fast tier). */
    SimdLevel simd = SimdLevel::None;
};

/** Per-task scratch, carved from the arena before the fan-out. */
struct Scratch
{
    float *colsum; //!< (D+1) x span column sums
    float *sad;    //!< (D+1) x w window sums W_d(x)
    float *pad_l;  //!< span: left row, border-replicated
    float *pad_r;  //!< span + D: right row, border-replicated
};

std::size_t
scratchFloats(const FastParams &p)
{
    const auto d1 = static_cast<std::size_t>(p.D + 1);
    return d1 * static_cast<std::size_t>(p.span) +
        d1 * static_cast<std::size_t>(p.w) +
        static_cast<std::size_t>(p.span) +
        static_cast<std::size_t>(p.span + p.D);
}

Scratch
carveScratch(const FastParams &p, float *slab)
{
    const auto d1 = static_cast<std::size_t>(p.D + 1);
    Scratch s;
    s.colsum = slab;
    s.sad = s.colsum + d1 * static_cast<std::size_t>(p.span);
    s.pad_l = s.sad + d1 * static_cast<std::size_t>(p.w);
    s.pad_r = s.pad_l + static_cast<std::size_t>(p.span);
    return s;
}

/** Fill the border-replicated row buffers for image row @p yc. */
void
fillPaddedRows(const Image &left, const Image &right, const FastParams &p,
               int yc, const Scratch &s)
{
    const float *lrow =
        &left.data()[static_cast<std::size_t>(yc) * left.width()];
    const float *rrow =
        &right.data()[static_cast<std::size_t>(yc) * right.width()];
    for (int xs = 0; xs < p.span; ++xs)
        s.pad_l[xs] = lrow[std::clamp(xs - p.r, 0, p.w - 1)];
    for (int j = 0; j < p.span + p.D; ++j)
        s.pad_r[j] = rrow[std::clamp(j - p.r - p.D, 0, p.w - 1)];
}

/**
 * colsum_d(x) (+/-)= |L(x, yc) - R(x-d, yc)| for the padded row — the
 * SAD hot loop. Dispatches through the shared Simd-tier primitive:
 * p.simd == None runs its scalar body (the Fast tier), SSE2/AVX2 the
 * vector ones, all bit-identical per element.
 */
template <bool Add>
void
accumulateAdRow(const FastParams &p, const Scratch &s)
{
    const auto span = static_cast<std::size_t>(p.span);
    for (int d = 0; d <= p.D; ++d) {
        float *cs = s.colsum + static_cast<std::size_t>(d) * p.span;
        const float *b = s.pad_r + (p.D - d);
        if (Add)
            simd::absDiffAdd(cs, s.pad_l, b, span, p.simd);
        else
            simd::absDiffSub(cs, s.pad_l, b, span, p.simd);
    }
}

/** Column sums of row @p y0, built from scratch. */
void
buildColsums(const Image &left, const Image &right, const FastParams &p,
             int y0, const Scratch &s)
{
    std::fill(s.colsum,
              s.colsum + static_cast<std::size_t>(p.D + 1) * p.span,
              0.0f);
    for (int dy = -p.r; dy <= p.r; ++dy) {
        fillPaddedRows(left, right, p, std::clamp(y0 + dy, 0, p.h - 1), s);
        accumulateAdRow<true>(p, s);
    }
}

/** Slide the column sums from row y-1 to row y. */
void
advanceColsums(const Image &left, const Image &right, const FastParams &p,
               int y, const Scratch &s)
{
    const int enter = std::clamp(y + p.r, 0, p.h - 1);
    const int leave = std::clamp(y - 1 - p.r, 0, p.h - 1);
    if (enter == leave)
        return; // both clamped onto the same border row: no net change
    fillPaddedRows(left, right, p, enter, s);
    accumulateAdRow<true>(p, s);
    fillPaddedRows(left, right, p, leave, s);
    accumulateAdRow<false>(p, s);
}

/** Window sums W_d(x) of the current row via sliding window. */
void
windowSums(const FastParams &p, const Scratch &s)
{
    const int win = 2 * p.r + 1;
    for (int d = 0; d <= p.D; ++d) {
        const float *cs = s.colsum + static_cast<std::size_t>(d) * p.span;
        float *srow = s.sad + static_cast<std::size_t>(d) * p.w;
        float acc = 0.0f;
        for (int i = 0; i < win; ++i)
            acc += cs[i];
        for (int x = 0; x < p.w; ++x) {
            srow[x] = acc;
            if (x + 1 < p.w)
                acc += cs[x + win] - cs[x];
        }
    }
}

/**
 * Table variant of StereoMatcher::matchPixel: identical accept logic,
 * division and subpixel parabola, reading W_d(x) instead of
 * recomputing windows.
 */
double
tableMatchPixel(const FastParams &p, const Scratch &s, double max_sad,
                int x, int d_lo, int d_hi)
{
    d_lo = std::max(d_lo, 0);
    d_hi = std::min(d_hi, x - p.r); // right window must stay in-image
    if (d_hi < d_lo)
        return -1.0;
    SOV_ASSERT(d_hi <= p.D);

    double best_sad = 1e18;
    int best_d = -1;
    for (int d = d_lo; d <= d_hi; ++d) {
        const double sad =
            static_cast<double>(
                s.sad[static_cast<std::size_t>(d) * p.w + x]) /
            p.n;
        if (sad < best_sad) {
            best_sad = sad;
            best_d = d;
        }
    }
    if (best_d < 0 || best_sad > max_sad)
        return -1.0;

    double refined = best_d;
    if (best_d > d_lo && best_d < d_hi) {
        const double c0 =
            static_cast<double>(
                s.sad[static_cast<std::size_t>(best_d - 1) * p.w + x]) /
            p.n;
        const double c1 =
            static_cast<double>(
                s.sad[static_cast<std::size_t>(best_d) * p.w + x]) /
            p.n;
        const double c2 =
            static_cast<double>(
                s.sad[static_cast<std::size_t>(best_d + 1) * p.w + x]) /
            p.n;
        const double denom = c0 - 2.0 * c1 + c2;
        if (denom > 1e-12)
            refined += 0.5 * (c0 - c2) / denom;
    }
    return refined;
}

/**
 * Table variant of matchRightPixel, using the identity
 * SAD_right(x_r, d) == W_d(x_r + d): the right-anchored window over
 * |R(x_r+dx) - L(x_r+d+dx)| is the left-anchored window at x_r + d.
 */
double
tableMatchRight(const FastParams &p, const Scratch &s, double max_sad,
                int rx, int d_lo, int d_hi)
{
    d_lo = std::max(d_lo, 0);
    d_hi = std::min(d_hi, p.w - 1 - p.r - rx); // left window in-image
    if (d_hi < d_lo)
        return -1.0;
    SOV_ASSERT(d_hi <= p.D);

    double best_sad = 1e18;
    int best_d = -1;
    for (int d = d_lo; d <= d_hi; ++d) {
        const double sad =
            static_cast<double>(
                s.sad[static_cast<std::size_t>(d) * p.w + rx + d]) /
            p.n;
        if (sad < best_sad) {
            best_sad = sad;
            best_d = d;
        }
    }
    if (best_d < 0 || best_sad > max_sad)
        return -1.0;
    return best_d;
}

/** pool->parallelFor, or a plain loop when no pool is attached. */
void
runParallel(ThreadPool *pool, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (pool && count > 1) {
        pool->parallelFor(count, body);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
    }
}

FastParams
makeParams(const Image &left, const StereoConfig &config)
{
    FastParams p;
    p.w = static_cast<int>(left.width());
    p.h = static_cast<int>(left.height());
    p.r = config.block_radius;
    // The dense search range is prior +/- margin and the interpolated
    // prior never exceeds max_disparity (support matches are clamped
    // to it; subpixel refinement adds < 1), so the table must cover
    // max_disparity + prior_margin.
    p.D = config.max_disparity + config.prior_margin;
    p.span = p.w + 2 * p.r;
    p.n = (2 * p.r + 1) * (2 * p.r + 1);
    p.simd = config.backend == KernelBackend::Simd ? detectSimdLevel()
                                                   : SimdLevel::None;
    return p;
}

/** Support rows of the coarse grid, in ascending order. */
std::vector<int>
supportRows(const FastParams &p, const StereoConfig &config)
{
    std::vector<int> rows;
    const int step = config.support_grid_step;
    for (int y = p.r + step / 2; y < p.h - p.r; y += step)
        rows.push_back(y);
    return rows;
}

} // namespace

std::vector<SupportPoint>
StereoMatcher::supportPointsFast(const Image &left,
                                 const Image &right) const
{
    const FastParams p = makeParams(left, config_);
    const std::vector<int> rows = supportRows(p, config_);
    if (rows.empty())
        return {};

    arena_.reset();
    const std::size_t slab = scratchFloats(p);
    float *slabs = arena_.alloc<float>(slab * rows.size());

    std::vector<std::vector<SupportPoint>> per_row(rows.size());
    const int step = config_.support_grid_step;
    runParallel(pool_, rows.size(), [&](std::size_t i) {
        const Scratch s = carveScratch(p, slabs + i * slab);
        const int y = rows[i];
        buildColsums(left, right, p, y, s);
        windowSums(p, s);
        for (int x = p.r + step / 2; x < p.w - p.r; x += step) {
            const double d = tableMatchPixel(p, s, config_.max_sad, x, 0,
                                             config_.max_disparity);
            if (d >= 0.0)
                per_row[i].push_back(SupportPoint{x, y, d});
        }
    });

    // Block-ordered reduction: identical to the reference's row-major
    // traversal, independent of which thread ran which row.
    std::vector<SupportPoint> points;
    for (const auto &row : per_row)
        points.insert(points.end(), row.begin(), row.end());
    return points;
}

/**
 * 1/dist² for every integer dist² the support prior can accept
 * (dx² + dy² + 1 under the 40 px cutoff ⇒ 1..1600). Supports and
 * pixels sit on integer grids, so dist² is a sum of small integer
 * squares — exact in double — and looking the reciprocal up is
 * bit-identical to dividing by it.
 */
const double *
invDist2Table()
{
    static const std::vector<double> table = [] {
        std::vector<double> t(1601, 0.0);
        for (int i = 1; i <= 1600; ++i)
            t[i] = 1.0 / static_cast<double>(i);
        return t;
    }();
    return table.data();
}

/**
 * One support row of the windowed prior scan: the supports with a
 * fixed dy, plus the sliding [b, e) range of those inside this
 * pixel's x-window. |dx| <= reach ⇔ dx² + dy² + 1 <= 1600, exactly —
 * integer arithmetic on both sides — so the window admits precisely
 * the candidates the reference's distance test keeps.
 */
struct PriorRow
{
    const SupportPoint *end;
    const SupportPoint *b;
    const SupportPoint *e;
    int dy_sq;
    int reach;
};

DisparityMap
StereoMatcher::matchFast(const Image &left, const Image &right) const
{
    const FastParams p = makeParams(left, config_);
    const auto supports = supportPointsFast(left, right);

    DisparityMap out;
    out.disparity = Image(left.width(), left.height(), -1.0f);
    if (p.w == 0 || p.h == 0)
        return out;

    const int row_block = std::max(config_.row_block, 1);
    const std::size_t blocks =
        (static_cast<std::size_t>(p.h) + row_block - 1) /
        static_cast<std::size_t>(row_block);

    arena_.reset();
    const std::size_t slab = scratchFloats(p);
    float *slabs = arena_.alloc<float>(slab * blocks);
    std::vector<std::size_t> valid_per_block(blocks, 0);

    runParallel(pool_, blocks, [&](std::size_t b) {
        const Scratch s = carveScratch(p, slabs + b * slab);
        const int y0 = static_cast<int>(b) * row_block;
        const int y1 = std::min(y0 + row_block, p.h);
        buildColsums(left, right, p, y0, s);
        std::size_t valid = 0;

        for (int y = y0; y < y1; ++y) {
            if (y > y0)
                advanceColsums(left, right, p, y, s);
            windowSums(p, s);

            // Support candidates for this row: the prior's 40 px
            // cutoff rejects everything with |sp.y - y| >= 40, and
            // supports are sorted by y, so a contiguous index range
            // covers exactly the points the reference loop keeps (in
            // the same order — the weighted sums round identically).
            const auto lo = std::lower_bound(
                supports.begin(), supports.end(), y - 39,
                [](const SupportPoint &sp, int yy) { return sp.y < yy; });
            const auto hi = std::upper_bound(
                supports.begin(), supports.end(), y + 39,
                [](int yy, const SupportPoint &sp) { return yy < sp.y; });

            // Each support row keeps a two-pointer x-window (the
            // circle test degenerates to |dx| <= reach per row) so
            // rejected candidates are never visited, and the integer
            // -valued 1/dist² weight comes from a table. The weighted
            // sums run over the reference's candidates in its order,
            // so they round identically.
            PriorRow prior_rows[80];
            std::size_t nrows = 0;
            const SupportPoint *base = supports.data();
            const SupportPoint *it = base + (lo - supports.begin());
            const SupportPoint *row_hi = base + (hi - supports.begin());
            while (it != row_hi) {
                const int sy = it->y;
                const SupportPoint *run = it;
                while (run != row_hi && run->y == sy)
                    ++run;
                const int dy = sy - y;
                const int rem = 1599 - dy * dy;
                int reach =
                    static_cast<int>(std::sqrt(static_cast<double>(rem)));
                while ((reach + 1) * (reach + 1) <= rem)
                    ++reach;
                while (reach > 0 && reach * reach > rem)
                    --reach;
                prior_rows[nrows++] = PriorRow{run, it, it, dy * dy, reach};
                it = run;
            }
            const double *inv_dist2 = invDist2Table();

            for (int x = 0; x < p.w; ++x) {
                double prior = -1.0;
                double wsum = 0.0, dsum = 0.0;
                for (std::size_t k = 0; k < nrows; ++k) {
                    PriorRow &row = prior_rows[k];
                    const int xlo = x - row.reach;
                    const int xhi = x + row.reach;
                    while (row.b != row.end && row.b->x < xlo)
                        ++row.b;
                    if (row.e < row.b)
                        row.e = row.b;
                    while (row.e != row.end && row.e->x <= xhi)
                        ++row.e;
                    for (const SupportPoint *sp = row.b; sp != row.e;
                         ++sp) {
                        const int dxi = sp->x - x;
                        const double wgt =
                            inv_dist2[dxi * dxi + row.dy_sq + 1];
                        wsum += wgt;
                        dsum += wgt * sp->disparity;
                    }
                }
                if (wsum > 0.0)
                    prior = dsum / wsum;

                int d_lo = 0, d_hi = config_.max_disparity;
                if (prior >= 0.0) {
                    d_lo = static_cast<int>(prior) - config_.prior_margin;
                    d_hi = static_cast<int>(prior) + config_.prior_margin;
                }

                const double d = tableMatchPixel(p, s, config_.max_sad,
                                                 x, d_lo, d_hi);
                if (d < 0.0)
                    continue;

                if (config_.left_right_check) {
                    const int rx =
                        x - static_cast<int>(std::lround(d));
                    if (rx < 0)
                        continue;
                    const double dr = tableMatchRight(
                        p, s, config_.max_sad, rx, d_lo, d_hi);
                    if (dr < 0.0 ||
                        std::fabs(dr - d) > config_.lr_tolerance)
                        continue;
                }

                out.disparity(static_cast<std::size_t>(x),
                              static_cast<std::size_t>(y)) =
                    static_cast<float>(d);
                ++valid;
            }
        }
        valid_per_block[b] = valid;
    });

    std::size_t valid = 0;
    for (const std::size_t v : valid_per_block)
        valid += v;
    out.density = static_cast<double>(valid) /
        (static_cast<double>(p.w) * static_cast<double>(p.h));
    return out;
}

} // namespace sov
