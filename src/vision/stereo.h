/**
 * @file
 * Stereo depth estimation (Table III: ELAS).
 *
 * A two-stage matcher in the spirit of ELAS: (1) robust support points
 * on a coarse grid matched over the full disparity range, (2) dense
 * block matching over a narrow range around the disparity prior
 * interpolated from the support points, plus subpixel refinement and a
 * left-right consistency check.
 *
 * Two backends implement the same matcher (vision/kernels.h):
 *
 *  - Reference: the naive oracle — every (pixel, disparity) pair
 *    recomputes its full (2r+1)^2 SAD window.
 *  - Fast: per image row, incremental column sums turn the window
 *    into an O(1)-per-pixel sliding update, one SAD table serves the
 *    dense search, the left-right check AND the subpixel parabola,
 *    and rows are processed in fixed-size blocks fanned out over a
 *    core::ThreadPool. Scratch comes from a FrameArena, so
 *    steady-state frames perform no system allocation. The Simd
 *    backend runs the Fast code with the SAD column-sum update
 *    vectorized (math/simd_kernels.h).
 *
 * Determinism: Fast output is bit-identical for any thread count
 * (fixed row-block partitioning, block-ordered reduction), and for
 * images whose intensities are multiples of 1/256 (8-bit sensor data)
 * it is bit-identical to the Reference backend — the SAD sums stay
 * exactly representable, so the two summation orders agree.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "core/arena.h"
#include "vision/camera_model.h"
#include "vision/image.h"
#include "vision/kernels.h"

namespace sov {

class ThreadPool;

/** Stereo matcher parameters. */
struct StereoConfig
{
    int max_disparity = 64;
    int block_radius = 3;        //!< SAD window radius
    int support_grid_step = 10;  //!< support-point grid spacing (px)
    int prior_margin = 6;        //!< dense search range around prior
    double max_sad = 0.30;       //!< per-pixel SAD acceptance threshold
    bool left_right_check = true;
    double lr_tolerance = 1.5;   //!< disparity tolerance for LR check
    /** Which implementation runs (vision/kernels.h). */
    KernelBackend backend = KernelBackend::Reference;
    /** Fast backend: rows per parallel work item. Part of the
     *  determinism contract — results depend on this value (block
     *  boundaries reset the incremental column sums) but never on the
     *  thread count executing the blocks. */
    int row_block = 16;
};

/** Dense disparity output. */
struct DisparityMap
{
    Image disparity;  //!< pixels; <= 0 means invalid
    double density = 0.0; //!< fraction of valid pixels

    /** Depth (meters) at a pixel, given the rig geometry. */
    double depthAt(std::size_t x, std::size_t y, const StereoRig &rig) const;
};

/** One matched support point. */
struct SupportPoint
{
    int x, y;
    double disparity;
};

/** ELAS-style stereo matcher. */
class StereoMatcher
{
  public:
    explicit StereoMatcher(const StereoConfig &config = {})
        : config_(config) {}

    /** Compute the dense disparity map of a rectified pair. */
    DisparityMap match(const Image &left, const Image &right) const;

    /** Stage 1 only: the grid of support points (exposed for tests). */
    std::vector<SupportPoint> supportPoints(const Image &left,
                                            const Image &right) const;

    /**
     * Row-parallel execution for the Fast backend (non-owning; must
     * outlive the matcher's use). nullptr = run serially. The output
     * is identical either way.
     */
    void setThreadPool(ThreadPool *pool) { pool_ = pool; }

    const StereoConfig &config() const { return config_; }

    /** Scratch arena of the Fast backend (exposed so tests can assert
     *  steady-state frames stop allocating). */
    const FrameArena &scratchArena() const { return arena_; }

  private:
    /**
     * Reference SAD block match of one pixel over [d_lo, d_hi].
     * @param sads Caller-owned scratch for the per-disparity SAD
     *        curve (hoisted out of the per-pixel loop).
     * @return Best disparity with parabolic subpixel refinement, or a
     *         negative value when no acceptable match exists.
     */
    double matchPixel(const Image &left, const Image &right, int x, int y,
                      int d_lo, int d_hi,
                      std::vector<double> &sads) const;

    /** Match a right-image pixel back into the left image (LR check). */
    double matchRightPixel(const Image &left, const Image &right, int x,
                           int y, int d_lo, int d_hi) const;

    /** The naive oracle implementation of match(). */
    DisparityMap matchReference(const Image &left,
                                const Image &right) const;

    /** Sliding-window implementation of match() (stereo_fast.cpp). */
    DisparityMap matchFast(const Image &left, const Image &right) const;

    /** Fast-path support extraction (stereo_fast.cpp). */
    std::vector<SupportPoint> supportPointsFast(const Image &left,
                                                const Image &right) const;

    StereoConfig config_;
    ThreadPool *pool_ = nullptr;
    /** Fast-backend scratch; mutable because match() is logically
     *  const. A matcher must not run two match() calls concurrently. */
    mutable FrameArena arena_;
};

} // namespace sov
