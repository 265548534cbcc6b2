/**
 * @file
 * Kernelized-correlation-filter visual tracker (Table III: KCF).
 *
 * The frequency-domain correlation tracker used as the baseline when
 * Radar signals are unstable (Sec. IV). Linear-kernel KCF: a ridge-
 * regression filter trained against a Gaussian response, evaluated and
 * updated entirely with 2-D FFTs, with an online learning rate.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "core/kernels.h"
#include "math/fft.h"
#include "math/fft_plan.h"
#include "vision/image.h"

namespace sov {

/** KCF parameters. */
struct KcfConfig
{
    std::size_t window = 64;     //!< search window edge (power of two)
    double sigma = 2.0;          //!< Gaussian target bandwidth (px)
    double lambda = 1e-4;        //!< ridge regularization
    double learning_rate = 0.08; //!< online model update factor
    double psr_threshold = 4.0;  //!< peak-to-sidelobe quality gate
    /**
     * Implementation tier (core/kernels.h). Reference runs every
     * transform through the ad-hoc fft2d(); Fast routes them through a
     * precomputed Fft2dPlan with reused patch/response buffers, so
     * steady-state frames perform no heap allocation. Simd runs the
     * Fast code: vectorized butterflies measured below 1.2× over it
     * and were deleted. All three tiers are bit-identical (the plan
     * replays the ad-hoc twiddle rounding).
     */
    KernelBackend backend = KernelBackend::Reference;
};

/** Tracker state after an update. */
struct KcfStatus
{
    double x = 0.0;       //!< tracked center (pixels)
    double y = 0.0;
    double psr = 0.0;     //!< peak-to-sidelobe ratio (quality)
    bool confident = false;
};

/** Linear-kernel KCF / DCF tracker. */
class KcfTracker
{
  public:
    explicit KcfTracker(const KcfConfig &config = {});

    /** (Re)initialize on a target centered at (x, y). */
    void init(const Image &frame, double x, double y);

    /**
     * Track into a new frame; searches around the last position and
     * updates the model when the response is confident.
     */
    KcfStatus update(const Image &frame);

    bool initialized() const { return initialized_; }
    double x() const { return x_; }
    double y() const { return y_; }

  private:
    /** Windowed, zero-mean patch centered at (cx, cy), written as a
     *  spectrum into @p out (resized to window²). */
    void patchSpectrumInto(const Image &frame, double cx, double cy,
                           std::vector<Complex> &out);

    /** Forward/inverse 2-D transform via the configured tier. */
    void transform(std::vector<Complex> &data, bool inverse);

    KcfConfig config_;
    Fft2dPlan plan_;                 //!< planned FFT for Fast/Simd
    std::vector<double> hann_;       //!< 2-D Hann window (w*w)
    std::vector<Complex> target_fft_; //!< Gaussian label spectrum
    std::vector<Complex> numerator_;
    std::vector<Complex> denominator_;
    // Scratch reused across frames so Fast/Simd updates are
    // allocation-free in steady state.
    std::vector<double> values_;
    std::vector<Complex> f_;
    std::vector<Complex> f_new_;
    std::vector<Complex> response_;
    double x_ = 0.0;
    double y_ = 0.0;
    bool initialized_ = false;
};

} // namespace sov
