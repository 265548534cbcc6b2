#include "vision/kcf.h"

#include <cmath>

#include "core/logging.h"
#include "core/stats.h"

namespace sov {

KcfTracker::KcfTracker(const KcfConfig &config)
    : config_(config), plan_(config.window, config.window)
{
    SOV_ASSERT(isPowerOfTwo(config.window));
    const std::size_t n = config_.window;

    // Separable Hann window.
    hann_.resize(n * n);
    for (std::size_t y = 0; y < n; ++y) {
        const double wy =
            0.5 * (1.0 - std::cos(2.0 * M_PI * y / (n - 1)));
        for (std::size_t x = 0; x < n; ++x) {
            const double wx =
                0.5 * (1.0 - std::cos(2.0 * M_PI * x / (n - 1)));
            hann_[y * n + x] = wx * wy;
        }
    }

    // Gaussian regression target centered on the window.
    std::vector<Complex> target(n * n);
    const double c = (n - 1) / 2.0;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
            const double d2 = (x - c) * (x - c) + (y - c) * (y - c);
            target[y * n + x] = Complex(
                std::exp(-d2 / (2.0 * config_.sigma * config_.sigma)),
                0.0);
        }
    }
    transform(target, false);
    target_fft_ = std::move(target);

    // Size the per-frame scratch once; update() never grows it.
    values_.resize(n * n);
    f_.resize(n * n);
    f_new_.resize(n * n);
    response_.resize(n * n);
}

void
KcfTracker::transform(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = config_.window;
    if (config_.backend == KernelBackend::Reference) {
        fft2d(data, n, n, inverse);
        return;
    }
    if (inverse)
        plan_.inverse(data.data());
    else
        plan_.forward(data.data());
}

void
KcfTracker::patchSpectrumInto(const Image &frame, double cx, double cy,
                              std::vector<Complex> &out)
{
    const std::size_t n = config_.window;
    out.resize(n * n);
    const double half = static_cast<double>(n) / 2.0;

    // Extract, then zero-mean and Hann-window to suppress boundary
    // effects of the circular correlation.
    double mean = 0.0;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
            const double v = frame.sampleBilinear(cx - half + x,
                                                  cy - half + y);
            values_[y * n + x] = v;
            mean += v;
        }
    }
    mean /= static_cast<double>(n * n);
    for (std::size_t i = 0; i < n * n; ++i)
        out[i] = Complex((values_[i] - mean) * hann_[i], 0.0);

    transform(out, false);
}

void
KcfTracker::init(const Image &frame, double x, double y)
{
    const std::size_t n = config_.window;
    x_ = x;
    y_ = y;
    patchSpectrumInto(frame, x_, y_, f_);

    numerator_.assign(n * n, Complex(0, 0));
    denominator_.assign(n * n, Complex(0, 0));
    for (std::size_t i = 0; i < n * n; ++i) {
        numerator_[i] = target_fft_[i] * std::conj(f_[i]);
        denominator_[i] = f_[i] * std::conj(f_[i]) +
            Complex(config_.lambda, 0.0);
    }
    initialized_ = true;
}

KcfStatus
KcfTracker::update(const Image &frame)
{
    SOV_ASSERT(initialized_);
    const std::size_t n = config_.window;

    patchSpectrumInto(frame, x_, y_, f_);

    // Response = IFFT(H ⊙ F), H = numerator / denominator.
    for (std::size_t i = 0; i < n * n; ++i)
        response_[i] = numerator_[i] / denominator_[i] * f_[i];
    transform(response_, true);

    // Peak location.
    double peak = -1e18;
    std::size_t px = 0, py = 0;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
            const double v = response_[y * n + x].real();
            if (v > peak) {
                peak = v;
                px = x;
                py = y;
            }
        }
    }

    // Peak-to-sidelobe ratio, excluding an 11x11 window around the peak.
    RunningStats sidelobe;
    for (std::size_t y = 0; y < n; ++y) {
        for (std::size_t x = 0; x < n; ++x) {
            const long dx = static_cast<long>(x) - static_cast<long>(px);
            const long dy = static_cast<long>(y) - static_cast<long>(py);
            if (std::labs(dx) <= 5 && std::labs(dy) <= 5)
                continue;
            sidelobe.add(response_[y * n + x].real());
        }
    }
    const double psr = sidelobe.stddev() > 1e-12
        ? (peak - sidelobe.mean()) / sidelobe.stddev() : 0.0;

    // The Gaussian label is centered at (n-1)/2, so the peak sits at
    // center + displacement; displacements wrap circularly.
    const double center = (static_cast<double>(n) - 1.0) / 2.0;
    auto wrapped = [n, center](std::size_t v) {
        double d = static_cast<double>(v) - center;
        if (d > static_cast<double>(n) / 2.0)
            d -= static_cast<double>(n);
        if (d < -static_cast<double>(n) / 2.0)
            d += static_cast<double>(n);
        return d;
    };
    const double dx = wrapped(px);
    const double dy = wrapped(py);

    KcfStatus status;
    status.psr = psr;
    status.confident = psr >= config_.psr_threshold;

    if (status.confident) {
        x_ += dx;
        y_ += dy;
        // Online model update at the new location.
        patchSpectrumInto(frame, x_, y_, f_new_);
        const double lr = config_.learning_rate;
        for (std::size_t i = 0; i < n * n; ++i) {
            numerator_[i] = numerator_[i] * (1.0 - lr) +
                target_fft_[i] * std::conj(f_new_[i]) * lr;
            denominator_[i] = denominator_[i] * (1.0 - lr) +
                (f_new_[i] * std::conj(f_new_[i]) +
                 Complex(config_.lambda, 0.0)) * lr;
        }
    }
    status.x = x_;
    status.y = y_;
    return status;
}

} // namespace sov
