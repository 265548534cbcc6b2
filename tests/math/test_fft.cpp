#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "math/fft.h"

namespace sov {
namespace {

TEST(Fft, PowerOfTwoDetection)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Fft, ImpulseHasFlatSpectrum)
{
    std::vector<Complex> d(8, Complex(0, 0));
    d[0] = Complex(1, 0);
    fft(d, false);
    for (const auto &x : d) {
        EXPECT_NEAR(x.real(), 1.0, 1e-12);
        EXPECT_NEAR(x.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, ForwardInverseRoundTrip)
{
    Rng rng(123);
    std::vector<Complex> d(256);
    std::vector<Complex> orig(256);
    for (std::size_t i = 0; i < d.size(); ++i) {
        d[i] = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        orig[i] = d[i];
    }
    fft(d, false);
    fft(d, true);
    for (std::size_t i = 0; i < d.size(); ++i) {
        EXPECT_NEAR(d[i].real(), orig[i].real(), 1e-10);
        EXPECT_NEAR(d[i].imag(), orig[i].imag(), 1e-10);
    }
}

TEST(Fft, SingleToneLandsInOneBin)
{
    const std::size_t n = 64;
    std::vector<double> signal(n);
    for (std::size_t i = 0; i < n; ++i)
        signal[i] = std::cos(2.0 * M_PI * 5.0 * i / n);
    const auto spec = fftReal(signal);
    // Energy at bins 5 and n-5 only.
    for (std::size_t k = 0; k < n; ++k) {
        const double mag = std::abs(spec[k]);
        if (k == 5 || k == n - 5)
            EXPECT_NEAR(mag, n / 2.0, 1e-9) << k;
        else
            EXPECT_NEAR(mag, 0.0, 1e-9) << k;
    }
}

TEST(Fft, ParsevalHolds)
{
    Rng rng(7);
    const std::size_t n = 128;
    std::vector<double> x(n);
    double time_energy = 0.0;
    for (auto &v : x) {
        v = rng.gaussian();
        time_energy += v * v;
    }
    const auto spec = fftReal(x);
    double freq_energy = 0.0;
    for (const auto &s : spec)
        freq_energy += std::norm(s);
    EXPECT_NEAR(freq_energy / n, time_energy, 1e-8);
}

TEST(Fft, ConvolutionTheorem)
{
    // Circular convolution via FFT equals direct circular convolution.
    const std::size_t n = 16;
    Rng rng(9);
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniform(-1, 1);
        b[i] = rng.uniform(-1, 1);
    }
    std::vector<double> direct(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            direct[(i + j) % n] += a[i] * b[j];
    auto spectrum = fftReal(a);
    const auto fb = fftReal(b);
    for (std::size_t i = 0; i < n; ++i)
        spectrum[i] *= fb[i];
    const auto conv = ifftToReal(spectrum);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(conv[i], direct[i], 1e-10);
}

TEST(Fft, HadamardConjIsCrossCorrelation)
{
    // Cross-correlating a signal with itself peaks at zero shift.
    const std::size_t n = 32;
    Rng rng(21);
    std::vector<double> a(n);
    for (auto &v : a)
        v = rng.gaussian();
    auto spectrum = fftReal(a);
    for (auto &c : spectrum)
        c *= std::conj(c);
    const auto corr = ifftToReal(spectrum);
    for (std::size_t i = 1; i < n; ++i)
        EXPECT_LE(corr[i], corr[0] + 1e-12);
}

TEST(Fft2d, RoundTrip)
{
    const std::size_t rows = 8, cols = 16;
    Rng rng(33);
    std::vector<Complex> img(rows * cols), orig(rows * cols);
    for (std::size_t i = 0; i < img.size(); ++i) {
        img[i] = Complex(rng.uniform(-1, 1), 0.0);
        orig[i] = img[i];
    }
    fft2d(img, rows, cols, false);
    fft2d(img, rows, cols, true);
    for (std::size_t i = 0; i < img.size(); ++i)
        EXPECT_NEAR(img[i].real(), orig[i].real(), 1e-10);
}

TEST(Fft2d, DcBinIsSum)
{
    const std::size_t rows = 4, cols = 4;
    std::vector<Complex> img(rows * cols, Complex(1.0, 0.0));
    fft2d(img, rows, cols, false);
    EXPECT_NEAR(img[0].real(), 16.0, 1e-12);
    for (std::size_t i = 1; i < img.size(); ++i)
        EXPECT_NEAR(std::abs(img[i]), 0.0, 1e-12);
}

} // namespace
} // namespace sov
