#include "math/fft.h"

#include <cmath>

#include "core/logging.h"

namespace sov {

bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

void
fft(std::vector<Complex> &data, bool inverse)
{
    const std::size_t n = data.size();
    SOV_ASSERT(isPowerOfTwo(n));

    // Bit-reversal permutation.
    for (std::size_t i = 1, j = 0; i < n; ++i) {
        std::size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(data[i], data[j]);
    }

    for (std::size_t len = 2; len <= n; len <<= 1) {
        const double ang = 2.0 * M_PI / static_cast<double>(len) *
            (inverse ? 1.0 : -1.0);
        const Complex wlen(std::cos(ang), std::sin(ang));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w(1.0, 0.0);
            for (std::size_t k = 0; k < len / 2; ++k) {
                const Complex u = data[i + k];
                const Complex v = data[i + k + len / 2] * w;
                data[i + k] = u + v;
                data[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }

    if (inverse) {
        const double inv_n = 1.0 / static_cast<double>(n);
        for (auto &x : data)
            x *= inv_n;
    }
}

void
fftRealInto(const std::vector<double> &data, std::vector<Complex> &out)
{
    out.resize(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        out[i] = Complex(data[i], 0.0);
    fft(out, false);
}

std::vector<Complex>
fftReal(const std::vector<double> &data)
{
    std::vector<Complex> c;
    fftRealInto(data, c);
    return c;
}

void
ifftToRealInto(std::vector<Complex> &spectrum, std::vector<double> &out)
{
    fft(spectrum, true);
    out.resize(spectrum.size());
    for (std::size_t i = 0; i < spectrum.size(); ++i)
        out[i] = spectrum[i].real();
}

std::vector<double>
ifftToReal(std::vector<Complex> spectrum)
{
    std::vector<double> out;
    ifftToRealInto(spectrum, out);
    return out;
}

void
fft2d(std::vector<Complex> &data, std::size_t rows, std::size_t cols,
      bool inverse)
{
    SOV_ASSERT(data.size() == rows * cols);
    SOV_ASSERT(isPowerOfTwo(rows) && isPowerOfTwo(cols));

    // Transform rows.
    std::vector<Complex> row(cols);
    for (std::size_t r = 0; r < rows; ++r) {
        std::copy(data.begin() + static_cast<long>(r * cols),
                  data.begin() + static_cast<long>((r + 1) * cols),
                  row.begin());
        fft(row, inverse);
        std::copy(row.begin(), row.end(),
                  data.begin() + static_cast<long>(r * cols));
    }

    // Transform columns.
    std::vector<Complex> col(rows);
    for (std::size_t c = 0; c < cols; ++c) {
        for (std::size_t r = 0; r < rows; ++r)
            col[r] = data[r * cols + c];
        fft(col, inverse);
        for (std::size_t r = 0; r < rows; ++r)
            data[r * cols + c] = col[r];
    }
}

} // namespace sov
