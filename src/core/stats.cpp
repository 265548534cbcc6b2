#include "core/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/logging.h"

namespace sov {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double nt = na + nb;
    mean_ += delta * nb / nt;
    m2_ += other.m2_ + delta * delta * na * nb / nt;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
PercentileBuffer::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

void
PercentileBuffer::merge(const PercentileBuffer &other)
{
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

const std::vector<double> &
PercentileBuffer::sortedSamples()
{
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    return samples_;
}

double
PercentileBuffer::percentile(double p)
{
    SOV_ASSERT(p >= 0.0 && p <= 100.0);
    if (samples_.empty())
        return 0.0;
    sortedSamples();
    if (samples_.size() == 1)
        return samples_.front();
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples_.size())
        return samples_.back();
    return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

namespace {
/** Values below this are indistinguishable from zero in the sketch. */
constexpr double kDigestMinValue = 1e-12;
/** Reserved bucket index for the zero/sub-minimum bucket. */
constexpr std::int32_t kZeroBucket =
    std::numeric_limits<std::int32_t>::min();
} // namespace

QuantileDigest::QuantileDigest(double relative_accuracy)
    : alpha_(relative_accuracy),
      log_gamma_(std::log((1.0 + relative_accuracy) /
                          (1.0 - relative_accuracy)))
{
    SOV_ASSERT(relative_accuracy > 0.0 && relative_accuracy < 1.0);
}

std::int32_t
QuantileDigest::bucketIndex(double x) const
{
    if (!(x >= kDigestMinValue)) // negatives, zeros, NaN -> zero bucket
        return kZeroBucket;
    return static_cast<std::int32_t>(std::ceil(std::log(x) / log_gamma_));
}

double
QuantileDigest::bucketValue(std::int32_t index) const
{
    if (index == kZeroBucket)
        return 0.0;
    // Midpoint of (gamma^(i-1), gamma^i] in relative terms: within
    // alpha of every value that maps to bucket i.
    const double gamma_i = std::exp(static_cast<double>(index) * log_gamma_);
    return 2.0 * gamma_i / (1.0 + std::exp(log_gamma_));
}

void
QuantileDigest::add(double x, std::uint64_t weight)
{
    if (weight == 0)
        return;
    buckets_[bucketIndex(x)] += weight;
    count_ += weight;
}

void
QuantileDigest::merge(const QuantileDigest &other)
{
    SOV_ASSERT(alpha_ == other.alpha_);
    for (const auto &[index, weight] : other.buckets_)
        buckets_[index] += weight;
    count_ += other.count_;
}

double
QuantileDigest::quantile(double q) const
{
    SOV_ASSERT(q >= 0.0 && q <= 1.0);
    if (count_ == 0)
        return 0.0;
    // 1-based rank of the requested quantile.
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (const auto &[index, weight] : buckets_) {
        seen += weight;
        if (seen >= rank)
            return bucketValue(index);
    }
    return bucketValue(buckets_.rbegin()->first); // unreachable
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0)
{
    SOV_ASSERT(bins >= 1);
    SOV_ASSERT(hi > lo);
}

void
Histogram::add(double x, std::uint64_t weight)
{
    double idx = (x - lo_) / width_;
    std::size_t bin;
    if (idx < 0.0) {
        bin = 0;
    } else if (idx >= static_cast<double>(counts_.size())) {
        bin = counts_.size() - 1;
    } else {
        bin = static_cast<std::size_t>(idx);
    }
    counts_[bin] += weight;
    total_ += weight;
}

double
Histogram::binCenter(std::size_t i) const
{
    return lo_ + (static_cast<double>(i) + 0.5) * width_;
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + static_cast<double>(i) * width_;
}

std::string
Histogram::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        os << binLow(i) << ".." << binLow(i) + width_ << ": "
           << counts_[i] << "\n";
    }
    return os.str();
}

} // namespace sov
