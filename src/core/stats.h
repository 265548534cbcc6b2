/**
 * @file
 * Streaming statistics, percentile buffers, and histograms used by the
 * latency/energy characterization benches (Figs. 3, 4a, 10).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sov {

/** Welford streaming mean/variance plus min/max. */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Stores every sample to answer arbitrary percentile queries.
 * Used for the best/mean/p99 latency characterization of Fig. 10a.
 */
class PercentileBuffer
{
  public:
    void add(double x) { samples_.push_back(x); sorted_ = false; }
    /** Append @p other's samples (their order is not kept). */
    void merge(const PercentileBuffer &other);
    std::size_t count() const { return samples_.size(); }
    double mean() const;
    double min() { return percentile(0.0); }
    double max() { return percentile(100.0); }

    /**
     * Linear-interpolated percentile.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p);

    /** Samples in their current order (insertion order until the
     *  first percentile query sorts them). */
    const std::vector<double> &samples() const { return samples_; }
    /** Samples ascending; sorts on demand. */
    const std::vector<double> &sortedSamples();

  private:
    std::vector<double> samples_;
    bool sorted_ = false;
};

/**
 * Mergeable quantile sketch over non-negative samples (DDSketch-style
 * logarithmic buckets with relative-accuracy guarantee).
 *
 * Samples land in geometric buckets index = ceil(log_gamma(x)) with
 * gamma = (1+a)/(1-a); any reported quantile is within relative error
 * a of a true sample value. State is integer bucket counts, so
 * merge() is pure count addition: commutative, associative, and
 * bit-identical regardless of merge order or sharding — the property
 * the fleet layer relies on to aggregate thousands of scenario
 * digests from any number of worker threads deterministically.
 *
 * Negative samples are clamped into the zero bucket (the fleet feeds
 * latencies, gaps, and fractions, all non-negative).
 */
class QuantileDigest
{
  public:
    /** @param relative_accuracy Quantile relative error bound in (0,1). */
    explicit QuantileDigest(double relative_accuracy = 0.01);

    /** Add @p weight samples of value @p x. */
    void add(double x, std::uint64_t weight = 1);

    /**
     * Fold @p other into this digest (order-independent).
     * Both digests must use the same relative accuracy.
     */
    void merge(const QuantileDigest &other);

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    /**
     * Value at quantile @p q in [0, 1] (0.5 = median, 0.99 = p99),
     * within the configured relative accuracy; 0 for an empty digest.
     */
    double quantile(double q) const;

    double relativeAccuracy() const { return alpha_; }

    /** Non-empty buckets, ascending by index (zero bucket = INT32_MIN). */
    const std::map<std::int32_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

  private:
    std::int32_t bucketIndex(double x) const;
    double bucketValue(std::int32_t index) const;

    double alpha_;
    double log_gamma_;
    std::map<std::int32_t, std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
};

/** Fixed-width linear-bin histogram over [lo, hi). */
class Histogram
{
  public:
    /**
     * @param lo Inclusive lower edge of the first bin.
     * @param hi Exclusive upper edge of the last bin.
     * @param bins Number of equal-width bins; must be >= 1.
     */
    Histogram(double lo, double hi, std::size_t bins);

    /** Add a sample; out-of-range samples land in the edge bins. */
    void add(double x, std::uint64_t weight = 1);

    std::size_t numBins() const { return counts_.size(); }
    std::uint64_t binCount(std::size_t i) const { return counts_.at(i); }
    /** Center of bin i. */
    double binCenter(std::size_t i) const;
    /** Lower edge of bin i. */
    double binLow(std::size_t i) const;
    std::uint64_t totalCount() const { return total_; }

    /** Render as "low..high: count" lines for bench output. */
    std::string toString() const;

  private:
    double lo_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

} // namespace sov
