/**
 * @file
 * Named metrics: the aggregate half of the observability spine.
 *
 * A MetricRegistry holds three metric families keyed by name:
 *
 *   counters   — monotonically increasing u64 (merge = sum)
 *   gauges     — last-known level (merge = max, documented below)
 *   histograms — latency/value distributions kept as their exact
 *                samples (a PercentileBuffer), so mean and interpolated
 *                percentiles are exact (the Fig. 10 best/mean/p99
 *                numbers must not move when a bench migrates onto the
 *                registry); merge concatenates samples
 *
 * This replaces the pre-spine sim/LatencyTracer: record(name, Duration)
 * stores milliseconds exactly as the tracer did, and mean/min/max/
 * percentile/stddev reproduce its arithmetic sample for sample.
 *
 * Merge semantics (the fleet determinism contract): merging per-shard
 * registries IN CANONICAL ORDER (scenario index order, not completion
 * order) makes the merged registry — and fingerprint() — a pure
 * function of the shard contents, independent of thread count.
 * fingerprint() itself only hashes merge-order-independent state
 * (counters, gauges, sorted samples, and the QuantileDigest buckets it
 * derives from those samples so committed fingerprints hold), so even
 * differently-grouped merges of the same samples fingerprint
 * identically.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/time.h"

namespace sov::obs {

/** Named counters, gauges and histograms; copyable and mergeable. */
class MetricRegistry
{
  public:
    // Counters.
    /** Add @p delta to counter @p name (creating it at zero). */
    void incr(const std::string &name, std::uint64_t delta = 1);
    /** Current value; 0 for a counter never incremented. */
    std::uint64_t counter(const std::string &name) const;
    std::vector<std::string> counterNames() const;

    // Gauges.
    void setGauge(const std::string &name, double value);
    /** Last set value; 0 for a gauge never set. */
    double gauge(const std::string &name) const;
    std::vector<std::string> gaugeNames() const;

    // Histograms.
    /** Record one latency sample in milliseconds of model time. */
    void record(const std::string &name, Duration latency);
    /** Record an end-to-end sample (histogram "total"). */
    void recordTotal(Duration latency) { record("total", latency); }
    /** Record a raw value (units are the caller's). */
    void recordValue(const std::string &name, double value);

    /** Distinct histogram names seen so far, sorted. */
    std::vector<std::string> histogramNames() const;
    /** Samples recorded for @p name; 0 if absent. */
    std::size_t count(const std::string &name) const;
    double mean(const std::string &name) const;
    double min(const std::string &name) const;
    double max(const std::string &name) const;
    /** Exact linear-interpolated percentile, @p p in [0, 100]. */
    double percentile(const std::string &name, double p) const;
    double stddev(const std::string &name) const;

    /**
     * Fold @p other into this registry: counters add, gauges keep the
     * max (a deterministic, order-independent "high-water" reading),
     * histograms concatenate samples. Call in
     * canonical shard order for a deterministic merged registry.
     */
    void merge(const MetricRegistry &other);

    /** FNV-1a over canonical, merge-order-independent content. */
    std::uint64_t fingerprint() const;

    /** Multi-line "name: best/mean/p99" table for bench output. */
    std::string summary() const;

    /** Stable-ordered JSON object {counters, gauges, histograms}. */
    void toJson(std::ostream &os) const;

    bool empty() const;
    void clear();

  private:
    PercentileBuffer *findHist(const std::string &name) const;

    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    // mutable: percentile queries sort the sample buffers lazily.
    mutable std::map<std::string, PercentileBuffer> hists_;
};

} // namespace sov::obs
