/**
 * @file
 * Deterministic aggregation of fleet sweep results.
 *
 * A FleetReport is built from per-scenario outcome rows. Aggregates
 * (collision/availability counts, gap/latency percentiles) are never
 * accumulated in completion order: they are *derived* by folding the
 * rows in canonical index order, on the first read after the rows
 * changed. merge() and mergeRow() therefore just union row sets — any
 * sharding of the scenario space, merged in any order, yields a
 * bit-identical report, and streaming n rows costs O(n) inserts, not
 * n full re-derivations. fingerprint() hashes the canonical
 * serialization so benches and tests can assert exactly that.
 *
 * Because the first read after a change writes the derived cache, a
 * report must not be read from two threads at once while rows are
 * pending derivation (the same rule as PreparedBox). sov::serve only
 * merges and copies its streamed reports under its lock; readers
 * derive on their own copies.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/time.h"
#include "health/degradation.h"

namespace sov::fleet {

/** One scenario's result row (the deterministic facts of the run). */
struct ScenarioOutcome
{
    std::string name;
    std::size_t index = 0;
    std::uint64_t seed = 1;

    bool collided = false;
    bool stopped = false;
    double min_gap = 0.0;
    double distance_travelled = 0.0;
    double availability = 0.0;
    double reactive_fraction = 0.0;
    std::uint64_t reactive_triggers = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t pipeline_frames_failed = 0;
    std::uint64_t can_frames_lost = 0;
    std::uint64_t sensor_dropouts = 0;
    health::DegradationLevel worst_level = health::DegradationLevel::Nominal;
    health::DegradationLevel final_level = health::DegradationLevel::Nominal;
    /** Simulated (model) time, not wall time. */
    double sim_elapsed_s = 0.0;
    /** Mean / p99 of the proactive pipeline's per-frame latency (ms);
     *  0 when no frame completed. */
    double pipeline_mean_ms = 0.0;
    double pipeline_p99_ms = 0.0;
    std::uint64_t pipeline_frames = 0;
};

/** Aggregates derived from the outcome rows in index order. */
struct FleetAggregate
{
    std::uint64_t scenarios = 0;
    std::uint64_t collisions = 0;
    std::uint64_t stops = 0;
    std::uint64_t cruises = 0; //!< neither collided nor stopped
    std::uint64_t deadline_misses = 0;
    std::uint64_t frames_dropped = 0;
    std::uint64_t pipeline_frames_failed = 0;
    std::uint64_t can_frames_lost = 0;
    std::uint64_t sensor_dropouts = 0;
    /** Scenario count per worst DegradationLevel (0..3). */
    std::uint64_t worst_level_counts[4] = {0, 0, 0, 0};

    RunningStats min_gap;
    RunningStats availability;
    RunningStats distance;

    /** Mergeable percentile digests over the per-scenario scalars. */
    QuantileDigest min_gap_digest{0.01};
    QuantileDigest availability_digest{0.01};
    QuantileDigest pipeline_mean_ms_digest{0.01};
    QuantileDigest pipeline_p99_ms_digest{0.01};
};

/** The mergeable result of a fleet sweep. */
class FleetReport
{
  public:
    FleetReport() = default;

    /** Build from rows (sorted by index; aggregates derived on
     *  read). */
    static FleetReport fromOutcomes(std::vector<ScenarioOutcome> rows);

    /** Union @p other's rows into this report; order-independent
     *  (see file comment). */
    void merge(const FleetReport &other);

    /**
     * Stream one completed row into the report: the row is inserted
     * at its canonical position (rows stay sorted by index; a
     * duplicate index is a caller bug and asserts). The aggregates are
     * derived on the next read by the same canonical index-order fold
     * as fromOutcomes(). Consequence: streaming rows in ANY completion
     * order yields a report bit-identical to fromOutcomes() over the
     * same row set — this is what lets sov::serve expose partial
     * results shard by shard without forking the determinism
     * contract.
     */
    void mergeRow(ScenarioOutcome row);

    const std::vector<ScenarioOutcome> &outcomes() const { return rows_; }
    /** The aggregates, derived from the rows if they changed since the
     *  last read (see the file comment on threads). */
    const FleetAggregate &aggregate() const;

    /** FNV-1a over the canonical serialization of every row: equal
     *  fingerprints <=> bit-identical reports. */
    std::uint64_t fingerprint() const;

    /** Stable machine-readable dump (aggregate + rows). */
    std::string toJson() const;

  private:
    /** Assert canonical ordering, then fold the aggregates. */
    void deriveAggregates() const;

    std::vector<ScenarioOutcome> rows_; //!< sorted by index
    /** Derived from rows_ when derived_ is set. */
    mutable FleetAggregate aggregate_;
    mutable bool derived_ = false;
};

} // namespace sov::fleet
