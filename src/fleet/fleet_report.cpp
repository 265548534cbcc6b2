#include "fleet/fleet_report.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/hash.h"
#include "core/logging.h"

namespace sov::fleet {

namespace {

void
hashOutcome(std::uint64_t &h, const ScenarioOutcome &o)
{
    fnv1aSizedString(h, o.name);
    fnv1aU64(h, o.index);
    fnv1aU64(h, o.seed);
    fnv1aU64(h, o.collided ? 1 : 0);
    fnv1aU64(h, o.stopped ? 1 : 0);
    fnv1aDouble(h, o.min_gap);
    fnv1aDouble(h, o.distance_travelled);
    fnv1aDouble(h, o.availability);
    fnv1aDouble(h, o.reactive_fraction);
    fnv1aU64(h, o.reactive_triggers);
    fnv1aU64(h, o.deadline_misses);
    fnv1aU64(h, o.frames_dropped);
    fnv1aU64(h, o.pipeline_frames_failed);
    fnv1aU64(h, o.can_frames_lost);
    fnv1aU64(h, o.sensor_dropouts);
    fnv1aU64(h, static_cast<std::uint64_t>(o.worst_level));
    fnv1aU64(h, static_cast<std::uint64_t>(o.final_level));
    fnv1aDouble(h, o.sim_elapsed_s);
    fnv1aDouble(h, o.pipeline_mean_ms);
    fnv1aDouble(h, o.pipeline_p99_ms);
    fnv1aU64(h, o.pipeline_frames);
}

// ---- JSON helpers (no external deps) --------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

bool
byIndex(const ScenarioOutcome &a, const ScenarioOutcome &b)
{
    return a.index < b.index;
}

} // namespace

FleetReport
FleetReport::fromOutcomes(std::vector<ScenarioOutcome> rows)
{
    FleetReport report;
    report.rows_ = std::move(rows);
    std::sort(report.rows_.begin(), report.rows_.end(), byIndex);
    return report;
}

void
FleetReport::merge(const FleetReport &other)
{
    rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
    std::sort(rows_.begin(), rows_.end(), byIndex);
    derived_ = false;
}

void
FleetReport::mergeRow(ScenarioOutcome row)
{
    // Canonical-position insert: the row lands exactly where a
    // full-sort rebuild would put it, so the sortedness invariant
    // survives without re-sorting — deriveAggregates() asserts it.
    const auto it = std::lower_bound(
        rows_.begin(), rows_.end(), row.index,
        [](const ScenarioOutcome &o, std::size_t index) {
            return o.index < index;
        });
    SOV_ASSERT(it == rows_.end() || it->index != row.index);
    rows_.insert(it, std::move(row));
    derived_ = false;
}

const FleetAggregate &
FleetReport::aggregate() const
{
    if (!derived_)
        deriveAggregates();
    return aggregate_;
}

void
FleetReport::deriveAggregates() const
{
    for (std::size_t i = 1; i < rows_.size(); ++i)
        SOV_ASSERT(rows_[i].index > rows_[i - 1].index);

    // Aggregates are re-derived from scratch, folding rows in index
    // order: the result depends only on the row set, never on how the
    // rows were produced or merged.
    aggregate_ = FleetAggregate{};
    FleetAggregate &a = aggregate_;
    for (const ScenarioOutcome &o : rows_) {
        ++a.scenarios;
        if (o.collided)
            ++a.collisions;
        else if (o.stopped)
            ++a.stops;
        else
            ++a.cruises;
        a.deadline_misses += o.deadline_misses;
        a.frames_dropped += o.frames_dropped;
        a.pipeline_frames_failed += o.pipeline_frames_failed;
        a.can_frames_lost += o.can_frames_lost;
        a.sensor_dropouts += o.sensor_dropouts;
        const auto level = static_cast<std::size_t>(o.worst_level);
        SOV_ASSERT(level < 4);
        ++a.worst_level_counts[level];

        a.min_gap.add(o.min_gap);
        a.availability.add(o.availability);
        a.distance.add(o.distance_travelled);
        a.min_gap_digest.add(o.min_gap);
        a.availability_digest.add(o.availability);
        if (o.pipeline_frames > 0) {
            a.pipeline_mean_ms_digest.add(o.pipeline_mean_ms);
            a.pipeline_p99_ms_digest.add(o.pipeline_p99_ms);
        }
    }
    derived_ = true;
}

std::uint64_t
FleetReport::fingerprint() const
{
    std::uint64_t h = kFnv1aTruncatedOffset;
    fnv1aU64(h, rows_.size());
    for (const ScenarioOutcome &o : rows_)
        hashOutcome(h, o);
    return h;
}

std::string
FleetReport::toJson() const
{
    const FleetAggregate &a = aggregate();
    std::ostringstream os;
    os << "{\n  \"scenarios\": " << a.scenarios
       << ",\n  \"collisions\": " << a.collisions
       << ",\n  \"stops\": " << a.stops
       << ",\n  \"cruises\": " << a.cruises
       << ",\n  \"deadline_misses\": " << a.deadline_misses
       << ",\n  \"frames_dropped\": " << a.frames_dropped
       << ",\n  \"pipeline_frames_failed\": " << a.pipeline_frames_failed
       << ",\n  \"can_frames_lost\": " << a.can_frames_lost
       << ",\n  \"sensor_dropouts\": " << a.sensor_dropouts
       << ",\n  \"worst_level_counts\": [" << a.worst_level_counts[0]
       << ", " << a.worst_level_counts[1] << ", "
       << a.worst_level_counts[2] << ", " << a.worst_level_counts[3]
       << "]";
    os << ",\n  \"min_gap\": {\"mean\": " << jsonNumber(a.min_gap.mean())
       << ", \"min\": " << jsonNumber(a.min_gap.min())
       << ", \"p10\": " << jsonNumber(a.min_gap_digest.quantile(0.10))
       << ", \"p50\": " << jsonNumber(a.min_gap_digest.quantile(0.50))
       << "}";
    os << ",\n  \"availability\": {\"mean\": "
       << jsonNumber(a.availability.mean())
       << ", \"p10\": " << jsonNumber(a.availability_digest.quantile(0.10))
       << ", \"p50\": " << jsonNumber(a.availability_digest.quantile(0.50))
       << "}";
    os << ",\n  \"pipeline_latency_ms\": {\"mean_p50\": "
       << jsonNumber(a.pipeline_mean_ms_digest.quantile(0.50))
       << ", \"mean_p99\": "
       << jsonNumber(a.pipeline_mean_ms_digest.quantile(0.99))
       << ", \"frame_p99_p50\": "
       << jsonNumber(a.pipeline_p99_ms_digest.quantile(0.50))
       << ", \"frame_p99_p99\": "
       << jsonNumber(a.pipeline_p99_ms_digest.quantile(0.99)) << "}";
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(fingerprint()));
    os << ",\n  \"fingerprint\": \"" << fp << "\"";
    os << ",\n  \"outcomes\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        const ScenarioOutcome &o = rows_[i];
        os << "    {\"name\": \"" << jsonEscape(o.name) << "\""
           << ", \"index\": " << o.index << ", \"seed\": " << o.seed
           << ", \"collided\": " << (o.collided ? "true" : "false")
           << ", \"stopped\": " << (o.stopped ? "true" : "false")
           << ", \"min_gap\": " << jsonNumber(o.min_gap)
           << ", \"availability\": " << jsonNumber(o.availability)
           << ", \"distance\": " << jsonNumber(o.distance_travelled)
           << ", \"worst_level\": \"" << toString(o.worst_level) << "\""
           << ", \"pipeline_mean_ms\": " << jsonNumber(o.pipeline_mean_ms)
           << ", \"pipeline_p99_ms\": " << jsonNumber(o.pipeline_p99_ms)
           << "}" << (i + 1 < rows_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace sov::fleet
