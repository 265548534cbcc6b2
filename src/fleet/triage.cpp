#include "fleet/triage.h"

#include <algorithm>

#include "core/hash.h"
#include "core/logging.h"

namespace sov::fleet {

namespace {

bool
isNearMiss(const TriageRow &r, double near_miss_gap, double near_miss_ttc)
{
    return !r.collided
        && (r.min_gap <= near_miss_gap || r.min_ttc <= near_miss_ttc);
}

} // namespace

void
TriageReport::addRow(TriageRow row)
{
    const auto it = std::lower_bound(
        rows_.begin(), rows_.end(), row.index,
        [](const TriageRow &r, std::size_t index) {
            return r.index < index;
        });
    SOV_ASSERT(it == rows_.end() || it->index != row.index);
    rows_.insert(it, std::move(row));
}

TriageSummary
TriageReport::summarize(double near_miss_gap, double near_miss_ttc) const
{
    TriageSummary s;
    for (const TriageRow &r : rows_) {
        ++s.scenarios;
        if (r.collided)
            ++s.collisions;
        else if (isNearMiss(r, near_miss_gap, near_miss_ttc))
            ++s.near_misses;
        s.min_gap_digest.add(r.min_gap);
        if (r.min_ttc < 1e17)
            s.min_ttc_digest.add(r.min_ttc);
    }
    return s;
}

std::vector<TriageRow>
TriageReport::incidents(double near_miss_gap, double near_miss_ttc) const
{
    std::vector<TriageRow> out;
    for (const TriageRow &r : rows_) {
        if (r.collided || isNearMiss(r, near_miss_gap, near_miss_ttc))
            out.push_back(r);
    }
    std::sort(out.begin(), out.end(),
              [](const TriageRow &a, const TriageRow &b) {
                  if (a.collided != b.collided)
                      return a.collided;
                  if (a.min_ttc != b.min_ttc)
                      return a.min_ttc < b.min_ttc;
                  if (a.min_gap != b.min_gap)
                      return a.min_gap < b.min_gap;
                  return a.index < b.index;
              });
    return out;
}

std::uint64_t
TriageReport::fingerprint() const
{
    std::uint64_t h = kFnv1aTruncatedOffset;
    fnv1aU64(h, rows_.size());
    for (const TriageRow &r : rows_) {
        fnv1aSizedString(h, r.scenario);
        fnv1aU64(h, r.index);
        fnv1aU64(h, r.fuzz_seed);
        fnv1aU64(h, r.collided ? 1 : 0);
        fnv1aDouble(h, r.min_gap);
        fnv1aDouble(h, r.min_ttc);
        fnv1aU64(h, r.offender);
    }
    return h;
}

} // namespace sov::fleet
