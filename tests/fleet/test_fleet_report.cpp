#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"
#include "fleet/fleet_runner.h"

namespace sov::fleet {
namespace {

/** Six real scenario rows (short horizon) to stream into reports. */
std::vector<ScenarioOutcome>
sampleRows()
{
    WorldPreset wall = suddenWallWorld(25.0);
    wall.horizon_s = 3.0;
    WorldPreset open = openRoadWorld();
    open.horizon_s = 3.0;

    ScenarioMatrix m;
    m.addWorld(wall)
        .addWorld(open)
        .addFault(noFaultPreset())
        .addStack(bareStack())
        .addStack(supervisedStack())
        .addSeeds(1, /*count=*/1);
    m.addSeeds(2, 1);
    // 2 worlds x 1 fault x 2 stacks (x seeds) — small but mixed.
    FleetRunner runner(FleetConfig{2, 11});
    return runner.run(m).outcomes();
}

TEST(FleetReportStream, MergeRowInAnyOrderMatchesBatch)
{
    const std::vector<ScenarioOutcome> rows = sampleRows();
    ASSERT_GE(rows.size(), 4u);
    const FleetReport batch = FleetReport::fromOutcomes(rows);

    // Forward, reverse, and an interleaved completion order must all
    // land bit-identical to the batch build — the streamed-serving
    // determinism contract.
    std::vector<std::vector<std::size_t>> orders;
    std::vector<std::size_t> forward(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        forward[i] = i;
    orders.push_back(forward);
    std::vector<std::size_t> reverse(forward.rbegin(), forward.rend());
    orders.push_back(reverse);
    std::vector<std::size_t> interleaved;
    for (std::size_t i = 0; i < rows.size(); i += 2)
        interleaved.push_back(i);
    for (std::size_t i = 1; i < rows.size(); i += 2)
        interleaved.push_back(i);
    orders.push_back(interleaved);

    for (const auto &order : orders) {
        FleetReport streamed;
        for (std::size_t i : order)
            streamed.mergeRow(rows[i]);
        EXPECT_EQ(streamed.fingerprint(), batch.fingerprint());
        EXPECT_EQ(streamed.toJson(), batch.toJson());
    }
}

TEST(FleetReportStream, MergeRowKeepsRowsInCanonicalIndexOrder)
{
    const std::vector<ScenarioOutcome> rows = sampleRows();
    FleetReport streamed;
    for (auto it = rows.rbegin(); it != rows.rend(); ++it)
        streamed.mergeRow(*it); // worst-case completion order
    const auto &out = streamed.outcomes();
    ASSERT_EQ(out.size(), rows.size());
    for (std::size_t i = 1; i < out.size(); ++i)
        EXPECT_LT(out[i - 1].index, out[i].index);
}

TEST(FleetReportStream, PartialStreamEqualsBatchOverSameRows)
{
    const std::vector<ScenarioOutcome> rows = sampleRows();
    FleetReport streamed;
    for (std::size_t n = 0; n < rows.size(); ++n) {
        streamed.mergeRow(rows[n]);
        // After each row the aggregates equal a batch build over the
        // prefix — partial results are first-class reports.
        std::vector<ScenarioOutcome> prefix(rows.begin(),
                                            rows.begin() + n + 1);
        const FleetReport batch = FleetReport::fromOutcomes(prefix);
        EXPECT_EQ(streamed.fingerprint(), batch.fingerprint());
        EXPECT_EQ(streamed.aggregate().scenarios, n + 1);
    }
}

TEST(FleetReportStream, MergeRowThenMergeUnionStaysCanonical)
{
    const std::vector<ScenarioOutcome> rows = sampleRows();
    ASSERT_GE(rows.size(), 4u);
    const std::size_t half = rows.size() / 2;

    FleetReport left;
    for (std::size_t i = 0; i < half; ++i)
        left.mergeRow(rows[i]);
    FleetReport right;
    for (std::size_t i = rows.size(); i-- > half;)
        right.mergeRow(rows[i]);

    left.merge(right); // streamed halves union like batch shards
    EXPECT_EQ(left.fingerprint(),
              FleetReport::fromOutcomes(rows).fingerprint());
}

TEST(FleetReportStream, ShuffledStreamOf1600RowsMatchesBatch)
{
    // Synthetic rows covering every aggregate input, streamed in a
    // shuffled completion order with reads in between: the aggregates
    // derived on read must come out as the batch build's, byte for
    // byte, however many rows arrived since the last read.
    Rng rng(5);
    std::vector<ScenarioOutcome> rows(1600);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        ScenarioOutcome &o = rows[i];
        o.name = "row-" + std::to_string(i);
        o.index = i;
        o.seed = i + 1;
        o.collided = rng.bernoulli(0.1);
        o.stopped = rng.bernoulli(0.2);
        o.min_gap = rng.uniform(0.0, 30.0);
        o.distance_travelled = rng.uniform(0.0, 200.0);
        o.availability = rng.uniform(0.5, 1.0);
        o.deadline_misses = static_cast<std::uint64_t>(rng.uniformInt(0, 5));
        o.frames_dropped = static_cast<std::uint64_t>(rng.uniformInt(0, 5));
        o.sensor_dropouts = static_cast<std::uint64_t>(rng.uniformInt(0, 3));
        o.worst_level =
            static_cast<health::DegradationLevel>(rng.uniformInt(0, 3));
        o.pipeline_frames = static_cast<std::uint64_t>(rng.uniformInt(0, 3));
        o.pipeline_mean_ms = rng.uniform(100.0, 300.0);
        o.pipeline_p99_ms = rng.uniform(300.0, 900.0);
    }
    const FleetReport batch = FleetReport::fromOutcomes(rows);

    std::vector<ScenarioOutcome> shuffled = rows;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
        std::swap(shuffled[i - 1], shuffled[j]);
    }
    FleetReport streamed;
    for (std::size_t k = 0; k < shuffled.size(); ++k) {
        streamed.mergeRow(shuffled[k]);
        if (k % 397 == 0) {
            EXPECT_EQ(streamed.aggregate().scenarios, k + 1);
        }
    }
    EXPECT_EQ(streamed.fingerprint(), batch.fingerprint());
    EXPECT_EQ(streamed.toJson(), batch.toJson());
    EXPECT_EQ(streamed.aggregate().min_gap_digest.quantile(0.1),
              batch.aggregate().min_gap_digest.quantile(0.1));
}

} // namespace
} // namespace sov::fleet
