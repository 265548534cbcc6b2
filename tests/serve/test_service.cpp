#include <gtest/gtest.h>

#include <vector>

#include "fleet/fleet_runner.h"
#include "serve/service.h"

namespace sov::serve {
namespace {

using fleet::ScenarioMatrix;
using fleet::ScenarioSpec;

std::vector<TenantConfig>
generousTenants(std::size_t n = 1)
{
    std::vector<TenantConfig> tenants;
    for (std::size_t i = 0; i < n; ++i) {
        TenantConfig t;
        t.name = "t" + std::to_string(i);
        t.rate_scenarios_per_s = 1e6;
        t.burst_scenarios = 1e6;
        t.max_queued_scenarios = 1000000;
        tenants.push_back(std::move(t));
    }
    return tenants;
}

ServiceConfig
smallConfig(std::size_t workers, std::size_t tenants = 1)
{
    ServiceConfig config;
    config.workers = workers;
    config.master_seed = 7;
    config.tenants = generousTenants(tenants);
    return config;
}

/** 1 world x 1 fault x 2 stacks x seeds -> 2*seeds short scenarios. */
std::vector<ScenarioSpec>
smallJob(std::size_t seeds = 2, double horizon_s = 2.0)
{
    fleet::WorldPreset wall = fleet::suddenWallWorld(25.0);
    wall.horizon_s = horizon_s;
    ScenarioMatrix m;
    m.addWorld(wall)
        .addFault(fleet::noFaultPreset())
        .addStack(fleet::bareStack())
        .addStack(fleet::supervisedStack())
        .addSeeds(1, seeds);
    return m.enumerate();
}

TEST(ScenarioService, JobRunsToCompletion)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const SubmitResult submitted =
        service.submit(JobRequest{"t0", "smoke", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted) << submitted.reason;

    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
    EXPECT_EQ(done->total, specs.size());
    EXPECT_EQ(done->completed, specs.size());
    EXPECT_EQ(done->revoked, 0u);
    EXPECT_GE(done->ttfr_ms, 0.0);
    EXPECT_NE(done->fingerprint, 0u);
    EXPECT_EQ(done->label, "smoke");
}

TEST(ScenarioService, ReportMatchesDirectFleetRunner)
{
    // The service is a scheduler, not a semantics layer: its report
    // must be bit-identical to a direct FleetRunner batch over the
    // same scenarios and master seed.
    const auto specs = smallJob();
    fleet::FleetRunner direct(fleet::FleetConfig{2, 7});
    std::vector<fleet::ScenarioOutcome> rows;
    for (const ScenarioSpec &spec : specs)
        rows.push_back(direct.runScenario(spec));
    const auto batch = fleet::FleetReport::fromOutcomes(rows);

    ScenarioService service(smallConfig(2));
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    service.wait(submitted.id);
    const auto report = service.report(submitted.id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->fingerprint(), batch.fingerprint());
}

TEST(ScenarioService, FingerprintIndependentOfWorkerCount)
{
    const auto specs = smallJob();
    std::uint64_t first = 0;
    for (const std::size_t workers : {1u, 2u, 8u}) {
        ScenarioService service(smallConfig(workers));
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        const auto done = service.wait(submitted.id);
        ASSERT_TRUE(done.has_value());
        ASSERT_EQ(done->state, JobState::Completed);
        if (first == 0)
            first = done->fingerprint;
        EXPECT_EQ(done->fingerprint, first) << workers << " workers";
    }
}

TEST(ScenarioService, StreamedRowsCoverTheJobExactlyOnce)
{
    ScenarioService service(smallConfig(4));
    const auto specs = smallJob(3);
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);

    // Poll the stream like a client would: fetch from the last seen
    // position until the job is terminal and the stream is drained.
    std::vector<fleet::ScenarioOutcome> seen;
    for (;;) {
        const auto chunk = service.fetchRows(submitted.id, seen.size());
        seen.insert(seen.end(), chunk.begin(), chunk.end());
        const auto s = service.status(submitted.id);
        ASSERT_TRUE(s.has_value());
        if (isTerminal(s->state) && seen.size() == s->completed)
            break;
        service.wait(submitted.id, 0.01);
    }
    ASSERT_EQ(seen.size(), specs.size());
    // Every index exactly once (completion order is arbitrary).
    std::vector<bool> hit(specs.size(), false);
    for (const auto &row : seen) {
        ASSERT_LT(row.index, hit.size());
        EXPECT_FALSE(hit[row.index]);
        hit[row.index] = true;
    }
}

TEST(ScenarioService, SecondIdenticalJobIsAllCacheHits)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const auto cold =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(cold.admitted);
    const auto cold_done = service.wait(cold.id);
    ASSERT_TRUE(cold_done.has_value());
    EXPECT_EQ(cold_done->cache_hits, 0u);

    const auto warm =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(warm.admitted);
    const auto warm_done = service.wait(warm.id);
    ASSERT_TRUE(warm_done.has_value());
    EXPECT_EQ(warm_done->state, JobState::Completed);
    EXPECT_EQ(warm_done->cache_hits, specs.size());
    // The replay is bit-identical: same report fingerprint.
    EXPECT_EQ(warm_done->fingerprint, cold_done->fingerprint);

    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.cache.hits"), specs.size());
    EXPECT_EQ(metrics.counter("serve.cache.misses"), specs.size());
}

TEST(ScenarioService, CacheDisabledMeansNoHits)
{
    ServiceConfig config = smallConfig(2);
    config.cache_capacity = 0;
    ScenarioService service(config);
    const auto specs = smallJob(1);
    for (int round = 0; round < 2; ++round) {
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        const auto done = service.wait(submitted.id);
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->cache_hits, 0u);
    }
}

TEST(ScenarioService, CancelledJobKeepsMergedPrefixConsistent)
{
    ScenarioService service(smallConfig(2));
    // 128 scenarios: enough work that the job is still running when
    // cancel() lands, even when the submitting thread is preempted.
    const auto specs = smallJob(64);
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    EXPECT_TRUE(service.cancel(submitted.id));
    EXPECT_FALSE(service.cancel(submitted.id)); // already terminal

    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Cancelled);
    EXPECT_LE(done->completed, specs.size());

    // The partial report over the rows that DID land must equal a
    // batch build over exactly those rows: cancellation mid-shard
    // leaves the merge state consistent, never half-merged.
    const auto report = service.report(submitted.id);
    ASSERT_TRUE(report.has_value());
    EXPECT_EQ(report->outcomes().size(), done->completed);
    EXPECT_EQ(report->fingerprint(),
              fleet::FleetReport::fromOutcomes(report->outcomes())
                  .fingerprint());
    // Nothing of the job may still be outstanding after the revoke
    // settles (wait for in-flight stale shards to discard themselves).
    const auto final_metrics = service.jobMetrics(submitted.id);
    ASSERT_TRUE(final_metrics.has_value());
}

TEST(ScenarioService, ExpiredDeadlineTimesOutInsteadOfRunning)
{
    ScenarioService service(smallConfig(1));
    const auto specs = smallJob(4);
    // A deadline of zero seconds expires before the first dispatch:
    // the pump must finalize to TimedOut, not run the job anyway.
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, 0.0});
    ASSERT_TRUE(submitted.admitted);
    const auto done = service.wait(submitted.id, 5.0);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::TimedOut);
    EXPECT_EQ(done->completed, 0u);
    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.jobs_timed_out"), 1u);
}

TEST(ScenarioService, RejectsUnknownTenantAndEmptyJob)
{
    ScenarioService service(smallConfig(1));
    const auto ghost =
        service.submit(JobRequest{"ghost", "", smallJob(1), std::nullopt});
    EXPECT_FALSE(ghost.admitted);
    EXPECT_EQ(ghost.reason, kRejectUnknownTenant);

    const auto empty =
        service.submit(JobRequest{"t0", "", {}, std::nullopt});
    EXPECT_FALSE(empty.admitted);
    EXPECT_EQ(empty.reason, kRejectEmptyJob);

    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.jobs_rejected"), 2u);
    EXPECT_EQ(metrics.counter("serve.jobs_admitted"), 0u);
}

TEST(ScenarioService, OverRateTenantIsRejectedAtTheDoor)
{
    ServiceConfig config = smallConfig(1);
    config.tenants[0].rate_scenarios_per_s = 0.001; // ~no refill
    config.tenants[0].burst_scenarios = 4.0;
    ScenarioService service(config);

    const auto specs = smallJob(1); // 2 scenarios
    const auto first =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(first.admitted);
    const auto second =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(second.admitted); // burst covers 4
    const auto third =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    EXPECT_FALSE(third.admitted);
    EXPECT_EQ(third.reason, kRejectOverRate);
    service.wait(first.id);
    service.wait(second.id);
}

TEST(ScenarioService, UnknownJobIdsAreNullopt)
{
    ScenarioService service(smallConfig(1));
    EXPECT_FALSE(service.status(99).has_value());
    EXPECT_FALSE(service.wait(99, 0.1).has_value());
    EXPECT_FALSE(service.report(99).has_value());
    EXPECT_FALSE(service.jobMetrics(99).has_value());
    EXPECT_FALSE(service.cancel(99));
    EXPECT_TRUE(service.fetchRows(99, 0).empty());
}

TEST(ScenarioService, WaitWithZeroTimeoutReturnsLiveSnapshot)
{
    ScenarioService service(smallConfig(1));
    const auto specs = smallJob(2);
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    const auto peek = service.wait(submitted.id, 0.0);
    ASSERT_TRUE(peek.has_value()); // may or may not be terminal yet
    EXPECT_EQ(peek->id, submitted.id);
    const auto done = service.wait(submitted.id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->state, JobState::Completed);
}

TEST(ScenarioService, DestructorCancelsLiveJobsCleanly)
{
    const auto specs = smallJob(4);
    {
        ScenarioService service(smallConfig(2));
        const auto submitted =
            service.submit(JobRequest{"t0", "", specs, std::nullopt});
        ASSERT_TRUE(submitted.admitted);
        // Tear down with the job mid-flight: the destructor must
        // revoke, drain and join without hanging or crashing.
    }
    SUCCEED();
}

TEST(ScenarioService, JobMetricsMergeStreamedShards)
{
    ScenarioService service(smallConfig(2));
    const auto specs = smallJob();
    const auto submitted =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    ASSERT_TRUE(submitted.admitted);
    service.wait(submitted.id);
    const auto metrics = service.jobMetrics(submitted.id);
    ASSERT_TRUE(metrics.has_value());
    EXPECT_FALSE(metrics->empty());
    EXPECT_NE(metrics->fingerprint(), 0u);
}

TEST(ScenarioService, PerTenantCountersTrackCompletions)
{
    ScenarioService service(smallConfig(2, /*tenants=*/2));
    const auto specs = smallJob(1); // 2 scenarios
    const auto a =
        service.submit(JobRequest{"t0", "", specs, std::nullopt});
    const auto b =
        service.submit(JobRequest{"t1", "", specs, std::nullopt});
    ASSERT_TRUE(a.admitted);
    ASSERT_TRUE(b.admitted);
    service.wait(a.id);
    service.wait(b.id);
    const auto metrics = service.metricsSnapshot();
    EXPECT_EQ(metrics.counter("serve.tenant.t0.completed"),
              specs.size());
    EXPECT_EQ(metrics.counter("serve.tenant.t1.completed"),
              specs.size());
    EXPECT_EQ(metrics.counter("serve.jobs_completed"), 2u);
    EXPECT_EQ(metrics.counter("serve.scenarios_completed"),
              2 * specs.size());
}

} // namespace
} // namespace sov::serve
