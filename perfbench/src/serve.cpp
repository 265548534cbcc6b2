/**
 * @file
 * The serve workload: an open loop. One generator thread sends
 * protocol lines through SocketServer::handleLine (the protocol engine
 * without a socket) to an in-process ScenarioService with nproc - 1
 * workers, at a few fixed absolute offered rates (Poisson due times).
 * Four tenants of unequal weight and job size submit scenario sets;
 * a fixed share of submissions repeats an earlier line exactly, so the
 * result cache answers them. Every latency is timed from its due time.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <thread>

#include "core/rng.h"
#include "fleet/fleet_runner.h"
#include "fleet/fuzzer.h"
#include "perfbench.h"
#include "serve/catalog.h"
#include "serve/service.h"
#include "serve/socket_server.h"

using namespace sov;
using namespace sov::serve;

namespace perfbench {

namespace {

/** A tenant of the generated traffic. */
struct TenantSpec
{
    const char *name;
    std::uint32_t weight;
    std::size_t min_job; //!< scenarios per job
    std::size_t max_job;
};

constexpr TenantSpec kTenants[] = {
    {"t0", 1, 1, 4},
    {"t1", 2, 2, 8},
    {"t2", 3, 4, 12},
    {"t3", 4, 8, 16},
};

// The fixed open-loop load: absolute numbers, never derived from a
// per-run calibration. Every run prints them.
constexpr double kRates[] = {50.0, 100.0, 150.0, 200.0, 400.0}; //!< jobs/s
constexpr double kReferenceRate = 100.0; //!< rate the latency figures use
constexpr double kTtfrLimitMs = 100.0;
constexpr double kTtfrLimitPercentile = 90.0;
constexpr double kFailedFracLimit = 0.0;
constexpr double kBacklogGrowthLimitShards = 64.0;
constexpr double kRepeatShare = 0.25;  //!< submissions repeating a line
constexpr double kMaxGenLagMs = 5.0;   //!< bound on the generator lag p90
constexpr double kHorizonS = 3.0;      //!< cold-job scenario horizon

constexpr double kStaticShare = 0.15;   //!< cold jobs on preset sets
constexpr std::size_t kRepeatWindow = 64; //!< recent lines a repeat draws from
constexpr double kReferenceShare = 0.4; //!< of the window, at the reference rate
constexpr double kDrainTimeoutS = 60.0;
constexpr double kBacklogSampleS = 0.01;
constexpr double kSaturationBinS = 0.25;
constexpr double kPollMinMs = 1.0;   //!< STATUS interval per job, bounds
constexpr double kPollMaxMs = 100.0;
constexpr double kPollBackoff = 0.2; //!< interval as a share of job age
constexpr double kSpinMs = 0.1;      //!< sleep overshoot margin
/** Window of the serve probe: at the reference rate, long enough that
 *  the spanned half of its jobs gives each verb's p90 ten samples
 *  beyond it. */
constexpr double kProbeSeconds = 3.0;

/** One scheduled submission. */
struct Submission
{
    double due_s = 0.0;   //!< seconds after the rate window opens
    std::string line;
    std::size_t distinct = 0; //!< index into the distinct-line table
};

/** The pre-generated schedule of one fixed offered rate. */
struct RateSchedule
{
    double rate = 0.0;
    std::vector<Submission> subs;
};

/** The whole open-loop schedule plus its distinct lines. */
struct Schedule
{
    std::vector<RateSchedule> points;
    std::vector<std::string> distinct_sets;     //!< catalog set name
    std::vector<CatalogParams> distinct_params; //!< its parameters
};

std::string
formatLine(const std::string &tenant, const std::string &set,
           const CatalogParams &p)
{
    std::ostringstream out;
    out << "SUBMIT " << tenant << ' ' << set << " seed=" << p.seed
        << " seeds=" << p.seeds << " horizon_s=" << p.horizon_s;
    return out.str();
}

/** A cold job of @p size scenarios: mostly short-horizon fuzzed agent
 *  worlds, sometimes a static preset set. Seeds never overlap, so a
 *  cold job never hits the cache. */
std::pair<std::string, CatalogParams>
coldJob(Rng &rng, std::size_t size, std::uint64_t unique_seed)
{
    CatalogParams p;
    p.seed = unique_seed;
    p.horizon_s = kHorizonS;
    if (!rng.bernoulli(kStaticShare)) {
        p.seeds = size;
        return {"scenario_fuzz", p};
    }
    // Preset sets: (name, scenarios per seed).
    static const std::pair<const char *, std::size_t> kSets[] = {
        {"sudden_wall", 6}, {"crossing", 2}, {"traffic", 2}, {"open_road", 1}};
    const auto &[set, per_seed] =
        kSets[rng.uniformInt(0, std::size(kSets) - 1)];
    p.seeds = std::max<std::size_t>(1, size / per_seed);
    return {set, p};
}

Schedule
makeSchedule(std::uint64_t seed, double seconds,
             const std::vector<double> &rates)
{
    Schedule sched;
    Rng rng = Rng(seed).fork("serve-schedule");
    std::vector<std::vector<std::pair<std::string, std::size_t>>> history(
        std::size(kTenants));
    std::uint64_t next_seed = seed * 1000003ull;
    // The reference rate, whose latencies are reported, gets a larger
    // share of the window; the other rates split the rest.
    const std::size_t others = rates.size() - 1;
    const double ref_share = others ? kReferenceShare : 1.0;
    for (double rate : rates) {
        RateSchedule rs;
        rs.rate = rate;
        const double per_point = seconds *
            (rate == kReferenceRate
                 ? ref_share
                 : (1.0 - ref_share) / static_cast<double>(others));
        double t = rng.exponential(rate);
        while (t < per_point) {
            const auto ti = static_cast<std::size_t>(
                rng.uniformInt(0, std::size(kTenants) - 1));
            const TenantSpec &tenant = kTenants[ti];
            auto &hist = history[ti];
            Submission s;
            s.due_s = t;
            if (!hist.empty() && rng.bernoulli(kRepeatShare)) {
                const std::size_t window =
                    std::min(hist.size(), kRepeatWindow);
                const auto pick = hist.size() - 1 -
                    static_cast<std::size_t>(rng.uniformInt(0, window - 1));
                s.line = hist[pick].first;
                s.distinct = hist[pick].second;
            } else {
                const auto size = static_cast<std::size_t>(rng.uniformInt(
                    tenant.min_job, tenant.max_job));
                auto [set, params] = coldJob(rng, size, next_seed);
                next_seed += 64; // disjoint seed ranges per job
                s.line = formatLine(tenant.name, set, params);
                s.distinct = sched.distinct_sets.size();
                sched.distinct_sets.push_back(set);
                sched.distinct_params.push_back(params);
                hist.emplace_back(s.line, s.distinct);
            }
            rs.subs.push_back(std::move(s));
            t += rng.exponential(rate);
        }
        sched.points.push_back(std::move(rs));
    }
    return sched;
}

std::size_t
serviceWorkers()
{
    return std::max<std::size_t>(1, hostThreads() - 1);
}

ServiceConfig
serviceConfig(std::uint64_t seed)
{
    ServiceConfig cfg;
    cfg.workers = serviceWorkers();
    cfg.master_seed = seed;
    cfg.cache_capacity = 1u << 16;
    for (const TenantSpec &t : kTenants) {
        TenantConfig tc;
        tc.name = t.name;
        // Admission is provisioned out of the way: this workload
        // measures scheduling and simulation, and any reject fails.
        tc.rate_scenarios_per_s = 1e9;
        tc.burst_scenarios = 1e9;
        tc.max_queued_scenarios = 100000000;
        tc.weight = t.weight;
        cfg.tenants.push_back(tc);
    }
    return cfg;
}

/** Value of "key=" in a protocol response line ("" when absent). */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string needle = " " + key + "=";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return {};
    const std::size_t from = at + needle.size();
    return line.substr(from, line.find(' ', from) - from);
}

/** One submitted job as the generator sees it. */
struct JobRecord
{
    std::size_t distinct = 0;
    double due_ms = 0.0;       //!< relative to the run epoch
    double admitted_ms = 0.0;  //!< handleLine return, same epoch
    JobId id = 0;
    bool traced = false;       //!< its protocol lines were spanned
    bool rejected = false;
    bool terminal = false;
    bool completed = false;
    std::size_t total = 0;
    std::size_t cache_hits = 0;
    double ttfr_ms = -1.0;
    double wall_ms = 0.0;
    std::uint64_t fingerprint = 0;
    std::size_t rows = 0;      //!< rows streamed by ROWS
    double next_poll_ms = 0.0;
};

/** What one fixed offered rate produced. */
struct RateResult
{
    double rate = 0.0;
    std::vector<JobRecord> jobs;
    std::vector<double> gen_lag_ms;
    std::vector<BacklogSample> backlog;
    std::vector<double> simulated; //!< cache misses, read with backlog
    double queued_max = 0.0;
    double scenarios_completed = 0.0; //!< rows merged during the window
    double scenarios_simulated = 0.0; //!< cache misses during the window
    double window_s = 0.0;
    bool drained = true;
};

/**
 * The generator: sends the schedule and polls every job to its end.
 * With an enabled recorder it spans the lines of every other job, so
 * traced and untraced jobs share one window and their latency
 * difference is the tracing overhead, not the host's drift between
 * two windows.
 */
class Generator
{
  public:
    Generator(SocketServer &server, ScenarioService &service,
              SpanRecorder &rec)
        : server_(server), service_(service), rec_(rec),
          n_submit_(rec.intern("serve.submit")),
          n_status_(rec.intern("serve.status")),
          n_rows_(rec.intern("serve.rows")), epoch_(Clock::now())
    {
    }

    RateResult
    run(const RateSchedule &rs)
    {
        RateResult res;
        res.rate = rs.rate;
        res.jobs.reserve(rs.subs.size());
        jobs_ = &res.jobs;
        const double open_ms = nowMs();
        const obs::MetricRegistry m0 = service_.metricsSnapshot();
        double next_sample_ms = open_ms;
        outstanding_.clear();
        for (const Submission &sub : rs.subs) {
            const double due_ms = open_ms + sub.due_s * 1e3;
            // Until the due time: sample the backlog, poll jobs, and
            // otherwise sleep to the next of those events, so the
            // generator leaves the workers' CPUs alone.
            for (;;) {
                const double now = nowMs();
                if (now >= next_sample_ms) {
                    sampleBacklog(res, now - open_ms);
                    next_sample_ms = now + kBacklogSampleS * 1e3;
                }
                if (now >= due_ms)
                    break;
                if (due_ms - now > kSpinMs && pollOne(res))
                    continue;
                const double wake =
                    std::min({due_ms, next_sample_ms, nextPollMs()});
                if (wake - now > kSpinMs)
                    std::this_thread::sleep_for(
                        std::chrono::duration<double, std::milli>(
                            wake - now - kSpinMs));
            }
            const double send_ms = nowMs();
            res.gen_lag_ms.push_back(send_ms - due_ms);
            JobRecord job;
            job.distinct = sub.distinct;
            job.due_ms = due_ms;
            job.traced = rec_.enabled() && res.jobs.size() % 2 == 1;
            out_.clear();
            {
                SpanScope s(recorderOf(job), n_submit_, res.jobs.size() + 1);
                server_.handleLine(sub.line, out_);
            }
            job.admitted_ms = nowMs();
            job.next_poll_ms = job.admitted_ms;
            const std::string &reply = out_.empty() ? empty_ : out_.front();
            if (reply.rfind("OK ", 0) == 0) {
                job.id = std::stoull(field(reply, "job"));
            } else {
                job.rejected = true;
                job.terminal = true;
            }
            if (!job.terminal)
                outstanding_.push_back(res.jobs.size());
            res.jobs.push_back(job);
        }
        const double close_ms = nowMs();
        res.window_s = (close_ms - open_ms) / 1e3;
        const obs::MetricRegistry m1 = service_.metricsSnapshot();
        res.scenarios_completed = counterDelta(m0, m1,
                                               "serve.scenarios_completed");
        res.scenarios_simulated = counterDelta(m0, m1, "serve.cache.misses");
        sampleBacklog(res, close_ms - open_ms);

        // Drain: poll until every job of this rate is terminal.
        while (!outstanding_.empty()) {
            if (nowMs() - close_ms > kDrainTimeoutS * 1e3) {
                res.drained = false;
                break;
            }
            if (!pollOne(res))
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(
                        std::max(0.05, nextPollMs() - nowMs())));
        }
        return res;
    }

  private:
    double nowMs() const { return msBetween(epoch_, Clock::now()); }

    SpanRecorder &
    recorderOf(const JobRecord &job)
    {
        return job.traced ? rec_ : quiet_;
    }

    static double
    counterDelta(const obs::MetricRegistry &a, const obs::MetricRegistry &b,
                 const std::string &name)
    {
        return static_cast<double>(b.counter(name) - a.counter(name));
    }

    void
    sampleBacklog(RateResult &res, double t_ms)
    {
        const obs::MetricRegistry m = service_.metricsSnapshot();
        const double queued = m.gauge("serve.queued_shards");
        res.backlog.push_back({t_ms / 1e3, queued});
        res.simulated.push_back(
            static_cast<double>(m.counter("serve.cache.misses")));
        res.queued_max = std::max(res.queued_max, queued);
    }

    /** Earliest time an outstanding job is due its next STATUS. */
    double
    nextPollMs() const
    {
        double t = std::numeric_limits<double>::infinity();
        for (std::size_t i : outstanding_)
            t = std::min(t, jobs_->at(i).next_poll_ms);
        return t;
    }

    /** STATUS the next outstanding job due a poll (round robin); ROWS
     *  once it is terminal. False when no job needed a poll. */
    bool
    pollOne(RateResult &res)
    {
        const double now = nowMs();
        for (std::size_t k = 0; k < outstanding_.size(); ++k) {
            cursor_ = (cursor_ + 1) % outstanding_.size();
            JobRecord &job = res.jobs[outstanding_[cursor_]];
            if (now < job.next_poll_ms)
                continue;
            status(job);
            // Back off with the job's age: a client polls a long job
            // less often, and polling never contends with the merge
            // more than a real client would. Latencies come from the
            // service's own timestamps, so this biases none of them.
            const double t = nowMs();
            job.next_poll_ms =
                t + std::clamp(kPollBackoff * (t - job.admitted_ms),
                               kPollMinMs, kPollMaxMs);
            if (job.terminal) {
                outstanding_[cursor_] = outstanding_.back();
                outstanding_.pop_back();
            }
            return true;
        }
        return false;
    }

    void
    status(JobRecord &job)
    {
        const std::string id = std::to_string(job.id);
        out_.clear();
        {
            SpanScope s(recorderOf(job), n_status_, job.id);
            server_.handleLine("STATUS " + id, out_);
        }
        const std::string &reply = out_.empty() ? empty_ : out_.front();
        const std::string state = field(reply, "state");
        if (state == "queued" || state == "running")
            return;
        job.terminal = true;
        job.completed = state == "completed";
        job.total = std::stoull(field(reply, "total"));
        job.cache_hits = std::stoull(field(reply, "cache_hits"));
        job.ttfr_ms = std::stod(field(reply, "ttfr_ms"));
        job.wall_ms = std::stod(field(reply, "wall_ms"));
        job.fingerprint = std::stoull(field(reply, "fingerprint"), nullptr, 16);
        out_.clear();
        {
            SpanScope s(recorderOf(job), n_rows_, job.id);
            server_.handleLine("ROWS " + id, out_);
        }
        job.rows = out_.empty() ? 0 : out_.size() - 1;
    }

    SocketServer &server_;
    ScenarioService &service_;
    SpanRecorder &rec_;
    SpanRecorder quiet_; //!< the untraced jobs' (disabled) recorder
    std::uint32_t n_submit_, n_status_, n_rows_;
    Clock::time_point epoch_;
    std::vector<std::string> out_;
    const std::string empty_;
    std::vector<std::size_t> outstanding_; //!< non-terminal job indices
    const std::vector<JobRecord> *jobs_ = nullptr; //!< the current rate's
    std::size_t cursor_ = 0;
};

/** Direct FleetRunner fingerprints of every distinct line. */
std::vector<std::uint64_t>
referenceFingerprints(const Schedule &sched, std::uint64_t seed)
{
    const ScenarioCatalog catalog = ScenarioCatalog::standard();
    std::vector<std::uint64_t> fps(sched.distinct_sets.size(), 0);
    const std::size_t threads = hostThreads();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            fleet::FleetRunner runner(fleet::FleetConfig{1, seed});
            for (std::size_t i = t; i < fps.size(); i += threads) {
                const auto list = catalog.build(sched.distinct_sets[i],
                                                sched.distinct_params[i]);
                fps[i] = runner.run(*list).fingerprint();
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    return fps;
}

/** Everything one open-loop run measured. */
struct ServeRun
{
    std::vector<RateResult> points;
    obs::MetricRegistry service_metrics;
};

ServeRun
runSchedule(std::uint64_t seed, const Schedule &sched, SpanRecorder &rec)
{
    ScenarioService service(serviceConfig(seed));
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});
    ServeRun run;
    std::thread generator([&] {
        Generator gen(server, service, rec);
        for (const RateSchedule &rs : sched.points)
            run.points.push_back(gen.run(rs));
    });
    generator.join();
    run.service_metrics = service.metricsSnapshot();
    return run;
}

/** Fold one run into verdicts; counts failures into @p o. */
struct ServeSummary
{
    std::vector<RatePoint> verdicts;
    /** At the reference rate; job latencies of untraced and traced jobs
     *  apart (every job is untraced in an untraced run). */
    std::vector<double> ref_ttfr, ref_job, ref_job_traced;
    std::vector<double> all_lag;
    double top_goodput = 0.0;   //!< rows merged/s at the top rate
    double top_simulated = 0.0; //!< simulated/s while saturated, top rate
    double max_rate = 0.0;
    double queued_max = 0.0;
    std::size_t rows_requested = 0, cache_hits = 0;
};

ServeSummary
summarize(const ServeRun &run, const std::vector<std::uint64_t> &ref_fps,
          Outcome &o)
{
    ServeSummary s;
    for (const RateResult &r : run.points) {
        std::vector<double> ttfr;
        std::size_t failed = 0;
        for (const JobRecord &j : r.jobs) {
            ++o.attempted;
            const bool ok = !j.rejected && j.completed &&
                            j.rows == j.total &&
                            j.fingerprint == ref_fps[j.distinct];
            if (!ok) {
                ++failed;
                ++o.failed;
                // A failed job misses any latency limit.
                ttfr.push_back(INFINITY);
                continue;
            }
            const double queue_ms = j.admitted_ms - j.due_ms;
            ttfr.push_back(queue_ms + j.ttfr_ms);
            s.rows_requested += j.total;
            s.cache_hits += j.cache_hits;
            if (r.rate != kReferenceRate)
                continue;
            if (j.traced) {
                s.ref_job_traced.push_back(queue_ms + j.wall_ms);
            } else {
                s.ref_ttfr.push_back(queue_ms + j.ttfr_ms);
                s.ref_job.push_back(queue_ms + j.wall_ms);
            }
        }
        RatePoint v;
        v.rate = r.rate;
        v.ttfr = percentile(ttfr, kTtfrLimitPercentile);
        v.failed_frac = r.jobs.empty()
            ? 0.0
            : static_cast<double>(failed) / static_cast<double>(r.jobs.size());
        v.backlog_growing =
            !r.drained || backlogGrowing(r.backlog, kBacklogGrowthLimitShards);
        s.verdicts.push_back(v);
        s.all_lag.insert(s.all_lag.end(), r.gen_lag_ms.begin(),
                         r.gen_lag_ms.end());
        s.queued_max = std::max(s.queued_max, r.queued_max);
        char line[256];
        std::snprintf(line, sizeof(line),
                      "rate %6.1f jobs/s: %4zu jobs, ttfr p%.0f %8.2f ms "
                      "(%zu samples%s), failed %.3f, backlog slope %+.1f "
                      "shards/s (max %.0f)%s, %.1f rows/s, %.1f sims/s",
                      r.rate, r.jobs.size(), kTtfrLimitPercentile,
                      v.ttfr.value, v.ttfr.samples,
                      v.ttfr.valid ? "" : ", refused", v.failed_frac,
                      backlogSlope(r.backlog), r.queued_max,
                      v.backlog_growing ? " GROWING" : "",
                      r.scenarios_completed / r.window_s,
                      r.scenarios_simulated / r.window_s);
        o.notes.push_back(line);
    }
    const RateResult &top = run.points.back();
    s.top_goodput = top.scenarios_completed / top.window_s;
    s.top_simulated = saturatedRate(top.backlog, top.simulated,
                                    kSaturationBinS,
                                    static_cast<double>(serviceWorkers()));
    s.max_rate = maxSustainedRate(s.verdicts, kTtfrLimitMs, kFailedFracLimit);
    return s;
}

} // namespace

void serveLayerMetrics(const SpanRecorder &rec, std::size_t rows_requested,
                       std::size_t cache_hits, double queued_max,
                       const std::vector<double> &gen_lag_ms,
                       std::map<std::string, Metric> &out);

Outcome
runServe(const Options &opt, SpanRecorder &rec)
{
    Outcome o;
    const std::vector<double> rates(std::begin(kRates), std::end(kRates));
    Schedule sched;
    // Set-up: the whole open-loop schedule, and a service warmed by a
    // burst of short jobs through the protocol engine (seeds outside
    // the schedule's, on a service discarded before the window).
    const double setup_s = timedSetups(opt, o, [&] {
        sched = makeSchedule(opt.seed, opt.seconds, rates);
        ScenarioService service(serviceConfig(opt.seed));
        SocketServer server(service, ScenarioCatalog::standard(),
                            SocketServerConfig{});
        std::vector<std::string> out;
        for (std::size_t t = 0; t < std::size(kTenants); ++t)
            server.handleLine(std::string("SUBMIT ") + kTenants[t].name +
                                  " scenario_fuzz seed=" +
                                  std::to_string(t * 64 + 1) +
                                  " seeds=16 horizon_s=" +
                                  std::to_string(kHorizonS),
                              out);
        for (std::size_t id = 1; id <= std::size(kTenants); ++id)
            server.handleLine("WAIT " + std::to_string(id), out);
    });
    std::ostringstream load;
    load << "fixed load: offered jobs/s";
    for (double r : kRates)
        load << ' ' << r;
    load << " (latencies at " << kReferenceRate << "), ttfr limit p"
         << kTtfrLimitPercentile << " <= " << kTtfrLimitMs
         << " ms, failed_frac <= " << kFailedFracLimit
         << ", backlog growth <= " << kBacklogGrowthLimitShards
         << " shards, repeat share " << kRepeatShare
         << ", generator lag p90 <= " << kMaxGenLagMs
         << " ms, cold-job horizon " << kHorizonS << " s";
    o.notes.push_back(load.str());

    const ServeRun run = runSchedule(opt.seed, sched, rec);
    // Output check: a direct FleetRunner run of every distinct line.
    const std::vector<std::uint64_t> ref_fps =
        referenceFingerprints(sched, opt.seed);
    const ServeSummary s = summarize(run, ref_fps, o);

    const Percentile lag = percentile(s.all_lag, 90.0);
    if (lag.valid && lag.value > kMaxGenLagMs) {
        o.valid = false;
        o.notes.push_back("INVALID: generator lag p90 " +
                          std::to_string(lag.value) + " ms exceeds " +
                          std::to_string(kMaxGenLagMs) + " ms");
    }
    const Percentile ttfr50 = percentile(s.ref_ttfr, 50.0);
    const Percentile ttfr90 = percentile(s.ref_ttfr, 90.0);
    const Percentile ttfr99 = percentile(s.ref_ttfr, 99.0);
    const Percentile job50 = percentile(s.ref_job, 50.0);
    const Percentile job90 = percentile(s.ref_job, 90.0);
    const Percentile job99 = percentile(s.ref_job, 99.0);
    report(o, "setup_s", setup_s, "s");
    report(o, "ttfr_ms_p50", ttfr50.value, "ms");
    report(o, ttfr99.valid ? "ttfr_ms_p99" : "ttfr_ms_p90",
           ttfr99.valid ? ttfr99.value : ttfr90.value, "ms");
    report(o, "job_ms_p50", job50.value, "ms");
    report(o, job99.valid ? "job_ms_p99" : "job_ms_p90",
           job99.valid ? job99.value : job90.value, "ms");
    report(o, "max_jobs_per_s", s.max_rate, "jobs/s");
    report(o, "saturation_rows_per_s", s.top_goodput, "rows/s");
    report(o, "saturation_simulated_per_s", s.top_simulated, "scenarios/s");
    o.notes.push_back("latencies over " + std::to_string(job50.samples) +
                      " untraced jobs at the reference rate");
    o.notes.push_back(
        "service: jobs admitted " +
        std::to_string(run.service_metrics.counter("serve.jobs_admitted")) +
        ", rejected " +
        std::to_string(run.service_metrics.counter("serve.jobs_rejected")) +
        ", cache hits " +
        std::to_string(run.service_metrics.counter("serve.cache.hits")) +
        ", misses " +
        std::to_string(run.service_metrics.counter("serve.cache.misses")) +
        ", generator lag p90 " + std::to_string(lag.value) + " ms");

    if (!opt.trace) {
        o.metrics["setup_s"] = {setup_s, "s"};
        o.metrics["throughput_per_s"] = {s.top_simulated, "1/s"};
        putPercentile(o.metrics, "latency_ms_p50", job50, "ms");
        putPercentile(o.metrics, "latency_ms_p90", job90, "ms");
        return o;
    }

    const double untraced_ms = median(s.ref_job);
    const double traced_ms = median(s.ref_job_traced);
    o.metrics["trace.overhead_frac"] = {
        overheadFrac(untraced_ms, traced_ms, false), "ratio"};
    o.notes.push_back("tracing overhead: job_ms_p50 at the reference rate " +
                      std::to_string(untraced_ms) + " ms untraced, " +
                      std::to_string(traced_ms) +
                      " ms traced (alternate jobs of one window)");
    serveLayerMetrics(rec, s.rows_requested, s.cache_hits, s.queued_max,
                      s.all_lag, o.metrics);

    ProbeInputs in;
    in.seed = opt.seed;
    for (std::uint64_t i = 0; i < 6; ++i)
        in.worlds.push_back(fleet::fuzzWorldPreset(
            opt.seed * 1000003ull + 64 * i, kHorizonS));
    in.scenarios = probeScenarios(in.worlds, opt.seed);
    probeFleet(in, rec, o.metrics, o.notes);
    probeQueries(in, rec, o.metrics);
    probeRuntime(rec, o.metrics);
    probeFrame(in, rec, o.metrics);
    return o;
}

void
serveLayerMetrics(const SpanRecorder &rec, std::size_t rows_requested,
                  std::size_t cache_hits, double queued_max,
                  const std::vector<double> &gen_lag_ms,
                  std::map<std::string, Metric> &out)
{
    auto us = [&rec](const std::string &name) {
        std::vector<double> d = rec.durationsNs(name);
        for (double &v : d)
            v /= 1e3;
        return percentile(std::move(d), 90.0);
    };
    putPercentile(out, "serve.submit_us_p90", us("serve.submit"), "us");
    putPercentile(out, "serve.status_us_p90", us("serve.status"), "us");
    putPercentile(out, "serve.rows_us_p90", us("serve.rows"), "us");
    out["serve.cache_hit_ratio"] = {
        rows_requested ? static_cast<double>(cache_hits) /
                             static_cast<double>(rows_requested)
                       : 0.0,
        "ratio"};
    out["serve.queued_shards_max"] = {queued_max, "count"};
    putPercentile(out, "serve.gen_lag_ms_p90", percentile(gen_lag_ms, 90.0),
                  "ms");
}

void
probeServe(std::uint64_t seed, SpanRecorder &rec,
           std::map<std::string, Metric> &out)
{
    // One light rate for a short window: the service layer's per-call
    // costs on workloads whose own loop never reaches it.
    const Schedule sched = makeSchedule(seed, kProbeSeconds, {kReferenceRate});
    const ServeRun run = runSchedule(seed, sched, rec);
    Outcome probe_outcome;
    const ServeSummary s = summarize(
        run, referenceFingerprints(sched, seed), probe_outcome);
    if (probe_outcome.failed) {
        std::fprintf(stderr, "perfbench: serve probe had %llu failed jobs\n",
                     static_cast<unsigned long long>(probe_outcome.failed));
        std::exit(3);
    }
    serveLayerMetrics(rec, s.rows_requested, s.cache_hits, s.queued_max,
                      s.all_lag, out);
}

} // namespace perfbench
