/**
 * @file
 * Workload entry points of the repo benchmark and the records they
 * share. Each workload sets itself up (several times, for a steady
 * set-up figure), measures for the requested seconds with tracing off
 * or on, checks its outputs, and fills an Outcome.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/scenario.h"
#include "measure.h"

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  //!< Chrome-trace path (traced runs)
    std::string commit;     //!< source identity recorded in the host line
    std::string build_type;
    /** Process start: the first set-up is timed from here. */
    Clock::time_point start;
};

/** One named figure with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What a workload run produced. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Contract metrics: end-to-end (untraced) or per-layer (traced). */
    std::map<std::string, Metric> metrics;
    /** Per-workload end-to-end figures, printed in the human report. */
    std::vector<std::pair<std::string, Metric>> report;
    /** Human-readable notes (sample counts, counts, verdicts). */
    std::vector<std::string> notes;
    /** False when the run itself was invalid (e.g. generator lag). */
    bool valid = true;
};

/** Host threads this process may use (affinity-aware). */
std::size_t hostThreads();

/** Median of @p values (0 for none). */
double median(std::vector<double> values);

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetups = 7;

/**
 * Run @p setup kSetups times and return the median duration in
 * seconds; the first repetition is timed from process start. The
 * state of the last repetition is what the workload measures.
 */
template <typename Fn>
double
timedSetups(const Options &opt, Outcome &o, Fn &&setup)
{
    std::vector<double> durations;
    std::string note = "set-up repetitions [s]:";
    for (int i = 0; i < kSetups; ++i) {
        const Clock::time_point t0 = i == 0 ? opt.start : Clock::now();
        setup();
        durations.push_back(secondsBetween(t0, Clock::now()));
        note += ' ';
        note += std::to_string(durations.back());
    }
    o.notes.push_back(note);
    return median(durations);
}

/** Add the per-workload figure @p name to the human report. */
void report(Outcome &o, const std::string &name, double value,
            const std::string &unit);

/** Tracing overhead of one end-to-end figure: (traced - untraced) /
 *  untraced, sign-adjusted so positive always means "tracing cost". */
double overheadFrac(double untraced, double traced, bool higher_better);

Outcome runSweep(const Options &opt, SpanRecorder &rec);
Outcome runFuzz(const Options &opt, SpanRecorder &rec);
Outcome runServe(const Options &opt, SpanRecorder &rec);
Outcome runFrame(const Options &opt, SpanRecorder &rec);

// ---- per-layer probes (traced runs) --------------------------------

/** The inputs a workload hands the probes: its own worlds and
 *  scenario lists, so per-call costs are measured on its inputs. */
struct ProbeInputs
{
    std::vector<sov::fleet::WorldPreset> worlds;
    std::vector<sov::fleet::ScenarioSpec> scenarios;
    std::uint64_t seed = 1;
};

/** World / sensors / planning query mix replayed on @p in.worlds. */
void probeQueries(const ProbeInputs &in, SpanRecorder &rec,
                  std::map<std::string, Metric> &out);

/** FleetRunner one-thread pass, parallel efficiency, supervision
 *  cost and report merge on @p in.scenarios; the work counts behind
 *  them go to @p notes. */
void probeFleet(const ProbeInputs &in, SpanRecorder &rec,
                std::map<std::string, Metric> &out,
                std::vector<std::string> &notes);

/** DataflowExecutor::runAsync on the analytic Fig. 5 graph. */
void probeRuntime(SpanRecorder &rec, std::map<std::string, Metric> &out);

/** Short open-loop serve run (the serve workload's own machinery at
 *  one light rate, inputs from @p seed) for workloads whose loop
 *  bypasses the service. */
void probeServe(std::uint64_t seed, SpanRecorder &rec,
                std::map<std::string, Metric> &out);

/** A few frames of the frame workload's drives (seeded by
 *  @p in.seed), for workloads whose loop never runs the kernels. */
void probeFrame(const ProbeInputs &in, SpanRecorder &rec,
                std::map<std::string, Metric> &out);

/** Per-layer figures of the frame spans recorded so far (vision,
 *  pointcloud, sensors input generation, executor overhead). */
void frameLayerMetrics(const SpanRecorder &rec,
                       std::map<std::string, Metric> &out);

/** A short-horizon scenario list over @p worlds (bare and supervised
 *  stacks on identical draws) for the fleet probe. */
std::vector<sov::fleet::ScenarioSpec>
probeScenarios(const std::vector<sov::fleet::WorldPreset> &worlds,
               std::uint64_t seed);

/** Mean self time per call of the spans named @p name, in ns. */
double selfNsPerCall(const SpanRecorder &rec, const std::string &name);

/** Store @p p as a metric, failing loudly on a refused percentile. */
void putPercentile(std::map<std::string, Metric> &out,
                   const std::string &name, const Percentile &p,
                   const std::string &unit);

} // namespace perfbench
