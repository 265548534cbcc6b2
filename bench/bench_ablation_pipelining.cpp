/**
 * @file
 * Ablation: why "the throughput requirement is relatively easier to
 * meet than latency due to techniques such as pipelining"
 * (Sec. III-A). Sweeps the SoV stage structure through the runtime
 * dataflow executor: pipelined throughput is set by the slowest stage while
 * single-frame latency is the sum — and splitting a stage helps
 * throughput but never latency.
 */
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "harness.h"
#include "runtime/dataflow.h"

using namespace sov;

namespace {

constexpr std::size_t kFrames = 128;

/** Serial chain of @p stage_ms stage durations on distinct hardware. */
runtime::StageGraph
stageChain(const std::vector<double> &stage_ms)
{
    runtime::StageGraph g;
    runtime::StageId prev = 0;
    for (std::size_t i = 0; i < stage_ms.size(); ++i) {
        const std::string name = "stage" + std::to_string(i);
        const std::string hw = "hw" + std::to_string(i);
        std::vector<runtime::StageId> deps;
        if (i > 0)
            deps.push_back(prev);
        prev = g.addFixed(name, hw, Duration::millisF(stage_ms[i]),
                          deps);
    }
    return g;
}

/** Pipelined run: frame f released at f / @p input_hz. */
runtime::RunResult
runPipelined(runtime::StageGraph &g, double input_hz,
             std::optional<Duration> deadline = std::nullopt)
{
    runtime::AsyncOptions opts = runtime::AsyncOptions::pipelined(
        kFrames, Duration::seconds(1.0 / input_hz));
    opts.deadline = deadline;
    return runtime::DataflowExecutor::runAsync(g, opts);
}

void
reportDeadline(const char *label, const std::vector<double> &stage_ms,
               double input_hz, double deadline_ms,
               bench::BenchReport &out)
{
    runtime::StageGraph g = stageChain(stage_ms);
    const runtime::RunResult run =
        runPipelined(g, input_hz, Duration::millisF(deadline_ms));
    // The bottleneck stage's queue is where the backlog accumulates.
    Duration worst_queue = Duration::zero();
    for (const auto &frame : run.frames)
        for (const auto &span : frame.spans)
            worst_queue = std::max(worst_queue, span.queueing());
    std::printf("%-34s misses=%3llu/128  worst-queue=%7.1f ms  "
                "throughput=%5.1f Hz\n",
                label,
                static_cast<unsigned long long>(run.deadline_misses),
                worst_queue.toMillis(), run.steadyStateThroughputHz());
    out.addRow("deadlines")
        .set("schedule", label)
        .set("input_hz", input_hz)
        .set("deadline_misses", run.deadline_misses)
        .set("worst_queue_ms", worst_queue.toMillis())
        .set("throughput_hz", run.steadyStateThroughputHz());
}

/** Returns pipelined steady-state throughput for the gate below. */
double
report(const char *label, const std::vector<double> &stage_ms,
       double input_hz, bench::BenchReport &out)
{
    runtime::StageGraph g = stageChain(stage_ms);
    const double latency_ms = g.criticalPathLatency().toMillis();
    const runtime::RunResult run = runPipelined(g, input_hz);
    const double steady_ms = run.frames.back().latency().toMillis();
    std::printf("%-34s latency=%7.1f ms  throughput=%5.1f Hz  "
                "steady-frame-latency=%7.1f ms\n",
                label, latency_ms, run.steadyStateThroughputHz(),
                steady_ms);
    out.addRow("schedules")
        .set("schedule", label)
        .set("input_hz", input_hz)
        .set("latency_ms", latency_ms)
        .set("throughput_hz", run.steadyStateThroughputHz())
        .set("steady_frame_latency_ms", steady_ms);
    return run.steadyStateThroughputHz();
}

} // namespace

int
main()
{
    std::printf("=== Ablation: pipelining vs latency (Sec. III-A) "
                "===\n\n");

    bench::BenchReport out("ablation_pipelining");
    // The SoV's three stages at their mean latencies.
    report("sensing|perception|planning @10Hz", {78.0, 86.0, 3.0}, 10.0,
           out);
    // Feed frames faster than the bottleneck: throughput saturates at
    // the slowest stage, and queueing inflates per-frame latency.
    report("same stages @15Hz (oversubscribed)", {78.0, 86.0, 3.0},
           15.0, out);
    // Split the perception stage across two accelerators (ALP,
    // Sec. VII): the throughput ceiling moves to the next-slowest
    // stage (sensing, 78 ms -> 12.8 Hz); latency does not improve.
    report("perception split in two @10Hz", {78.0, 43.0, 43.0, 3.0},
           10.0, out);
    const double split_hz = report("perception split in two @20Hz",
                                   {78.0, 43.0, 43.0, 3.0}, 20.0, out);
    // One monolithic stage: same latency, worst throughput ceiling.
    report("monolithic 167 ms stage @10Hz", {167.0}, 10.0, out);
    const double mono_hz =
        report("monolithic 167 ms stage @6Hz", {167.0}, 6.0, out);

    // The same sweep through the runtime executor with a 300 ms frame
    // deadline: a stable pipeline never misses, an oversubscribed one
    // builds queueing until every frame is late.
    std::printf("\n=== Deadline misses under oversubscription "
                "(300 ms budget) ===\n\n");
    reportDeadline("sensing|perception|planning @10Hz",
                   {78.0, 86.0, 3.0}, 10.0, 300.0, out);
    reportDeadline("same stages @15Hz (oversubscribed)",
                   {78.0, 86.0, 3.0}, 15.0, 300.0, out);
    reportDeadline("perception split in two @15Hz",
                   {78.0, 43.0, 43.0, 3.0}, 15.0, 300.0, out);

    std::printf("\nShape: pipelined throughput = 1/slowest-stage "
                "(splitting helps);\nsingle-frame latency = sum of "
                "stages (splitting does not help) — the\npaper's "
                "reason for treating latency, not throughput, as the "
                "binding constraint.\n");
    out.gate("splitting_raises_throughput", split_hz > mono_hz,
             "Sec. III-A: pipelining must lift the throughput ceiling");
    return out.write();
}
