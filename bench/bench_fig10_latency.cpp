/**
 * @file
 * Reproduces Fig. 10a and Fig. 10b: the end-to-end computing-latency
 * characterization of the SoV — best / mean / 99th-percentile split
 * into sensing, perception, planning (10a), and the average per-task
 * perception latencies (10b).
 *
 * Expected shape (paper): best 149 ms, mean 164 ms, long tail (p99
 * toward 740 ms); sensing ~ half the latency; detection dominates
 * perception; planning ~3 ms; localization 25 +- 14 ms; 10-30 Hz
 * throughput sustained by pipelining.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "runtime/dataflow.h"
#include "sovpipe/pipeline_model.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const std::int64_t frame_count = cfg.getInt("frames", 50000);
    const double deadline_ms = cfg.getDouble("deadline_ms", 300.0);
    // "" writes BENCH_fig10_latency.json.
    const std::string out_path = cfg.getString("out", "");
    const char *const usage =
        "usage: bench_fig10_latency [frames>=1] [deadline_ms=300] "
        "[out=BENCH_fig10_latency.json]";
    cfg.rejectUnread(usage);
    if (frame_count < 1) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }
    const auto frames = static_cast<std::size_t>(frame_count);

    const PlatformModel model;
    SovPipelineModel pipeline(model, SovPipelineConfig{}, Rng(42));

    std::printf("=== Fig. 10a: computing latency distribution "
                "(%zu frames) ===\n\n", frames);
    PipelineStats stats = pipeline.characterize(frames);
    bench::BenchReport report("fig10_latency");
    report.meta("frames", frames);
    std::printf("%-12s %10s %10s %10s %10s\n", "stage", "best",
                "mean", "p99", "max");
    for (const auto &stage :
         {std::string("sensing"), std::string("perception"),
          std::string("planning"), std::string("total")}) {
        std::printf("%-12s %9.1f %10.1f %10.1f %10.1f  (ms)\n",
                    stage.c_str(),
                    stats.metrics.percentile(stage, 0.0),
                    stats.metrics.mean(stage),
                    stats.metrics.percentile(stage, 99.0),
                    stats.metrics.percentile(stage, 100.0));
        report.addRow("stages")
            .set("stage", stage)
            .set("best_ms", stats.metrics.percentile(stage, 0.0))
            .set("mean_ms", stats.metrics.mean(stage))
            .set("p99_ms", stats.metrics.percentile(stage, 99.0))
            .set("max_ms", stats.metrics.percentile(stage, 100.0));
    }
    std::printf("\npaper: best 149 ms / mean 164 ms / p99 ~740 ms\n");
    std::printf("sensing share of mean total: %.0f%% (paper: ~50%%)\n",
                100.0 * stats.metrics.mean("sensing") /
                    stats.metrics.mean("total"));
    std::printf("pipelined throughput: %.1f Hz (requirement: 10 Hz)\n",
                stats.throughput_hz);

    std::printf("\n=== Fig. 10b: average perception task latencies "
                "===\n\n");
    obs::MetricRegistry tasks = pipeline.perceptionTaskBreakdown(frames);
    std::printf("%-14s %10s %10s\n", "task", "mean (ms)",
                "stddev (ms)");
    for (const auto &task :
         {std::string("depth"), std::string("detection"),
          std::string("tracking"), std::string("localization")}) {
        std::printf("%-14s %10.1f %10.1f\n", task.c_str(),
                    tasks.mean(task), tasks.stddev(task));
        report.addRow("tasks")
            .set("task", task)
            .set("mean_ms", tasks.mean(task))
            .set("stddev_ms", tasks.stddev(task));
    }
    std::printf("\npaper: detection dominates; localization median "
                "25 ms, stddev 14 ms;\ntracking ~1 ms because Radar + "
                "spatial sync replaces KCF (Sec. VI-B).\n");

    // Pipelined execution through the runtime dataflow layer: frames
    // released at the sensor rate contend for the Fig. 5 resource
    // lanes, so latency tails become queueing delay downstream and
    // deadline misses at the planner.
    const auto pipelined_frames = std::min<std::size_t>(frames, 5000);
    std::printf("\n=== Runtime: pipelined at %.0f Hz, %.0f ms frame "
                "deadline (%zu frames) ===\n\n",
                SovPipelineConfig{}.frame_rate_hz, deadline_ms,
                pipelined_frames);
    runtime::AsyncOptions opts = runtime::AsyncOptions::pipelined(
        pipelined_frames,
        Duration::seconds(1.0 / SovPipelineConfig{}.frame_rate_hz));
    opts.deadline = Duration::millisF(deadline_ms);
    obs::MetricRegistry spans;
    opts.metrics = &spans;
    const runtime::RunResult run =
        runtime::DataflowExecutor::runAsync(pipeline.graph(), opts);
    std::printf("%-14s %10s %10s\n", "stage", "queue mean", "queue p99");
    for (const auto &stage : pipeline.graph().stageNames()) {
        const std::string key = "queue:" + stage;
        std::printf("%-14s %8.1f ms %8.1f ms\n", stage.c_str(),
                    spans.mean(key), spans.percentile(key, 99.0));
        report.addRow("queues")
            .set("stage", stage)
            .set("queue_mean_ms", spans.mean(key))
            .set("queue_p99_ms", spans.percentile(key, 99.0));
    }
    std::printf("\npipelined total: mean %.1f ms / p99 %.1f ms "
                "(single-shot mean %.1f ms)\n",
                spans.mean("total"), spans.percentile("total", 99.0),
                stats.metrics.mean("total"));
    std::printf("deadline misses: %llu / %zu frames (%.1f%%), "
                "throughput %.1f Hz\n",
                static_cast<unsigned long long>(run.deadline_misses),
                pipelined_frames,
                100.0 * static_cast<double>(run.deadline_misses) /
                    static_cast<double>(pipelined_frames),
                run.steadyStateThroughputHz());

    report.meta("single_shot_mean_ms", stats.metrics.mean("total"));
    report.meta("single_shot_p99_ms",
                stats.metrics.percentile("total", 99.0));
    report.meta("throughput_hz", stats.throughput_hz);
    report.meta("pipelined_mean_ms", spans.mean("total"));
    report.meta("pipelined_p99_ms", spans.percentile("total", 99.0));
    report.meta("deadline_misses", run.deadline_misses);
    report.attachMetrics(stats.metrics);
    report.gate("throughput_meets_10hz", stats.throughput_hz >= 10.0,
                "paper: 10-30 Hz sustained by pipelining");
    report.gate("sensing_dominates",
                stats.metrics.mean("sensing") >
                    0.3 * stats.metrics.mean("total"),
                "paper: sensing is ~half the mean end-to-end latency");
    return report.write(out_path);
}
