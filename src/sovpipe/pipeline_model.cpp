#include "sovpipe/pipeline_model.h"

namespace sov {

SovPipelineModel::SovPipelineModel(const PlatformModel &model,
                                   const SovPipelineConfig &config, Rng rng)
    : model_(model), config_(config), rng_(std::move(rng))
{
    stages_ = buildFig5Graph(graph_, model_, config_, &rng_,
                             Fig5Latency::Sampled);
}

FrameLatency
SovPipelineModel::groupStages(const runtime::FrameTrace &trace) const
{
    const runtime::StageSpan &sensing = trace.spans[stages_.sensing];
    const runtime::StageSpan &planning = trace.spans[stages_.planning];
    FrameLatency frame;
    frame.sensing = sensing.duration();
    // Perception spans both branches: from sensing done until planning
    // may start = max(depth + detection + tracking, localization).
    frame.perception = planning.start - sensing.finish;
    frame.planning = planning.duration();
    return frame;
}

FrameLatency
SovPipelineModel::sampleFrame()
{
    const runtime::RunResult run = runtime::DataflowExecutor::runAsync(
        graph_, runtime::AsyncOptions::singleShot(1));
    return groupStages(run.frames.front());
}

PipelineStats
SovPipelineModel::characterize(std::size_t frames)
{
    // Single-shot runs (period zero): per-frame latency without
    // cross-frame contention — the Fig. 10 characterization.
    const runtime::RunResult run = runtime::DataflowExecutor::runAsync(
        graph_, runtime::AsyncOptions::singleShot(frames));

    PipelineStats stats;
    for (const runtime::FrameTrace &trace : run.frames) {
        const FrameLatency f = groupStages(trace);
        stats.metrics.record("sensing", f.sensing);
        stats.metrics.record("perception", f.perception);
        stats.metrics.record("planning", f.planning);
        stats.metrics.recordTotal(f.total());
    }
    stats.best_case = Duration::millisF(
        stats.metrics.percentile("total", 0.0));
    stats.mean = Duration::millisF(stats.metrics.mean("total"));
    stats.p99 = Duration::millisF(
        stats.metrics.percentile("total", 99.0));

    // Pipelined throughput: the same Fig. 5 graph at the analytic
    // stage means, released at the frame rate; the slowest resource
    // lane bounds throughput, capped by the release rate.
    runtime::StageGraph mean_graph;
    buildFig5Graph(mean_graph, model_, config_, nullptr,
                   Fig5Latency::Mean);
    stats.throughput_hz =
        runtime::DataflowExecutor::runAsync(
            mean_graph,
            runtime::AsyncOptions::pipelined(
                64, Duration::seconds(1.0 / config_.frame_rate_hz)))
            .steadyStateThroughputHz();

    // Asynchronous pipeline parallelism: self-paced admission (period
    // zero) with a double-buffer window saturates the bottleneck lane
    // instead of the frame-rate cap. Runs on a fresh mean graph after
    // the sampled runs, so the sampled statistics above are untouched.
    runtime::StageGraph async_graph;
    buildFig5Graph(async_graph, model_, config_, nullptr,
                   Fig5Latency::Mean);
    runtime::AsyncOptions async;
    async.frames = 64;
    async.max_in_flight = 3;
    stats.async_throughput_hz =
        runtime::DataflowExecutor::runAsync(async_graph, async)
            .steadyStateThroughputHz();
    return stats;
}

obs::MetricRegistry
SovPipelineModel::perceptionTaskBreakdown(std::size_t frames)
{
    const runtime::RunResult run = runtime::DataflowExecutor::runAsync(
        graph_, runtime::AsyncOptions::singleShot(frames));

    obs::MetricRegistry metrics;
    for (const runtime::FrameTrace &trace : run.frames) {
        metrics.record("depth", trace.spans[stages_.depth].duration());
        metrics.record("detection",
                       trace.spans[stages_.detection].duration());
        metrics.record("tracking",
                       trace.spans[stages_.tracking].duration());
        metrics.record("localization",
                       trace.spans[stages_.localization].duration());
    }
    return metrics;
}

} // namespace sov
