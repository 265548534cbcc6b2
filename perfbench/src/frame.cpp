/**
 * @file
 * The frame workload: closed loop, one frame at a time, one thread,
 * default kernel backend. Set-up trains the site detector and renders
 * a ring of consecutive inputs along fuzzed-world drives; each timed
 * frame runs the real-kernel Fig. 5 graph from inputs ready to the MPC
 * command out.
 */
#include <memory>
#include <optional>

#include "core/kernels.h"
#include "fleet/fuzzer.h"
#include "frame_pipeline.h"
#include "perfbench.h"

using namespace sov;

namespace perfbench {

namespace {

constexpr std::size_t kWorlds = 4;
constexpr std::size_t kFramesPerWorld = 8;

/** Fuzzed worlds whose agent populations grow with the index. */
std::vector<fleet::WorldPreset>
frameWorlds(std::uint64_t seed)
{
    std::vector<fleet::WorldPreset> worlds;
    for (std::size_t i = 0; i < kWorlds; ++i) {
        fleet::FuzzRanges ranges;
        ranges.max_pedestrians = 1 + 2 * i;
        ranges.max_cyclists = i;
        ranges.max_vehicles = 1 + i / 2;
        worlds.push_back(
            fleet::fuzzWorldPreset(seed * 1000 + i, 20.0, ranges));
    }
    return worlds;
}

struct FrameState
{
    std::optional<ObjectDetector> detector;
    FrameRing ring;
    std::unique_ptr<FramePipeline> pipeline;
};

/** What one timed window ran. */
struct FrameWindow
{
    std::vector<double> frame_ms;  //!< untraced frames
    std::vector<double> traced_ms; //!< traced frames (traced runs only)
    double untraced_s = 0.0;       //!< wall time of the untraced passes
    std::size_t frames = 0;
    std::size_t detections = 0;
    std::size_t live_tracks = 0;
    std::size_t icp_iterations = 0;
    /** The first pass's results, one per ring input, for the
     *  Reference check. */
    std::vector<std::pair<std::size_t, FrameResult>> samples;
};

/**
 * Run passes over the ring for @p seconds. With @p traced given, the
 * passes alternate between @p pipeline and @p traced, so traced and
 * untraced frames share one window and their difference is the tracing
 * overhead, not the host's drift between two windows.
 */
FrameWindow
runWindow(const FrameRing &ring, FramePipeline &pipeline,
          FramePipeline *traced, double seconds)
{
    FrameWindow w;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (std::size_t pass = 0; Clock::now() < deadline; ++pass) {
        const bool spanned = traced && pass % 2 == 1;
        FramePipeline &p = spanned ? *traced : pipeline;
        std::vector<double> &ms = spanned ? w.traced_ms : w.frame_ms;
        const Clock::time_point t_pass = Clock::now();
        for (std::size_t idx = 0;
             idx < ring.frames.size() && Clock::now() < deadline; ++idx) {
            const FrameInput &in = ring.frames[idx];
            if (idx == 0 || in.map != ring.frames[idx - 1].map)
                p.resetTracks();
            const Clock::time_point t0 = Clock::now();
            FrameResult r = p.run(in, *ring.maps[in.map], ++w.frames);
            ms.push_back(msBetween(t0, Clock::now()));
            w.detections += r.detections;
            w.live_tracks += r.live_tracks;
            w.icp_iterations += r.icp.iterations;
            // Stereo and ICP are deterministic per input, so checking
            // the first result of every input covers the whole ring.
            if (pass == 0)
                w.samples.emplace_back(idx, std::move(r));
        }
        if (!spanned)
            w.untraced_s += secondsBetween(t_pass, Clock::now());
    }
    return w;
}

} // namespace

Outcome
runFrame(const Options &opt, SpanRecorder &rec)
{
    Outcome o;
    const KernelBackend backend = defaultKernelBackend();
    const std::vector<fleet::WorldPreset> worlds = frameWorlds(opt.seed);
    FrameState st;
    SpanRecorder quiet;
    const double setup_s = timedSetups(opt, o, [&] {
        st = FrameState{};
        st.detector.emplace(trainDetector(opt.seed, backend));
        st.ring = renderRing(worlds, kFramesPerWorld, opt.seed, rec);
        st.pipeline =
            std::make_unique<FramePipeline>(*st.detector, backend, quiet);
        // Warm-up: one pass over the ring (caches, arenas, FFT plans).
        for (const FrameInput &in : st.ring.frames)
            st.pipeline->run(in, *st.ring.maps[in.map], 0);
        st.pipeline->resetTracks();
    });

    std::size_t agents = 0;
    for (const FrameInput &in : st.ring.frames)
        agents += in.agents;
    o.notes.push_back(
        "inputs: " + std::to_string(st.ring.frames.size()) +
        " frames over " + std::to_string(worlds.size()) +
        " fuzzed worlds, mean agents/frame " +
        std::to_string(static_cast<double>(agents) /
                       static_cast<double>(st.ring.frames.size())) +
        ", backend " + kernelBackendName(backend));

    std::unique_ptr<FramePipeline> traced;
    if (opt.trace)
        traced = std::make_unique<FramePipeline>(*st.detector, backend, rec);
    const FrameWindow w =
        runWindow(st.ring, *st.pipeline, traced.get(), opt.seconds);
    o.attempted += w.frames;
    for (const auto &[idx, r] : w.samples) {
        const FrameInput &in = st.ring.frames[idx];
        if (!checkAgainstReference(in, *st.ring.maps[in.map], r))
            ++o.failed;
    }
    const Percentile p50 = percentile(w.frame_ms, 50.0);
    const Percentile p90 = percentile(w.frame_ms, 90.0);
    const double fps = static_cast<double>(w.frame_ms.size()) / w.untraced_s;

    report(o, "setup_s", setup_s, "s");
    report(o, "frame_ms_p50", p50.value, "ms");
    report(o, "frame_ms_p90", p90.value, "ms");
    report(o, "frames_per_s", fps, "1/s");
    const auto per_frame = [&w](std::size_t count) {
        return std::to_string(static_cast<double>(count) /
                              static_cast<double>(w.frames));
    };
    o.notes.push_back("frame_ms percentiles over " +
                      std::to_string(p50.samples) +
                      " untraced frames; per frame: detections " +
                      per_frame(w.detections) + ", live tracks " +
                      per_frame(w.live_tracks) + ", ICP iterations " +
                      per_frame(w.icp_iterations));
    o.notes.push_back("reference check: " +
                      std::to_string(w.samples.size()) + " of " +
                      std::to_string(st.ring.frames.size()) +
                      " ring inputs, each once (stereo bitwise, ICP "
                      "within 1e-9)");

    if (!opt.trace) {
        o.metrics["setup_s"] = {setup_s, "s"};
        o.metrics["throughput_per_s"] = {fps, "1/s"};
        putPercentile(o.metrics, "latency_ms_p50", p50, "ms");
        putPercentile(o.metrics, "latency_ms_p90", p90, "ms");
        return o;
    }

    const double untraced_ms = median(w.frame_ms);
    const double traced_ms = median(w.traced_ms);
    o.metrics["trace.overhead_frac"] = {
        overheadFrac(untraced_ms, traced_ms, false), "ratio"};
    o.notes.push_back("tracing overhead: median frame_ms " +
                      std::to_string(untraced_ms) + " untraced, " +
                      std::to_string(traced_ms) +
                      " traced (alternate ring passes of one window)");

    ProbeInputs in;
    in.worlds = worlds;
    in.seed = opt.seed;
    frameLayerMetrics(rec, o.metrics);
    probeQueries(in, rec, o.metrics);
    in.scenarios = probeScenarios(worlds, opt.seed);
    probeFleet(in, rec, o.metrics, o.notes);
    probeRuntime(rec, o.metrics);
    probeServe(opt.seed, rec, o.metrics);
    return o;
}

void
frameLayerMetrics(const SpanRecorder &rec,
                  std::map<std::string, Metric> &out)
{
    out["vision.stereo_ms"] = {selfNsPerCall(rec, "vision.stereo") / 1e6,
                               "ms"};
    out["vision.detect_ms"] = {selfNsPerCall(rec, "vision.detect") / 1e6,
                               "ms"};
    out["vision.kcf_us"] = {selfNsPerCall(rec, "vision.kcf") / 1e3, "us"};
    out["pointcloud.icp_ms"] = {selfNsPerCall(rec, "pointcloud.icp") / 1e6,
                                "ms"};
    out["sensors.render_ms"] = {selfNsPerCall(rec, "sensors.render") / 1e6,
                                "ms"};
    out["sensors.lidar_scan_ms"] = {
        selfNsPerCall(rec, "sensors.lidar_scan") / 1e6, "ms"};
    // The frame span's self time is what the stage spans do not cover:
    // release, event dispatch and completion inside the executor.
    out["runtime.exec_overhead_us"] = {selfNsPerCall(rec, "frame") / 1e3,
                                       "us"};
}

void
probeFrame(const ProbeInputs &in, SpanRecorder &rec,
           std::map<std::string, Metric> &out)
{
    // The frame workload's own drives (the kernels' per-call cost on
    // frame inputs); the other workloads never render.
    constexpr std::size_t kProbeFramesPerWorld = 4;
    const KernelBackend backend = defaultKernelBackend();
    const ObjectDetector detector = trainDetector(in.seed, backend);
    const FrameRing ring = renderRing(frameWorlds(in.seed),
                                      kProbeFramesPerWorld, in.seed, rec);
    FramePipeline pipeline(detector, backend, rec);
    std::size_t prev_map = ring.frames.size();
    for (std::size_t k = 0; k < ring.frames.size(); ++k) {
        const FrameInput &frame = ring.frames[k];
        if (frame.map != prev_map)
            pipeline.resetTracks();
        prev_map = frame.map;
        pipeline.run(frame, *ring.maps[frame.map], k + 1);
    }
    frameLayerMetrics(rec, out);
}

} // namespace perfbench
