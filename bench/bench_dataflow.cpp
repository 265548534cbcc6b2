/**
 * @file
 * Dataflow execution-model comparison (companion dataflow-accelerator
 * design, arxiv 2109.07047): the Fig. 5 pipeline run sequentially,
 * with asynchronous pipeline parallelism, and mapped onto dedicated
 * dataflow engines.
 *
 *  - sequential: single-shot frames on the Fig. 5 mean graph — the
 *    resource-constrained critical path, one frame at a time;
 *  - pipelined: the same graph under the async executor's self-paced
 *    admission window (frame N+1 sensing while frame N perceives), so
 *    throughput is set by the bottleneck lane, not the frame sum;
 *  - accelerator-mapped: every perception stage on its own engine
 *    (AcceleratorModel latencies: issue + compute + double-buffer
 *    spill), which shortens the critical path AND moves the bottleneck
 *    to the sensor.
 *
 * Gates (the async executor's correctness contract):
 *  - sync_equivalence: the single-shot schedule (admission window 1,
 *    zero period) is strictly serial — frame 0 releases at the origin,
 *    frame f+1 releases exactly at frame f's finish, and no two
 *    frames' spans interleave. Its bit-identity to the original
 *    single-shot executor is pinned by sync_fingerprint and the
 *    GoldenSchedules tests;
 *  - pipelined_speedup: async throughput >= 1.5x single-shot on the
 *    Fig. 5 graph;
 *  - thread_independent: the async schedule fingerprint is identical
 *    when the characterization runs on 1, 2 and 8 pool threads;
 *  - zero_steady_state_alloc: once warm, releasing and retiring frames
 *    grows no executor container and the FramePayloadRing performs no
 *    system allocation — and double-buffered payloads are never
 *    corrupted by cross-frame overlap;
 *  - supervised_noop_equivalence: a full supervision stack (watchdog +
 *    retries + backoff + a fault plan whose channels never fire) on
 *    the async path is bit-identical to the unsupervised async
 *    schedule — supervision costs nothing until a fault fires;
 *  - failover_throughput_floor / failover_recovers: an accelerator
 *    lane fault fails over to the resident CPU executor while the RPR
 *    engine re-streams the bitstream; pipeline throughput never drops
 *    below the sequential baseline during the failover window, the
 *    fabric recovers (or parks CPU-resident when the reconfiguration
 *    retry budget is exhausted), and the failover schedule fingerprint
 *    is identical on 1/2/8 pool threads.
 *
 * Usage:
 *   bench_dataflow [smoke=1] [frames=N] [out=BENCH_dataflow.json]
 *
 * frames < 1 prints the usage line and exits 2.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/config.h"
#include "core/rng.h"
#include "core/thread_pool.h"
#include "fault/fault_plan.h"
#include "fault/stage_faults.h"
#include "harness.h"
#include "platform/accelerator.h"
#include "platform/lane_failover.h"
#include "platform/rpr.h"
#include "runtime/dataflow.h"
#include "runtime/sched_core.h"
#include "sim/simulator.h"
#include "sovpipe/fig5_graph.h"

using namespace sov;

namespace {

runtime::StageGraph
meanGraph(const PlatformModel &model, const SovPipelineConfig &config)
{
    runtime::StageGraph graph;
    buildFig5Graph(graph, model, config, nullptr, Fig5Latency::Mean);
    return graph;
}

/** True when @p run's frames executed strictly one after another:
 *  frame 0 released at the origin, each later frame released exactly
 *  at its predecessor's finish, and every span inside its own frame's
 *  [release, finish] window — so no two frames' spans interleave. */
bool
isSerialSchedule(const runtime::RunResult &run)
{
    if (run.frames.empty() ||
        run.frames.front().release != Timestamp::origin())
        return false;
    for (std::size_t f = 0; f < run.frames.size(); ++f) {
        const runtime::FrameTrace &frame = run.frames[f];
        if (f > 0 && frame.release != run.frames[f - 1].finish)
            return false;
        for (const runtime::StageSpan &span : frame.spans) {
            if (span.start < frame.release || span.finish > frame.finish)
                return false;
        }
    }
    return true;
}

/** Self-paced async characterization; returns the schedule fingerprint. */
std::uint64_t
asyncFingerprint(const PlatformModel &model,
                 const SovPipelineConfig &config, std::size_t frames)
{
    runtime::StageGraph graph = meanGraph(model, config);
    runtime::AsyncOptions opts;
    opts.frames = frames;
    opts.max_in_flight = 3;
    return runtime::DataflowExecutor::runAsync(graph, opts).fingerprint();
}

/**
 * The zero-allocation configuration: a three-stage kernel-style
 * pipeline whose stages materialize real per-frame payloads in a
 * FramePayloadRing, double-buffered to the async admission window.
 * Returns payload mismatches (cross-frame corruption) via @p
 * mismatches.
 */
runtime::RunResult
payloadRun(runtime::FramePayloadRing &ring, std::size_t frames,
           std::size_t window, std::uint64_t &mismatches)
{
    constexpr std::size_t kWords = 4096;
    // One live payload pointer per ring slot; producer writes, the
    // consumer of the same frame validates before the slot is reused.
    std::vector<std::uint32_t *> payload(ring.depth(), nullptr);
    std::uint64_t bad = 0;

    runtime::StageGraph graph;
    const auto produce = graph.addAnalytic(
        "produce", "sensor", [&](std::size_t frame) {
            FrameArena &arena = ring.acquire(frame);
            auto *buf = arena.alloc<std::uint32_t>(kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] = static_cast<std::uint32_t>(frame * 2654435761u + i);
            payload[frame % ring.depth()] = buf;
            return Duration::millisF(5.0);
        });
    const auto transform = graph.addAnalytic(
        "transform", "engine",
        [&](std::size_t frame) {
            std::uint32_t *buf = payload[frame % ring.depth()];
            for (std::size_t i = 0; i < kWords; ++i)
                buf[i] ^= 0xa5a5a5a5u;
            return Duration::millisF(8.0);
        },
        {produce});
    graph.addAnalytic(
        "consume", "cpu",
        [&](std::size_t frame) {
            const std::uint32_t *buf = payload[frame % ring.depth()];
            for (std::size_t i = 0; i < kWords; ++i) {
                const auto expect = static_cast<std::uint32_t>(
                                        frame * 2654435761u + i) ^
                                    0xa5a5a5a5u;
                if (buf[i] != expect)
                    ++bad;
            }
            return Duration::millisF(3.0);
        },
        {transform});

    runtime::AsyncOptions opts;
    opts.frames = frames;
    opts.max_in_flight = window;
    opts.keep_traces = false; // counters + finish times only
    runtime::RunResult result =
        runtime::DataflowExecutor::runAsync(graph, opts);
    mismatches = bad;
    return result;
}

/** One lane-failover characterization on the accelerator-mapped graph:
 *  the localization engine faults at @p fault_frame, the lane fails
 *  over to the resident CPU implementation, and (policy permitting)
 *  the RPR engine restores the fabric. */
struct FailoverOutcome
{
    std::uint64_t fingerprint = 0;
    /** 1 / max completion gap after warmup — the throughput floor the
     *  pipeline holds through the failover window. */
    double floor_hz = 0.0;
    /** Steady throughput over the last quarter of the run. */
    double recovered_hz = 0.0;
    std::uint64_t accel_invocations = 0;
    std::uint64_t cpu_invocations = 0;
    std::uint64_t reconfigurations = 0;
    double reconfig_ms = 0.0;
    double reconfig_energy_mj = 0.0;
    LaneState final_state = LaneState::Accelerated;
};

FailoverOutcome
runFailover(const PlatformModel &model, const AcceleratorModel &accel,
            const SovPipelineConfig &pipe_config, std::size_t frames,
            const LaneFailoverConfig &policy, std::size_t fault_frame)
{
    Simulator sim;
    runtime::StageGraph graph;
    const Fig5Stages stages =
        buildFig5AcceleratorGraph(graph, model, accel, pipe_config, 2);

    const RprEngine engine;
    RprLaneFailover failover(engine, policy, Rng(99).fork("rpr-lane"));

    // Wrap the localization engine's executor: accelerated while the
    // fabric is healthy, the (slower) resident CPU implementation
    // while it is stale. CPU localization stays under the sensing
    // bottleneck, which is exactly why this lane degrades gracefully.
    auto accel_exec = graph.replaceExecutor(
        stages.localization,
        std::make_unique<runtime::FixedExecutor>(Duration::zero()));
    auto cpu_exec = std::make_unique<runtime::FixedExecutor>(
        model.latency(TaskKind::Localization, Platform::CoffeeLakeCpu)
            .mean());
    auto wrapper = std::make_unique<FailoverStageExecutor>(
        std::move(accel_exec), std::move(cpu_exec), failover,
        [&sim] { return sim.now(); },
        [fault_frame](std::size_t frame, Timestamp) {
            return frame == fault_frame;
        });
    const FailoverStageExecutor *fo = wrapper.get();
    graph.replaceExecutor(stages.localization, std::move(wrapper));

    runtime::AsyncOptions opts;
    opts.frames = frames;
    opts.max_in_flight = 2;
    opts.keep_traces = false;
    const runtime::RunResult run =
        runtime::DataflowExecutor::runAsync(sim, graph, opts);

    FailoverOutcome out;
    out.fingerprint = run.fingerprint();
    const std::vector<Timestamp> &finish = run.finish_times;
    const std::size_t warm = 4;
    Duration max_gap = Duration::zero();
    for (std::size_t f = warm; f < finish.size(); ++f)
        max_gap = std::max(max_gap, finish[f] - finish[f - 1]);
    out.floor_hz =
        max_gap > Duration::zero() ? 1.0 / max_gap.toSeconds() : 0.0;
    const std::size_t tail = finish.size() - finish.size() / 4;
    const double tail_s = (finish.back() - finish[tail - 1]).toSeconds();
    out.recovered_hz =
        tail_s > 0.0
            ? static_cast<double>(finish.size() - tail) / tail_s
            : 0.0;
    out.accel_invocations = fo->accelInvocations();
    out.cpu_invocations = fo->cpuInvocations();
    out.reconfigurations = failover.reconfigurations();
    out.reconfig_ms = failover.totalReconfigTime().toMillis();
    out.reconfig_energy_mj = failover.totalReconfigEnergy().toMillijoules();
    out.final_state = failover.state(sim.now());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const std::int64_t frames_arg =
        config.getInt("frames", smoke ? 32 : 256);
    const std::string out_path =
        config.getString("out", "BENCH_dataflow.json");
    const char *const usage =
        "usage: bench_dataflow [smoke=1] [frames>=1] [out=BENCH_dataflow.json]";
    config.rejectUnread(usage);
    if (frames_arg < 1) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }
    const auto frames = static_cast<std::size_t>(frames_arg);

    const PlatformModel model;
    const SovPipelineConfig pipe_config;
    const AcceleratorModel accel;

    std::printf("=== Dataflow execution models (Fig. 5 pipeline, "
                "mean timings) ===\n\n");

    bench::BenchReport report("dataflow");
    report.setSmoke(smoke);
    report.meta("frames", frames);

    // ---- sequential: single-shot critical path ----------------------
    runtime::StageGraph seq_graph = meanGraph(model, pipe_config);
    const runtime::RunResult seq = runtime::DataflowExecutor::runAsync(
        seq_graph, runtime::AsyncOptions::singleShot(frames));
    const double seq_latency_ms = seq.frames.front().latency().toMillis();
    const double seq_hz = seq.steadyStateThroughputHz();

    // ---- pipelined: async self-paced admission ----------------------
    runtime::StageGraph async_graph = meanGraph(model, pipe_config);
    runtime::AsyncOptions async_opts;
    async_opts.frames = frames;
    async_opts.max_in_flight = 3;
    const runtime::RunResult async_run =
        runtime::DataflowExecutor::runAsync(async_graph, async_opts);
    const double async_hz = async_run.steadyStateThroughputHz();
    const double async_latency_ms =
        async_run.frames.front().latency().toMillis();

    // ---- accelerator-mapped: dedicated engines ----------------------
    constexpr std::size_t kOverlap = 2;
    runtime::StageGraph accel_graph;
    buildFig5AcceleratorGraph(accel_graph, model, accel, pipe_config,
                              kOverlap);
    const runtime::RunResult accel_seq = runtime::DataflowExecutor::runAsync(
        accel_graph, runtime::AsyncOptions::singleShot(frames));
    runtime::AsyncOptions accel_async_opts;
    accel_async_opts.frames = frames;
    accel_async_opts.max_in_flight = kOverlap;
    const runtime::RunResult accel_async =
        runtime::DataflowExecutor::runAsync(accel_graph, accel_async_opts);
    const double accel_latency_ms =
        accel_seq.frames.front().latency().toMillis();
    const double accel_hz = accel_async.steadyStateThroughputHz();

    // Perception energy per frame: time-shared platforms vs engines.
    const double soc_energy_mj =
        model.energy(TaskKind::DepthEstimation, pipe_config.scene_platform)
            .toMillijoules() +
        model.energy(TaskKind::Detection, pipe_config.scene_platform)
            .toMillijoules() +
        model
            .energy(TaskKind::Localization,
                    pipe_config.localization_platform)
            .toMillijoules();
    const double accel_energy_mj =
        accel.stageEnergy(TaskKind::DepthEstimation, kOverlap, 4)
            .toMillijoules() +
        accel.stageEnergy(TaskKind::Detection, kOverlap, 4)
            .toMillijoules() +
        accel.stageEnergy(TaskKind::Localization, kOverlap, 4)
            .toMillijoules();

    struct ModeRow
    {
        const char *mode;
        double latency_ms;
        double throughput_hz;
        double energy_mj;
    };
    const ModeRow rows[] = {
        {"sequential", seq_latency_ms, seq_hz, soc_energy_mj},
        {"pipelined-async", async_latency_ms, async_hz, soc_energy_mj},
        {"accelerator-mapped", accel_latency_ms, accel_hz,
         accel_energy_mj},
    };
    for (const ModeRow &row : rows) {
        std::printf("%-20s latency=%7.1f ms  throughput=%5.2f Hz  "
                    "perception=%8.1f mJ/frame\n",
                    row.mode, row.latency_ms, row.throughput_hz,
                    row.energy_mj);
        report.addRow("modes")
            .set("mode", row.mode)
            .set("latency_ms", row.latency_ms)
            .set("throughput_hz", row.throughput_hz)
            .set("perception_energy_mj", row.energy_mj);
    }

    // ---- gate: the window-1 schedule is strictly serial ------------
    runtime::StageGraph sync_graph = meanGraph(model, pipe_config);
    const runtime::RunResult sync = runtime::DataflowExecutor::runAsync(
        sync_graph, runtime::AsyncOptions::singleShot(smoke ? 16 : 64));
    report.meta("sync_fingerprint", bench::hex(sync.fingerprint()));
    report.gate("sync_equivalence", isSerialSchedule(sync),
                "window-1 schedule is serial: frame 0 at the origin, "
                "frame f+1 released at frame f's finish, no "
                "interleaved spans");

    // ---- gate: pipelined throughput floor ---------------------------
    const double speedup = seq_hz > 0.0 ? async_hz / seq_hz : 0.0;
    std::printf("\nasync speedup over single-shot: %.2fx\n", speedup);
    report.meta("async_speedup", speedup);
    report.gate("pipelined_speedup", speedup >= 1.5,
                "self-paced async must reach 1.5x single-shot "
                "throughput on Fig. 5");

    // ---- gate: fingerprints thread-count independent ----------------
    const std::size_t fp_frames = smoke ? 16 : 48;
    constexpr std::size_t kJobs = 4;
    std::vector<std::uint64_t> combined;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> fps(kJobs, 0);
        pool.parallelFor(kJobs, [&](std::size_t j) {
            SovPipelineConfig cfg = pipe_config;
            // Vary the mapping per job so the sweep is not one graph
            // repeated four times.
            cfg.radar_tracking = (j % 2) == 0;
            fps[j] = asyncFingerprint(model, cfg, fp_frames + j);
        });
        combined.push_back(
            bench::fnv1a(fps.data(), fps.size() * sizeof(fps[0])));
    }
    const bool thread_independent = combined[0] == combined[1] &&
                                    combined[1] == combined[2];
    report.meta("async_fingerprint", bench::hex(combined[0]));
    report.gate("thread_independent", thread_independent,
                "async schedule fingerprints identical on 1/2/8 pool "
                "threads");

    // ---- gate: zero steady-state allocations + payload integrity ----
    constexpr std::size_t kWindow = 2;
    runtime::FramePayloadRing ring(kWindow);
    std::uint64_t mismatches_warm = 0;
    std::uint64_t mismatches_steady = 0;
    // Warmup run: the ring's arenas and the executor's pools size
    // themselves.
    payloadRun(ring, smoke ? 8 : 16, kWindow, mismatches_warm);
    const std::size_t ring_allocs_warm = ring.systemAllocations();
    // Steady run on the warmed ring: no new system allocations, no
    // container growth after the fresh executor's own warmup, and no
    // cross-frame payload corruption.
    const runtime::RunResult steady =
        payloadRun(ring, frames, kWindow, mismatches_steady);
    const std::size_t ring_allocs_steady = ring.systemAllocations();
    const bool zero_alloc = steady.steady_growth_events == 0 &&
                            ring_allocs_steady == ring_allocs_warm &&
                            mismatches_warm == 0 &&
                            mismatches_steady == 0;
    std::printf("payload ring: allocs warm=%zu steady=%zu  "
                "core growths post-warmup=%llu  mismatches=%llu\n",
                ring_allocs_warm, ring_allocs_steady,
                static_cast<unsigned long long>(
                    steady.steady_growth_events),
                static_cast<unsigned long long>(mismatches_warm +
                                                mismatches_steady));
    report.addRow("steady_state")
        .set("ring_system_allocs", ring_allocs_steady)
        .set("core_growth_events", steady.growth_events)
        .set("steady_growth_events", steady.steady_growth_events)
        .set("payload_mismatches",
             mismatches_warm + mismatches_steady);
    report.gate("zero_steady_state_alloc", zero_alloc,
                "warm async frames must allocate nothing and never "
                "corrupt a double-buffered payload");

    // ---- gate: supervision is free until a fault fires --------------
    // A full supervision stack — watchdog timeout above every stage
    // duration, bounded retries with backoff, and a fault plan whose
    // channels have probability 0 (no draws, no injections) — must
    // reproduce the unsupervised async schedule bit for bit.
    runtime::StageGraph sup_graph = meanGraph(model, pipe_config);
    fault::FaultPlan noop_plan(Rng(7).fork("noop-plan"));
    for (const char *stage : {"depth", "localization", "planning"}) {
        fault::FaultSpec spec;
        spec.name = std::string("noop-crash-") + stage;
        spec.target = fault::FaultTarget::PipelineStage;
        spec.mode = fault::FaultMode::Crash;
        spec.stage = stage;
        spec.probability = 0.0;
        noop_plan.add(spec);
    }
    Simulator sup_sim;
    const std::size_t sup_wrapped = fault::installStageFaults(
        sup_graph, noop_plan, [&sup_sim] { return sup_sim.now(); });
    runtime::AsyncOptions sup_opts;
    sup_opts.frames = fp_frames;
    sup_opts.max_in_flight = 3;
    runtime::StagePolicy sup_policy;
    sup_policy.timeout = Duration::seconds(10.0);
    sup_policy.max_retries = 2;
    sup_policy.retry_backoff = Duration::millisF(50.0);
    sup_opts.stage_policy = sup_policy;
    const std::uint64_t sup_fp =
        runtime::DataflowExecutor::runAsync(sup_sim, sup_graph, sup_opts)
            .fingerprint();
    const std::uint64_t plain_fp =
        asyncFingerprint(model, pipe_config, fp_frames);
    std::printf("\nsupervised no-op: %zu stages wrapped, %llu "
                "injections, fingerprint %s plain async\n",
                sup_wrapped,
                static_cast<unsigned long long>(
                    noop_plan.totalInjections()),
                sup_fp == plain_fp ? "==" : "!=");
    report.gate("supervised_noop_equivalence",
                sup_fp == plain_fp && sup_wrapped == 3 &&
                    noop_plan.totalInjections() == 0,
                "supervision + never-firing fault plan must be "
                "bit-identical to the unsupervised async schedule");

    // ---- lane failover: accelerator fault -> CPU fallback -> RPR ----
    // Enough frames past the fault for even the ~3.3 s CPU-driven
    // reconfiguration to land inside the run.
    const std::size_t fo_frames = smoke ? 72 : 128;
    const std::size_t fo_fault_frame = fo_frames / 3;
    LaneFailoverConfig rpr_cfg; // hardware engine, first attempt lands
    LaneFailoverConfig cpu_cfg; // CPU-driven reconfiguration baseline
    cpu_cfg.cpu_driven = true;
    LaneFailoverConfig exhausted_cfg; // CRC nearly always fails
    exhausted_cfg.reconfig_failure_probability = 0.999;
    exhausted_cfg.max_retries = 2;
    struct FailoverCase
    {
        const char *name;
        const LaneFailoverConfig *config;
        LaneState expect;
    };
    const FailoverCase fo_cases[] = {
        {"rpr-engine", &rpr_cfg, LaneState::Accelerated},
        {"cpu-driven", &cpu_cfg, LaneState::Accelerated},
        {"budget-exhausted", &exhausted_cfg, LaneState::CpuResident},
    };
    std::printf("\n--- accelerator lane failover (localization engine "
                "faults at frame %zu) ---\n",
                fo_fault_frame);
    bool fo_floor_ok = true;
    bool fo_recovers_ok = true;
    std::vector<std::uint64_t> fo_fps;
    for (const FailoverCase &fc : fo_cases) {
        const FailoverOutcome out = runFailover(
            model, accel, pipe_config, fo_frames, *fc.config,
            fo_fault_frame);
        fo_fps.push_back(out.fingerprint);
        std::printf("%-18s floor=%5.2f Hz  recovered=%5.2f Hz  "
                    "cpu/accel=%llu/%llu  reconfigs=%llu "
                    "(%.1f ms, %.1f mJ)  final=%s\n",
                    fc.name, out.floor_hz, out.recovered_hz,
                    static_cast<unsigned long long>(out.cpu_invocations),
                    static_cast<unsigned long long>(
                        out.accel_invocations),
                    static_cast<unsigned long long>(out.reconfigurations),
                    out.reconfig_ms, out.reconfig_energy_mj,
                    toString(out.final_state));
        report.addRow("failover")
            .set("policy", fc.name)
            .set("floor_hz", out.floor_hz)
            .set("recovered_hz", out.recovered_hz)
            .set("sequential_hz", seq_hz)
            .set("cpu_invocations", out.cpu_invocations)
            .set("accel_invocations", out.accel_invocations)
            .set("reconfigurations", out.reconfigurations)
            .set("reconfig_ms", out.reconfig_ms)
            .set("reconfig_energy_mj", out.reconfig_energy_mj)
            .set("final_state", toString(out.final_state));
        // The CPU implementation of the faulted lane stays under the
        // sensing bottleneck, so even mid-failover the pipeline must
        // beat the single-shot baseline.
        if (out.floor_hz < seq_hz)
            fo_floor_ok = false;
        // Policies whose reconfiguration lands must end re-accelerated
        // (with the CPU having carried the stale window); an exhausted
        // budget must park the lane CPU-resident.
        if (out.final_state != fc.expect || out.cpu_invocations == 0)
            fo_recovers_ok = false;
        if (fc.expect == LaneState::Accelerated &&
            out.accel_invocations <= fo_fault_frame)
            fo_recovers_ok = false;
    }
    report.gate("failover_throughput_floor", fo_floor_ok,
                "throughput during RPR failover must stay >= the "
                "sequential baseline");
    report.gate("failover_recovers", fo_recovers_ok,
                "fabric recovers after reconfiguration (or parks "
                "CPU-resident on an exhausted retry budget)");

    // The failover schedule is simulation-clock pure: characterizing
    // it on 1/2/8 host threads (one case per pool job) must reproduce
    // the same fingerprints.
    std::vector<std::uint64_t> fo_combined;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::uint64_t> fps(3, 0);
        pool.parallelFor(3, [&](std::size_t j) {
            fps[j] = runFailover(model, accel, pipe_config, fo_frames,
                                 *fo_cases[j].config, fo_fault_frame)
                         .fingerprint;
        });
        fo_combined.push_back(
            bench::fnv1a(fps.data(), fps.size() * sizeof(fps[0])));
    }
    const bool fo_thread_independent =
        fo_combined[0] == fo_combined[1] &&
        fo_combined[1] == fo_combined[2] &&
        fo_combined[0] == bench::fnv1a(fo_fps.data(),
                                       fo_fps.size() * sizeof(fo_fps[0]));
    report.meta("failover_fingerprint", bench::hex(fo_combined[0]));
    report.gate("failover_thread_independent", fo_thread_independent,
                "failover schedule fingerprints identical on 1/2/8 "
                "pool threads");

    return report.write(out_path);
}
