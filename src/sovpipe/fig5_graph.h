/**
 * @file
 * THE Fig. 5 pipeline, expressed once as a runtime::StageGraph.
 *
 * Per frame: sensing feeds perception; within perception, localization
 * runs parallel to scene understanding (depth || detection serialized
 * on the scene platform, tracking after detection); planning consumes
 * both branches. Every consumer of the SoV pipeline — the Fig. 10
 * latency characterization, the pipelined throughput run, and the
 * closed-loop safety experiments — builds its graph through this
 * function, so the DAG cannot drift between experiments.
 *
 * Resource lanes: the scene-understanding stages share one lane (the
 * accelerator they are mapped to) and so serialize; localization gets
 * its own lane even when mapped to the same physical GPU, because the
 * paper models GPU sharing as the Fig. 8 contention multiplier on the
 * kernels' latency distributions, not as time-slicing.
 */
#pragma once

#include <cstddef>

#include "core/rng.h"
#include "platform/accelerator.h"
#include "platform/platform_model.h"
#include "runtime/stage_graph.h"

namespace sov {

/** Which planner runs (MPC lane-level vs EM-style fine-grained). */
enum class PlannerKind { LaneMpc, EmStyle };

/** Pipeline configuration: the algorithm-to-hardware mapping. */
struct SovPipelineConfig
{
    Platform scene_platform = Platform::Gtx1060;
    Platform localization_platform = Platform::ZynqFpga;
    PlannerKind planner = PlannerKind::LaneMpc;
    /** Radar replaces KCF tracking (Sec. VI-B); if false the KCF
     *  baseline runs serialized after detection. */
    bool radar_tracking = true;
    double frame_rate_hz = 10.0; //!< pipeline cadence (Sec. III-A)
};

/** Stage ids of the built graph, for span lookups. */
struct Fig5Stages
{
    runtime::StageId sensing = 0;
    runtime::StageId depth = 0;
    runtime::StageId detection = 0;
    runtime::StageId tracking = 0;
    runtime::StageId localization = 0;
    runtime::StageId planning = 0;
};

/** How stage durations are produced. */
enum class Fig5Latency
{
    Sampled, //!< draw from the calibrated distributions (needs rng)
    Mean,    //!< deterministic analytic means (throughput runs)
};

/**
 * Append the Fig. 5 stages to @p graph.
 * @param rng Stream the Sampled executors draw from; must outlive the
 *        graph. May be nullptr in Mean mode.
 */
Fig5Stages buildFig5Graph(runtime::StageGraph &graph,
                          const PlatformModel &model,
                          const SovPipelineConfig &config, Rng *rng,
                          Fig5Latency mode = Fig5Latency::Sampled);

/**
 * Accelerator-mapped variant of the same DAG: each perception stage
 * runs on its own dedicated dataflow engine (lanes "accel-depth",
 * "accel-detect", "accel-track", "accel-loc"), so depth and detection
 * no longer serialize on a shared scene platform and successive frames
 * stream through the engines. Stage durations are the deterministic
 * AcceleratorModel latencies — issue + compute + the spill penalty of
 * keeping @p overlap_depth frames' working sets resident. Sensing
 * stays on the sensor SoC and planning on the CPU (analytic means), so
 * the comparison against buildFig5Graph isolates the perception
 * mapping.
 */
Fig5Stages buildFig5AcceleratorGraph(runtime::StageGraph &graph,
                                     const PlatformModel &model,
                                     const AcceleratorModel &accel,
                                     const SovPipelineConfig &config,
                                     std::size_t overlap_depth = 2);

} // namespace sov
