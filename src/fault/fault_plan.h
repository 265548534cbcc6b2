/**
 * @file
 * Deterministic, seed-driven fault injection (Sec. III-C).
 *
 * The paper's safety argument rests on the vehicle staying safe when
 * components misbehave: sensors go silent or lie, pipeline stages
 * crash, hang or blow their latency budget, the CAN link drops frames.
 * A FaultPlan describes such scenarios as a set of FaultSpecs — each
 * an injection window, a per-event probability, and mode-specific
 * magnitudes — and materializes one FaultChannel per spec. (The FPGA
 * failing to reconfigure is not a channel: RprEngine's
 * reconfigureWithFaults takes that probability directly.)
 *
 * Determinism rules:
 *  - every channel forks its own Rng stream from the plan seed keyed
 *    by the spec name, so adding a fault never perturbs another
 *    fault's (or the simulation's) stream;
 *  - a channel whose window excludes the query time, or whose
 *    probability is 0 or 1, decides without drawing — a plan that is
 *    constructed but never fires leaves every random stream
 *    bit-identical to a run without the plan.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/time.h"
#include "obs/trace.h"

namespace sov::fault {

/** What component the fault targets. */
enum class FaultTarget
{
    Camera,
    Radar,
    Perception,    //!< algorithm-level: the detector misses an object
    PipelineStage, //!< a StageExecutor of the dataflow graph
    CanBus,        //!< command frame loss on the CAN link
};

/** Number of FaultTarget values (CanBus is the last). */
inline constexpr std::size_t kFaultTargetCount =
    static_cast<std::size_t>(FaultTarget::CanBus) + 1;

/** How the fault manifests. */
enum class FaultMode
{
    Dropout,           //!< the event produces nothing
    Freeze,            //!< the sensor repeats its last good sample
    LatencySpike,      //!< the event is delayed by FaultSpec::latency
    Corruption,        //!< values get FaultSpec::corruption_sigma noise
    Crash,             //!< stage fails after FaultSpec::latency detect time
    Hang,              //!< stage never completes (latency = hang time)
    LatencyMultiplier, //!< stage duration scaled by FaultSpec::multiplier
};

const char *toString(FaultTarget target);
const char *toString(FaultMode mode);

/** One injected fault: where, how, when, how often, how hard. */
struct FaultSpec
{
    /** Unique tag; keys the channel's forked Rng stream. */
    std::string name;
    FaultTarget target = FaultTarget::Camera;
    FaultMode mode = FaultMode::Dropout;
    /** Stage name in the graph (PipelineStage targets only). */
    std::string stage;
    /** Injection window [start, end). */
    Timestamp window_start = Timestamp::origin();
    Timestamp window_end = Timestamp::never();
    /** Per-event injection chance inside the window. */
    double probability = 1.0;
    /** LatencySpike extra delay / Crash detection time / Hang time. */
    Duration latency = Duration::zero();
    /** LatencyMultiplier scale factor. */
    double multiplier = 1.0;
    /** Corruption noise sigma (value units, e.g. meters). */
    double corruption_sigma = 0.0;
};

/** Runtime state of one FaultSpec. */
class FaultChannel
{
  public:
    FaultChannel(FaultSpec spec, Rng rng)
        : spec_(std::move(spec)), rng_(std::move(rng)) {}

    /**
     * Decide one injection opportunity at time @p t. Draws from the
     * channel stream only for 0 < probability < 1 inside the window.
     */
    bool shouldInject(Timestamp t);

    /** Corruption draw: @p value plus gaussian spec sigma noise. */
    double corrupt(double value);

    const FaultSpec &spec() const { return spec_; }
    /** Injections decided so far (for reports and tests). */
    std::uint64_t injections() const { return injections_; }

    /** Emit an instant (category "fault", named after the spec) into
     *  @p recorder for every injection decided from now on. Purely
     *  observational: never touches the channel's Rng stream. */
    void setTraceRecorder(obs::TraceRecorder *recorder);

  private:
    FaultSpec spec_;
    Rng rng_;
    std::uint64_t injections_ = 0;
    obs::TraceRecorder *recorder_ = nullptr;
    obs::NameId trace_name_ = 0;
    obs::NameId trace_category_ = 0;
    obs::NameId trace_track_ = 0;
};

/** A fault scenario: owned channels, stable addresses. */
class FaultPlan
{
  public:
    /** @param rng Master stream; each channel forks from it by name. */
    explicit FaultPlan(Rng rng = Rng(0xFA017ULL)) : rng_(std::move(rng)) {}

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    /** Register @p spec; the returned channel lives as long as the
     *  plan. Spec names must be unique within the plan; the
     *  probability must lie in [0, 1], the window must not end before
     *  it starts, and latency, multiplier and corruption sigma must be
     *  non-negative (the last two finite). */
    FaultChannel &add(const FaultSpec &spec);

    /** All channels aimed at @p target. */
    std::vector<FaultChannel *> channelsFor(FaultTarget target);

    bool empty() const { return channels_.empty(); }
    std::size_t size() const { return channels_.size(); }

    /** Sum of injections across all channels. */
    std::uint64_t totalInjections() const;

    /** Trace every channel's injections into @p recorder (applies to
     *  channels added later too; nullptr detaches). */
    void setTraceRecorder(obs::TraceRecorder *recorder);

  private:
    Rng rng_;
    std::vector<std::unique_ptr<FaultChannel>> channels_;
    obs::TraceRecorder *recorder_ = nullptr;
};

} // namespace sov::fault
