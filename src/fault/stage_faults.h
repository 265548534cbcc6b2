/**
 * @file
 * Pipeline-stage fault injection: wraps any runtime::StageExecutor and
 * turns FaultPlan channels into crash / hang / latency outcomes that
 * the DataflowExecutor's watchdog policies supervise.
 *
 * The wrapper always invokes the inner executor first, so the inner
 * sampler's random stream advances exactly as in a fault-free run —
 * a plan whose channels never fire reproduces the baseline schedule
 * bit for bit.
 */
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_plan.h"
#include "runtime/stage_graph.h"

namespace sov::fault {

/** Fault-injecting decorator over a stage executor. */
class StageFaultInjector final : public runtime::StageExecutor
{
  public:
    /** Supplies the current model time for window checks; an unset
     *  clock pins evaluation to the origin (always-open windows). */
    using Clock = std::function<Timestamp()>;

    StageFaultInjector(std::unique_ptr<runtime::StageExecutor> inner,
                       Clock clock)
        : inner_(std::move(inner)), clock_(std::move(clock)) {}

    /** Attach a Crash / Hang / LatencyMultiplier / LatencySpike
     *  channel; evaluated in attachment order, first crash or hang
     *  wins. Channel not owned, must outlive the injector. A channel
     *  in a sensor mode (Dropout, Freeze, Corruption) is refused with
     *  a fatal error naming its spec. */
    void addChannel(FaultChannel *channel);

    Duration execute(std::size_t frame) override;
    runtime::StageOutcome lastOutcome() const override { return outcome_; }
    const char *kind() const override { return "fault-injected"; }

    runtime::StageExecutor &inner() { return *inner_; }

  private:
    std::unique_ptr<runtime::StageExecutor> inner_;
    Clock clock_;
    std::vector<FaultChannel *> channels_;
    runtime::StageOutcome outcome_ = runtime::StageOutcome::Ok;
};

/**
 * Wrap every stage named by a PipelineStage channel of @p plan with a
 * StageFaultInjector (in place, via StageGraph::replaceExecutor) and
 * attach the channels. Stages named by several channels get one
 * injector with all of them. A stage channel in a sensor mode is
 * refused (see StageFaultInjector::addChannel).
 * @return Number of stages wrapped.
 */
std::size_t installStageFaults(runtime::StageGraph &graph, FaultPlan &plan,
                               StageFaultInjector::Clock clock);

} // namespace sov::fault
