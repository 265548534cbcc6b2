/**
 * @file
 * Engine Control Unit: receives commands from the CAN bus (proactive
 * path) and direct safety overrides (reactive path, which "bypasses
 * the processing system and directly controls the actuator",
 * Sec. III-A) and drives the actuator after the vehicle's mechanical
 * reaction latency (~19 ms, T_mech).
 */
#pragma once

#include "core/ring.h"
#include "core/time.h"
#include "planning/planner_types.h"
#include "sim/simulator.h"
#include "vehicle/dynamics.h"

namespace sov {

/**
 * ECU + actuator with mechanical latency. Commands and brake overrides
 * all take that one latency, so they reach the actuator in the order
 * they arrived: commands wait in a FIFO, and each actuation event
 * names only its kind.
 */
class Ecu final : private EventTarget
{
  public:
    /**
     * @param sim Event engine for the mechanical delay.
     * @param vehicle The plant the actuator drives.
     * @param mechanical_latency T_mech (default 19 ms, Sec. III-A).
     */
    Ecu(Simulator &sim, VehicleDynamics &vehicle,
        Duration mechanical_latency = Duration::millisF(19.0))
        : sim_(sim), vehicle_(vehicle),
          mechanical_latency_(mechanical_latency) {}

    /** Normal (proactive path) command entry, via the CAN bus. */
    void onCommand(const ControlCommand &command);

    /**
     * Reactive-path safety override: emergency brake that reaches the
     * actuator with the same mechanical latency but without traversing
     * the computing pipeline. Overrides proactive commands until
     * released.
     */
    void emergencyBrake();

    /** Release a previously latched emergency brake. */
    void releaseEmergencyBrake();

    bool emergencyLatched() const { return emergency_; }
    Duration mechanicalLatency() const { return mechanical_latency_; }

  private:
    enum Actuation : std::uint64_t { kCommand, kBrake };

    /** An actuation event (arg: Actuation) reaches the actuator. */
    void onEvent(std::uint64_t arg) override;

    Simulator &sim_;
    VehicleDynamics &vehicle_;
    Duration mechanical_latency_;
    /** Commands whose actuation event is pending, oldest first. */
    Ring<ControlCommand> commands_;
    bool emergency_ = false;
};

} // namespace sov
