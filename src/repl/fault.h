// Fault-injection plans for the geo-replication simulator.
//
// A FaultPlan describes everything that can go wrong on the simulated network and
// machines: per-link message drop/duplication/reorder probabilities, latency jitter and
// heavy-tailed spikes, replica crash+restart schedules, and coordinator outage windows.
// The plan itself is pure data — every probabilistic decision is sampled from the
// simulator's dedicated fault Rng, so a (plan, seed) pair fully determines the fault
// schedule and every chaos run is reproducible.
//
// A default-constructed plan injects nothing: the paper's perfect network, fixed latency
// and lossless delivery. The simulator runs the same protocol over it as over any other
// plan.
#ifndef SRC_REPL_FAULT_H_
#define SRC_REPL_FAULT_H_

#include <map>
#include <utility>
#include <vector>

#include "src/support/rng.h"

namespace noctua::repl {

// Endpoint id used in link keys for the centralized coordination service.
inline constexpr int kCoordinatorEndpoint = -1;

// Fault characteristics of one directed link. All probabilities are per message copy.
struct LinkFaults {
  double drop = 0;       // message lost in transit
  double duplicate = 0;  // link delivers a second copy (independently delayed)
  double reorder = 0;    // message displaced by an extra uniform delay (overtaking)
  double reorder_window_ms = 2.0;  // displacement bound for reordered messages
  double jitter_ms = 0;  // uniform extra latency in [0, jitter_ms) on every message
  double spike = 0;      // probability of a heavy-tailed latency spike
  double spike_mean_ms = 0;  // exponential mean of the spike magnitude
};

// One replica failure: the site stops at `at_ms` (in-flight requests are lost, its
// replica state is frozen as of the crash — restart-from-disk semantics) and comes back
// at `restart_ms`, when it catches up on missed effects via anti-entropy before serving
// clients again. `restart_ms` may lie past the simulation horizon, modeling a replica
// that never recovers during the run (the final quiescence sync still heals its state).
struct CrashSchedule {
  int site = 0;
  double at_ms = 0;
  double restart_ms = 0;
};

// A window during which the coordination service processes nothing: admission and
// release messages arriving inside [start_ms, end_ms) are lost and must be retried.
struct OutageWindow {
  double start_ms = 0;
  double end_ms = 0;
};

// The sampled fate of one message transmission.
struct MessageFate {
  bool dropped = false;
  int copies = 1;  // 2 when the link duplicated the message
};

struct FaultPlan {
  // Faults applied to every link unless overridden for a specific directed pair.
  LinkFaults link;
  // Per-link overrides keyed by (from, to); kCoordinatorEndpoint denotes the
  // coordination service side.
  std::map<std::pair<int, int>, LinkFaults> link_overrides;
  std::vector<CrashSchedule> crashes;
  std::vector<OutageWindow> coordinator_outages;

  // Whether the coordinator is inside an outage window at time t.
  bool CoordinatorDown(double t_ms) const;

  const LinkFaults& LinkFor(int from, int to) const;

  // Samples drop/duplication for one transmission on the given link.
  MessageFate SampleFate(const LinkFaults& link_faults, Rng* rng) const;
  // Samples the extra delay (jitter + reorder displacement + spike) for one copy.
  double SampleExtraDelay(const LinkFaults& link_faults, Rng* rng) const;

  // --- Presets used by the chaos harness and benches ------------------------------------
  static FaultPlan None() { return FaultPlan{}; }
  // Lossy network: messages dropped / duplicated with the given probabilities.
  static FaultPlan Lossy(double drop, double duplicate = 0.0);
  // Slow, unordered network: uniform jitter plus occasional exponential spikes.
  static FaultPlan Jittery(double jitter_ms, double reorder, double spike,
                           double spike_mean_ms);
  // One replica crash+restart on an otherwise slightly lossy network.
  static FaultPlan CrashRestart(int site, double at_ms, double restart_ms,
                                double drop = 0.0);
};

}  // namespace noctua::repl

#endif  // SRC_REPL_FAULT_H_
