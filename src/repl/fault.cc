#include "src/repl/fault.h"

namespace noctua::repl {

bool FaultPlan::CoordinatorDown(double t_ms) const {
  for (const OutageWindow& w : coordinator_outages) {
    if (t_ms >= w.start_ms && t_ms < w.end_ms) {
      return true;
    }
  }
  return false;
}

const LinkFaults& FaultPlan::LinkFor(int from, int to) const {
  auto it = link_overrides.find({from, to});
  return it != link_overrides.end() ? it->second : link;
}

MessageFate FaultPlan::SampleFate(const LinkFaults& link_faults, Rng* rng) const {
  MessageFate fate;
  if (rng->Chance(link_faults.drop)) {
    fate.dropped = true;
    return fate;
  }
  if (rng->Chance(link_faults.duplicate)) {
    fate.copies = 2;
  }
  return fate;
}

double FaultPlan::SampleExtraDelay(const LinkFaults& link_faults, Rng* rng) const {
  constexpr double kReorderWindowMs = 2.0;  // displacement bound for reordered messages
  double extra = 0;
  if (link_faults.jitter_ms > 0) {
    extra += rng->NextUniform(0, link_faults.jitter_ms);
  }
  if (link_faults.reorder > 0 && rng->Chance(link_faults.reorder)) {
    extra += rng->NextUniform(0, kReorderWindowMs);
  }
  if (link_faults.spike > 0 && rng->Chance(link_faults.spike)) {
    extra += rng->NextExponential(link_faults.spike_mean_ms);
  }
  return extra;
}

FaultPlan FaultPlan::Lossy(double drop, double duplicate) {
  FaultPlan plan;
  plan.link.drop = drop;
  plan.link.duplicate = duplicate;
  return plan;
}

FaultPlan FaultPlan::Jittery(double jitter_ms, double reorder, double spike,
                             double spike_mean_ms) {
  FaultPlan plan;
  plan.link.jitter_ms = jitter_ms;
  plan.link.reorder = reorder;
  plan.link.spike = spike;
  plan.link.spike_mean_ms = spike_mean_ms;
  return plan;
}

FaultPlan FaultPlan::CrashRestart(int site, double at_ms, double restart_ms, double drop) {
  FaultPlan plan;
  plan.link.drop = drop;
  plan.crashes.push_back({site, at_ms, restart_ms});
  return plan;
}

}  // namespace noctua::repl
