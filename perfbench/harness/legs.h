// Standalone layer legs of the traced run. Each leg drives one layer's
// public calls directly, with inputs generated from the workload's own
// profiles, geometry, refresh policy, BER and seed, and times them in
// batches (one clock pair per batch, its calibrated cost removed), after
// an untimed warm-up batch. Each leg also checks its layer's output.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "support.h"
#include "workloads.h"

namespace perfbench {

struct LegReport {
  std::map<std::string, double> metrics;  // per-layer metric -> value
  std::map<std::string, double> stats;    // sys leg: summed StatSets
  std::vector<std::string> errors;        // failed leg checks
  std::uint64_t checks = 0;               // legs and sim-leg Systems run
};

/// The sim-layer leg: a sample of the workload's Systems, each
/// constructed, run for one active period (with the batching
/// TraceSource when single-stream) and put through one idle period.
/// `pass_digests` (op id -> digest of the untraced pass) lets the leg
/// check that the injected source changes no simulated output.
void run_system_leg(const Workload& w, Spans& spans,
                    const std::map<std::string, std::string>& pass_digests,
                    std::uint64_t* next_calls, LegReport& out);

/// Every other leg: memctrl, cpu, trace, mecc, ecc, reliability, fleet.
void run_layer_legs(const Workload& w, Spans& spans, double clock_ns,
                    LegReport& out);

}  // namespace perfbench
