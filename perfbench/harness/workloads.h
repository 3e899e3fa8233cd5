// The four benchmark workloads and one timed pass over each.
//
// A pass is the workload's whole run set, executed through the
// library's public entry points (sim::run_jobs, sim::System, the
// bench_fleet_campaign CLI). It returns host timings taken around those
// calls, a digest of every simulated output, and summed StatSet
// counters. The same pass code serves the untraced (timed) and the
// traced run; only the Spans recorder and the injected TraceSource
// wrapper differ.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/system.h"
#include "support.h"
#include "trace/benchmarks.h"

namespace perfbench {

/// One System run of a workload: a benchmark under one policy/config.
struct Job {
  const mecc::trace::BenchmarkProfile* profile = nullptr;
  mecc::sim::SystemConfig config;  // policy and per-job seed filled in
  [[nodiscard]] std::string id() const;
};

enum class Kind { kSuite, kSerial, kLifecycle, kFleet };

struct Workload {
  std::string name;
  Kind kind = Kind::kSerial;
  std::uint64_t seed = 1;
  std::vector<Job> jobs;  // empty for the fleet
  unsigned workers = 1;   // run_jobs threads / fleet worker processes
  // Lifecycle: per benchmark, `bursts` x (run_period + idle_period).
  unsigned bursts = 0;
  double idle_seconds = 0.0;
  // Fleet campaign shape.
  std::uint64_t fleet_devices = 0;
  // Raw bit error rate the codec / reliability legs inject: the
  // workload's idle BER (the fault campaign's override, else the
  // retention model's BER at MECC's 1 s idle refresh).
  double ber = 0.0;
};

[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Where a pass finds external programs and scratch space.
struct Env {
  std::string fleet_exe;  // bench_fleet_campaign binary
  std::string work_dir;   // fresh fleet state dirs are made under it
};

struct PassOut {
  double wall_s = 0.0;
  std::vector<double> setup_s;  // System construction (or campaign set-up)
  double active_s = 0.0;        // host time inside active-period calls
  std::uint64_t work = 0;       // instructions retired, or devices
  std::vector<double> run_ms;   // per active-period call (job, campaign)
  std::vector<double> idle_ms;  // per idle_period call
  std::vector<double> wait_ms;  // op start - pass start
  double busy_s = 0.0;          // summed op time (CPU time for the fleet)
  std::map<std::string, std::string> digests;  // op id -> digest
  std::map<std::string, double> stats;  // summed final StatSets
  double fig7_ipc_err = -1.0;           // suite only
  std::string fleet_report;  // the campaign's --out JSON, as read back
  std::uint64_t state_bytes = 0;
  long peak_child_rss_kb = 0;
  std::vector<std::string> errors;  // one per failed operation
};

/// Runs one pass. With `spans` enabled, records spans around every
/// public call and (single-stream System workloads) injects the
/// batching TraceSource wrapper, whose records count into *next_calls.
[[nodiscard]] PassOut run_pass(const Workload& w, const Env& env, Spans& spans,
                               std::uint64_t* next_calls);

/// Stream 0's generator parameters exactly as System derives them, so an
/// injected wrapper around it is transparent to the simulation.
[[nodiscard]] mecc::trace::GeneratorConfig stream0_generator(
    const mecc::sim::SystemConfig& c);

/// Adds a System's final StatSet into `out`, summing counters and gauges.
void add_stats(const mecc::StatSet& s, std::map<std::string, double>& out);

/// Digest of every simulated field of a RunResult (the library's own
/// run_result_json serialization, which excludes host wall time).
[[nodiscard]] std::uint64_t digest(const mecc::sim::RunResult& r,
                                   std::uint64_t h = kFnvOffset);

/// Prefetches records from a wrapped source in batches, so each clock
/// pair covers many sub-microsecond next() calls; records a
/// "trace.next" span per batch. Transparent: the generator is a pure
/// function of its seed, so reading ahead changes no simulated output.
class BatchingSource final : public mecc::trace::TraceSource {
 public:
  BatchingSource(std::unique_ptr<mecc::trace::TraceSource> inner,
                 Spans& spans, std::uint64_t* consumed)
      : inner_(std::move(inner)), spans_(spans), consumed_(consumed) {}
  mecc::trace::TraceRecord next() override;
  void export_stats(mecc::StatSet& out) const override {
    inner_->export_stats(out);
  }

 private:
  static constexpr std::size_t kBatch = 256;
  std::unique_ptr<mecc::trace::TraceSource> inner_;
  Spans& spans_;
  std::uint64_t* consumed_;
  std::vector<mecc::trace::TraceRecord> buf_;
  std::size_t pos_ = 0;
};

/// A System for `job`, with the batching wrapper injected when `wrap`.
[[nodiscard]] std::unique_ptr<mecc::sim::System> make_system(
    const Job& job, bool wrap, Spans& spans, std::uint64_t* next_calls);

}  // namespace perfbench
