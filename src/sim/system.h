// Full-system simulation: in-order core -> MECC engine -> memory
// controller -> LPDDR device, with Micron-style power accounting.
//
// One System instance simulates one *active period* of one benchmark
// under one ECC policy. Idle-mode power and the idle-entry ECC-Upgrade
// are analytic (paper Eq. 1) and exposed via the MECC engine and
// PowerModel; see sim/experiment.h for the idle/active composition used
// by Figs. 8-10.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "cpu/core.h"
#include "dram/device.h"
#include "ecc/ecc_model.h"
#include "mecc/engine.h"
#include "mecc/shadow_memory.h"
#include "memctrl/address_map.h"
#include "memctrl/controller.h"
#include "memctrl/due_policy.h"
#include "power/power_model.h"
#include "sim/thread_pool.h"
#include "reliability/retention_model.h"
#include "trace/benchmarks.h"
#include "trace/trace_source.h"

namespace mecc::sim {

enum class EccPolicy : std::uint8_t { kNoEcc, kSecded, kEcc6, kMecc };

[[nodiscard]] std::string policy_name(EccPolicy p);

/// Fault-campaign knobs: attach a sampled-set functional shadow memory
/// (morph::ShadowMemory) to the System so idle periods at a slowed
/// refresh inject real retention errors into stored codewords, every
/// shadowed access runs through the real LineCodec, and DUEs climb the
/// memctrl::DuePolicy degradation ladder. docs/RELIABILITY.md.
struct FaultCampaignConfig {
  bool enabled = false;  // requires an ECC policy (not kNoEcc)
  /// Shadowed-line capacity and address sampling (see ShadowConfig).
  std::size_t shadow_lines = 4096;
  Address sample_stride = 1;
  /// Idle-period BER override; < 0 derives the BER from the
  /// RetentionModel at the effective idle refresh period.
  double ber_override = -1.0;
  /// Per-read transient bit error rate (read-path glitches a controller
  /// retry can cure). 0 = persistent retention errors only.
  double transient_read_ber = 0.0;
  /// DUE escalation ladder configuration.
  memctrl::DuePolicyConfig due{};
};

struct SystemConfig {
  EccPolicy policy = EccPolicy::kNoEcc;
  InstCount instructions = 20'000'000;

  // Scaled-slice knobs (DESIGN.md S3). 0 = auto: footprints shrink by the
  // same factor as the instruction slice (instructions / 4e9), preserving
  // the paper's first-touch-per-access and downgrade-traffic ratios at
  // any slice length.
  double footprint_scale = 0.0;
  // MPKI phase segment length; 0 = auto (instructions / 8, so every run
  // sees the full phase schedule regardless of slice length).
  std::uint64_t phase_length_insts = 0;

  Cycle ecc6_decode_cycles = 30;   // Fig. 12 sweeps 15..60

  // Event-driven fast-forward (docs/PERFORMANCE.md): when every
  // component is provably quiescent, run_period jumps straight to the
  // next event instead of ticking cycle by cycle. Bit-identical to the
  // per-cycle reference loop (--fast-forward=off keeps that loop as an
  // escape hatch and for the equivalence tests).
  bool fast_forward = true;

  // Strong-ECC correction strength for MECC / always-strong runs. 6 is
  // the paper's choice; other values exercise the closing claim that
  // MECC morphs between arbitrary ECC levels (decode latency then follows
  // EccModel::decode_cycles_for_strength, and ecc6_decode_cycles is
  // ignored).
  std::size_t strong_ecc_t = 6;

  // MECC options.
  bool mecc_use_mdt = true;
  std::size_t mdt_entries = 1024;
  bool mecc_use_smd = false;
  double smd_mpkc_threshold = 2.0;
  Cycle smd_quantum_cycles = 1'024'000;  // 64 ms / 100 (scaled)

  // Record cumulative cycles when retiring past these instruction counts
  // (Fig. 13 transition study).
  std::vector<InstCount> checkpoint_insts;

  std::uint64_t seed = 1;

  // Replay a USIMM-style trace file instead of the synthetic generator
  // (the profile then only supplies base_ipc calibration).
  std::string trace_file;

  dram::Geometry geometry{};
  dram::Timing timing{};
  memctrl::ControllerConfig controller{};
  power::PowerParams power{};
  FaultCampaignConfig fault{};

  // Observability (docs/OBSERVABILITY.md): event tracing and the
  // windowed metrics timeline. Both default-disabled; when disabled the
  // hooks cost one null check each.
  tracing::TraceConfig trace{};
  tracing::MetricsConfig metrics{};

  // Nominal read latency used to back out each benchmark's non-memory
  // retire rate from its Table III IPC.
  double calibration_read_latency_cycles = 140.0;

  // ---- multi-channel / multi-rank / multi-stream shape ----
  // (docs/SCALING.md). geometry.channels x geometry.ranks size the
  // memory system; these knobs pick the routing and the request load.
  // All defaults reproduce the historical 1-channel single-stream
  // System bit for bit.
  //
  // Channel/rank/bank interleave for the system-level router (also
  // copied into every controller's internal decode map).
  memctrl::Interleave interleave = memctrl::Interleave::kLine;
  // Independent request streams: K in-order cores, each with its own
  // decorrelated generator over its own slice of physical memory, all
  // retiring on one shared clock. Trace-file replay forces 1.
  std::uint32_t streams = 1;
  // >0: during unobserved fast-forward runs, tick independent channels
  // in parallel on a pool of this many threads over provably
  // synchronization-free spans (bit-identical to the serial order).
  unsigned channel_threads = 0;
};

struct Checkpoint {
  InstCount instructions = 0;
  Cycle cycles = 0;
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

/// Outcome of one idle period (the Fig. 4 right-hand state).
struct IdleReport {
  std::uint64_t lines_upgraded = 0;   // ECC-Upgrade walk on entry
  double upgrade_seconds = 0.0;
  double idle_seconds = 0.0;          // time asleep in self refresh
  double idle_energy_mj = 0.0;        // refresh + background while asleep
  std::uint64_t refresh_pulses = 0;   // internal SR refreshes performed
  double refresh_period_s = 0.064;    // effective period while asleep

  // Fault campaign (when SystemConfig::fault.enabled): retention errors
  // injected into the shadow memory during this idle period.
  std::uint64_t injected_bits = 0;
  double injected_ber = 0.0;
};

struct RunResult {
  std::string benchmark;
  EccPolicy policy = EccPolicy::kNoEcc;
  InstCount instructions = 0;
  Cycle cpu_cycles = 0;
  double ipc = 0.0;
  double seconds = 0.0;
  double measured_mpki = 0.0;

  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t strong_decodes = 0;  // reads decoded with ECC-6
  std::uint64_t weak_decodes = 0;
  std::uint64_t downgrades = 0;      // ECC-Downgrade write-backs generated

  power::ActiveEnergy energy;        // memory energy over the run
  double avg_power_mw = 0.0;
  double edp_mj_s = 0.0;             // energy-delay product

  // MECC observability.
  std::uint64_t mdt_marked_regions = 0;
  std::uint64_t mdt_tracked_bytes = 0;
  double frac_downgrade_disabled = 0.0;  // SMD: share of run disabled

  std::vector<Checkpoint> checkpoints;
  // Snapshot of the System's StatRegistry: every component's counters /
  // gauges / distributions under hierarchical `component.stat` keys
  // (dram., memctrl., cpu., mecc., power., trace. — docs/STATS.md).
  // Cumulative over the System's lifetime, like the registry itself.
  StatSet stats;

  // Host-side observability, stamped by sim::run_benchmark: wall-clock
  // time of the run and retired-instruction throughput (million retired
  // instructions per wall second). NOT part of the simulated output —
  // excluded from sim::same_simulated_result and different run to run.
  double wall_seconds = 0.0;
  double wall_mips = 0.0;
};

/// Host-side work counters (docs/PERFORMANCE.md): how much of the
/// simulated time a System executed step by step rather than skipped.
/// Exact and host-independent, so a test can pin them; never part of
/// RunResult, the stats registry or --out, and cumulative over the
/// System's lifetime.
struct WorkCounters {
  std::uint64_t cpu_cycles = 0;        // active-loop cycles executed
  std::uint64_t controller_ticks = 0;  // Controller::tick calls
  std::uint64_t elided_ticks = 0;      // ticks skipped: wake lay ahead
  std::uint64_t wake_evaluations = 0;  // Controller::next_wake calls
};

class System {
 public:
  System(const trace::BenchmarkProfile& profile, const SystemConfig& config);

  /// Injects a custom trace source (e.g. an LLC-filtered CPU stream or a
  /// programmatic capture) instead of the config-selected one. The
  /// profile still supplies the base-IPC calibration.
  System(const trace::BenchmarkProfile& profile, const SystemConfig& config,
         std::unique_ptr<trace::TraceSource> source);

  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Simulates one active period of `config.instructions` instructions.
  /// Equivalent to run_period(config.instructions).
  [[nodiscard]] RunResult run();

  /// Simulates an *additional* active period (Fig. 4 lifecycle: call
  /// run_period / idle_period alternately on one System). The result
  /// covers just this period.
  [[nodiscard]] RunResult run_period(InstCount instructions);

  /// Transitions to idle: MECC performs the (MDT-guided) ECC-Upgrade and
  /// drops to the 1 s self-refresh period; other policies self-refresh
  /// at 64 ms. The device sleeps for `seconds`, then wakes (SMD re-arms).
  [[nodiscard]] IdleReport idle_period(double seconds);

  /// The MECC engine (valid only for EccPolicy::kMecc; null otherwise).
  [[nodiscard]] morph::Engine* engine() { return engine_.get(); }

  /// The fault-campaign shadow memory and DUE policy (valid only when
  /// SystemConfig::fault.enabled with an ECC policy; null otherwise).
  [[nodiscard]] morph::ShadowMemory* shadow() { return shadow_.get(); }
  [[nodiscard]] memctrl::DuePolicy* due_policy() { return due_policy_.get(); }

  /// Non-memory retire rate backed out of the paper IPC (exposed for
  /// tests / Table III reporting).
  [[nodiscard]] double base_ipc() const { return base_ipc_; }

  /// The unified stats registry every subsystem registers into at
  /// construction (docs/STATS.md). RunResult.stats carries snapshot();
  /// tests and embedders can also snapshot mid-run.
  [[nodiscard]] const StatRegistry& registry() const { return registry_; }

  /// The event tracer (null unless SystemConfig::trace.enabled). The
  /// trace file is written at destruction; tests can read json() any
  /// time.
  [[nodiscard]] tracing::Tracer* tracer() { return tracer_.get(); }

  /// The windowed metrics sampler (null unless
  /// SystemConfig::metrics.enabled). The JSONL file is written at
  /// destruction; tests can read jsonl() any time.
  [[nodiscard]] tracing::MetricsSampler* metrics() { return metrics_.get(); }

  /// Work the System has executed so far (see WorkCounters).
  [[nodiscard]] const WorkCounters& work_counters() const { return work_; }

  /// Closes the in-flight trace spans (row_open, power-state residency)
  /// at the current cycle. The counter-audit layer (sim/stat_audit.h)
  /// calls this before replaying tracer()->events() against a stats
  /// snapshot; a no-op without a tracer. Idempotent at a fixed cycle.
  void flush_observability();

 private:
  struct PendingData {
    Cycle ready = 0;
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;  // arrival order, ties broken FIFO
  };
  // Heap comparator: pending_data_ is a min-heap on (ready, seq), so
  // delivery pops the earliest-ready (then oldest) entry in O(log n)
  // instead of the old erase-from-the-middle linear scan.
  struct PendingAfter {
    [[nodiscard]] bool operator()(const PendingData& a,
                                  const PendingData& b) const {
      return a.ready != b.ready ? a.ready > b.ready : a.seq > b.seq;
    }
  };

  /// One memory channel: a Device and the Controller that owns it. The
  /// Device carries the FULL geometry (it never consults
  /// geometry.channels internally), so the controller's AddressMap
  /// decodes routed *global* addresses to the right rank/bank/row/col
  /// without any channel-id plumbing.
  struct Channel {
    dram::Device device;
    memctrl::Controller controller;
    Channel(const dram::Geometry& g, const dram::Timing& t,
            const memctrl::ControllerConfig& c)
        : device(g, t), controller(device, c) {}
  };

  // Read tags carry the issuing stream in the high bits (stream 0's tags
  // are unchanged, so single-stream traces stay byte-identical).
  static constexpr std::uint32_t kStreamTagShift = 48;

  void init_engine_and_core();
  void register_stats();
  void handle_completion(const memctrl::ReadCompletion& c, Cycle now);
  /// Controller owning `line` under the system-level interleave. Any
  /// enqueue invalidates the channel's cached wake-up time.
  [[nodiscard]] memctrl::Controller& channel_of(Address line) {
    const std::uint32_t ch = route_.decode(line).channel;
    ff_bounds_[ch].valid = false;
    return channels_[ch]->controller;
  }
  [[nodiscard]] InstCount total_retired() const {
    InstCount t = 0;
    for (const auto& c : cores_) t += c->retired();
    return t;
  }
  [[nodiscard]] bool all_channels_idle() const {
    for (const auto& ch : channels_) {
      if (!ch->controller.idle()) return false;
    }
    return true;
  }
  /// Channel-parallel fast-forward span (docs/SCALING.md): when every
  /// core is stalled on read data and nothing is pending system-side,
  /// the earliest cycle ANY channel can deliver a completion bounds a
  /// span inside which the channels share no state at all — so they
  /// tick concurrently on channel_pool_, bit-identically to the serial
  /// order. Returns true when a span was executed (now_ advanced).
  bool try_channel_span();
  /// Propagates the engine's active refresh divider to every controller
  /// (requires engine_). Pure no-op — and no wake invalidation — when
  /// the divider is already current.
  void sync_refresh_divider();
  /// Counted Controller::next_wake (WorkCounters::wake_evaluations).
  [[nodiscard]] dram::MemCycle eval_wake(const memctrl::Controller& ctrl,
                                         dram::MemCycle now) {
    ++work_.wake_evaluations;
    return ctrl.next_wake(now);
  }
  /// Fast-forward step (docs/PERFORMANCE.md): called at the top of the
  /// run_period loop. When the core is in a pure state (stalled on read
  /// data or retiring gap instructions) this computes the minimum of
  /// every component's next_event bound and advances now_ — with the
  /// bulk-equivalent counter updates — to just before it. No-op when any
  /// component might act on the very next cycle. `inst_boundary` is the
  /// absolute retired-instruction count (period target or next
  /// checkpoint crossing) the skip must stay strictly below, so those
  /// crossings still happen under per-cycle control. kObserved mirrors
  /// active_loop's: only the observed instantiation folds the metrics
  /// window boundary into the skip bound; kProfiled adds the sampled
  /// host-time scope.
  template <bool kObserved, bool kProfiled>
  void fast_forward_active(InstCount inst_boundary);
  /// The run_period inner loop, compiled per (kObserved, kProfiled):
  /// kObserved=true carries the tracer clock, windowed metrics samples
  /// and the per-cycle refresh-divider sync (mode-independent trace
  /// stamps); kProfiled=true carries only the self-profiler's sampled
  /// scopes, so a --profile run without a tracer/metrics sink keeps the
  /// lean loop (per-cycle observability checks and the 8x-denser
  /// divider sync would dwarf the scopes' own cost). The <false, false>
  /// instantiation is statically free of all of it — the
  /// zero-cost-when-off contract in docs/OBSERVABILITY.md is held by
  /// the compiler, not by per-cycle null checks.
  template <bool kObserved, bool kProfiled>
  void active_loop(InstCount target, const std::vector<InstCount>& checkpoints,
                   std::size_t& next_cp, InstCount snap_retired, RunResult& r,
                   Cycle period_begin);
  [[nodiscard]] Cycle decode_latency(Address line_addr, bool forwarded,
                                     bool& downgraded);
  // Fault-campaign hooks (no-ops when the shadow is disabled).
  void shadow_write(Address line_addr);
  void shadow_read(Address line_addr, bool downgraded);

  trace::BenchmarkProfile profile_;
  SystemConfig config_;
  double base_ipc_;

  // Channels in index order; all per-tick iteration is in this fixed
  // order, so multi-channel execution stays deterministic.
  std::vector<std::unique_ptr<Channel>> channels_;
  memctrl::AddressMap route_;  // system-level channel routing
  std::vector<std::unique_ptr<trace::TraceSource>> sources_;
  std::vector<std::unique_ptr<cpu::InOrderCore>> cores_;
  std::unique_ptr<ThreadPool> channel_pool_;  // channel-parallel spans
  std::unique_ptr<morph::Engine> engine_;
  ecc::EccModel ecc_model_;
  power::PowerModel power_model_;

  // Fault campaign (SystemConfig::fault.enabled): functional shadow +
  // DUE degradation ladder + the retention model the idle-period BER is
  // drawn from.
  std::unique_ptr<morph::ShadowMemory> shadow_;
  std::unique_ptr<memctrl::DuePolicy> due_policy_;
  reliability::RetentionModel retention_;

  StatRegistry registry_;
  power::ActiveEnergy cumulative_energy_;  // across all active periods

  // Observability (created in init_engine_and_core when enabled; every
  // component holds a raw Tracer* that stays null otherwise).
  std::unique_ptr<tracing::Tracer> tracer_;
  std::unique_ptr<tracing::MetricsSampler> metrics_;

  // Cached per-channel wake-up time (Controller::next_wake), busy or
  // idle: an absolute memory cycle (or kNoMemEvent) before which every
  // tick of the channel is a state no-op, so the active loop ticks a
  // channel only once its wake has come (skip_ticks(1) otherwise) and
  // the fast-forward fold reads the cached values. A wake is computed
  // right after the channel ticks, or by the fold for a channel whose
  // wake was invalidated; it stays correct until execution reaches it
  // or the System perturbs the channel from outside — an enqueue
  // (channel_of), a refresh-divider change, resync, a channel-parallel
  // span or the idle_period machinery — each of which invalidates it
  // (docs/SCALING.md). Only fast-forward runs validate a wake, so the
  // per-cycle loop (--fast-forward=off) ticks every channel every cycle.
  struct FfBound {
    dram::MemCycle wake = 0;
    bool valid = false;
  };
  std::vector<FfBound> ff_bounds_;
  void invalidate_ff_bounds() {
    for (auto& b : ff_bounds_) b.valid = false;
  }

  std::vector<PendingData> pending_data_;  // min-heap, see PendingAfter
  std::uint64_t pending_seq_ = 0;
  std::vector<Address> pending_downgrade_writes_;
  // idle_period drain-guard trips (exported as sim.drain_guard_exhausted
  // only when nonzero, so healthy snapshots keep their key set).
  std::uint64_t drain_guard_exhausted_ = 0;
  std::uint64_t strong_decodes_ = 0;
  std::uint64_t weak_decodes_ = 0;
  std::uint64_t downgrades_issued_ = 0;
  WorkCounters work_;

  // Multi-period state (Fig. 4 lifecycle).
  Cycle now_ = 0;  // absolute CPU cycles, including idle jumps
  struct PeriodSnapshot {
    InstCount retired = 0;
    Cycle core_cycles = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t strong_decodes = 0;
    std::uint64_t weak_decodes = 0;
    std::uint64_t downgrades = 0;
    dram::ActivityCounters counters;
  };
  PeriodSnapshot period_start_;
};

}  // namespace mecc::sim
