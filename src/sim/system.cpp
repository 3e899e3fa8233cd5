#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <iostream>
#include <type_traits>

#include "common/profile.h"
#include "trace/file_trace.h"

namespace mecc::sim {

std::string policy_name(EccPolicy p) {
  switch (p) {
    case EccPolicy::kNoEcc:
      return "Baseline";
    case EccPolicy::kSecded:
      return "SECDED";
    case EccPolicy::kEcc6:
      return "ECC-6";
    case EccPolicy::kMecc:
      return "MECC";
  }
  return "?";
}

namespace {

/// Backs the non-memory retire rate out of the paper's baseline IPC:
/// 1/ipc_base = 1/ipc_paper - read_pki/1000 * nominal_read_latency.
[[nodiscard]] double calibrate_base_ipc(const trace::BenchmarkProfile& p,
                                        double nominal_read_latency) {
  const double read_pki = p.mpki * p.read_fraction;
  const double cpi_target = 1.0 / p.paper_ipc;
  const double cpi_mem = read_pki / 1000.0 * nominal_read_latency;
  const double cpi_base = cpi_target - cpi_mem;
  if (cpi_base <= 0.5) return 2.0;  // memory-bound: retire at full width
  return std::min(2.0, 1.0 / cpi_base);
}

/// Minimum channel-parallel span worth dispatching to the pool: shorter
/// spans lose more to submit/wait_idle latency than they gain.
constexpr dram::MemCycle kMinSpanTicks = 32;

}  // namespace

System::System(const trace::BenchmarkProfile& profile,
               const SystemConfig& config)
    : profile_(profile),
      config_(config),
      base_ipc_(calibrate_base_ipc(profile,
                                   config.calibration_read_latency_cycles)),
      route_(config.geometry, config.interleave),
      power_model_(config.power, config.timing, config.geometry.banks,
                   config.geometry.channels * config.geometry.ranks) {
  if (config.trace_file.empty()) {
    // K streams: each core gets its own generator, decorrelated by seed
    // and placed in its own line-aligned slice of physical memory, so
    // streams contend for channels/banks without sharing footprints.
    // Stream 0's generator is parameterized exactly like the historical
    // single-stream one (base 0, the run seed).
    const std::uint32_t streams = std::max<std::uint32_t>(1, config.streams);
    const Address stream_stride =
        config.geometry.capacity_bytes() / streams / kLineBytes * kLineBytes;
    for (std::uint32_t k = 0; k < streams; ++k) {
      sources_.push_back(std::make_unique<trace::GeneratorSource>(
          profile,
          trace::GeneratorConfig{
              .footprint_scale =
                  config.footprint_scale != 0.0
                      ? config.footprint_scale
                      : static_cast<double>(config.instructions) / 4e9,
              .phase_length_insts = config.phase_length_insts != 0
                                        ? config.phase_length_insts
                                        : std::max<std::uint64_t>(
                                              1, config.instructions / 8),
              .base_addr = stream_stride * k,
              .seed = config.seed + 0x9E3779B97F4A7C15ull * k,
          }));
    }
  } else {
    // Trace replay is inherently one request stream.
    sources_.push_back(std::make_unique<trace::FileTrace>(config.trace_file));
  }
  init_engine_and_core();
}

System::System(const trace::BenchmarkProfile& profile,
               const SystemConfig& config,
               std::unique_ptr<trace::TraceSource> source)
    : profile_(profile),
      config_(config),
      base_ipc_(calibrate_base_ipc(profile,
                                   config.calibration_read_latency_cycles)),
      route_(config.geometry, config.interleave),
      power_model_(config.power, config.timing, config.geometry.banks,
                   config.geometry.channels * config.geometry.ranks) {
  // An injected source is one stream by construction.
  sources_.push_back(std::move(source));
  init_engine_and_core();
}

void System::init_engine_and_core() {
  const SystemConfig& config = config_;
  assert(config.geometry.channels >= 1);
  memctrl::ControllerConfig ctrl_config = config.controller;
  ctrl_config.interleave = config.interleave;
  for (std::uint32_t i = 0; i < config.geometry.channels; ++i) {
    channels_.push_back(std::make_unique<Channel>(config.geometry,
                                                  config.timing, ctrl_config));
  }
  ff_bounds_.resize(channels_.size());
  if (config.channel_threads > 0 && channels_.size() > 1) {
    channel_pool_ = std::make_unique<ThreadPool>(config.channel_threads);
  }
  if (config.trace.enabled) {
    tracer_ = std::make_unique<tracing::Tracer>(config.trace);
    for (auto& ch : channels_) {
      ch->device.set_tracer(tracer_.get());
      ch->controller.set_tracer(tracer_.get());
    }
  }
  ecc_model_.set_ecc6_decode_cycles(
      config.strong_ecc_t == 6
          ? config.ecc6_decode_cycles
          : ecc::EccModel::decode_cycles_for_strength(config.strong_ecc_t));

  if (config.policy == EccPolicy::kMecc) {
    morph::EngineConfig ec;
    ec.memory_lines = config.geometry.total_lines();
    ec.memory_bytes = config.geometry.capacity_bytes();
    ec.use_mdt = config.mecc_use_mdt;
    ec.mdt_entries = config.mdt_entries;
    ec.use_smd = config.mecc_use_smd;
    ec.smd_mpkc_threshold = config.smd_mpkc_threshold;
    ec.smd_quantum_cycles = config.smd_quantum_cycles;
    engine_ = std::make_unique<morph::Engine>(ec);
    engine_->set_tracer(tracer_.get());
  }

  if (config.fault.enabled && config.policy != EccPolicy::kNoEcc) {
    morph::ShadowConfig sc;
    sc.capacity_lines = config.fault.shadow_lines;
    sc.sample_stride = config.fault.sample_stride;
    sc.transient_read_ber = config.fault.transient_read_ber;
    // Decorrelated from the trace generator's stream but still fully
    // determined by the run seed.
    sc.seed = config.seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull;
    shadow_ = std::make_unique<morph::ShadowMemory>(sc);
    due_policy_ = std::make_unique<memctrl::DuePolicy>(config.fault.due);
    shadow_->set_tracer(tracer_.get());
    due_policy_->set_tracer(tracer_.get());
  }

  for (std::size_t k = 0; k < sources_.size(); ++k) {
    cores_.push_back(std::make_unique<cpu::InOrderCore>(
        cpu::CoreConfig{.base_ipc = base_ipc_, .width = 2}, *sources_[k],
        [this, k](Address line, std::uint64_t tag) {
          const dram::MemCycle now =
              cores_[k]->cycles() / kCpuCyclesPerMemCycle;
          return channel_of(line).enqueue_read(
              line, (static_cast<std::uint64_t>(k) << kStreamTagShift) | tag,
              now);
        },
        [this, k](Address line) {
          const dram::MemCycle now =
              cores_[k]->cycles() / kCpuCyclesPerMemCycle;
          if (!channel_of(line).enqueue_write(line, now)) return false;
          if (engine_) engine_->on_write(line);
          shadow_write(line);
          return true;
        }));
  }
  register_stats();
  if (config.metrics.enabled) {
    metrics_ =
        std::make_unique<tracing::MetricsSampler>(config.metrics, &registry_);
  }
}

void System::register_stats() {
  // Every subsystem registers into the System's registry (ISSUE 2
  // tentpole); snapshot() keys follow docs/STATS.md. Registration order
  // is fixed so snapshots are deterministic. Single-instance shapes keep
  // the historical unsuffixed names; multi-channel / multi-stream
  // instances are namespaced per docs/SCALING.md ("dram.ch1.",
  // "cpu.c1.", ...).
  const bool multi_ch = channels_.size() > 1;
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel* ch = channels_[i].get();
    registry_.register_component(
        multi_ch ? "dram.ch" + std::to_string(i) : std::string("dram"),
        [ch](StatSet& s) { ch->device.export_stats(s); });
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel* ch = channels_[i].get();
    registry_.register_component(
        multi_ch ? "memctrl.ch" + std::to_string(i) : std::string("memctrl"),
        [ch](StatSet& s) { ch->controller.export_stats(s); });
  }
  const bool multi_core = cores_.size() > 1;
  for (std::size_t k = 0; k < cores_.size(); ++k) {
    cpu::InOrderCore* core = cores_[k].get();
    registry_.register_component(
        multi_core ? "cpu.c" + std::to_string(k) : std::string("cpu"),
        [core](StatSet& s) { core->export_stats(s); });
  }
  for (std::size_t k = 0; k < sources_.size(); ++k) {
    trace::TraceSource* src = sources_[k].get();
    // The first trace component additionally surfaces the tracer's
    // ring-buffer drop count as trace.dropped_events (nonzero only, so
    // healthy snapshots keep the committed reference key set): a
    // truncated trace must never be mistaken for a complete one.
    const bool carries_drop_count = k == 0;
    registry_.register_component(
        multi_core ? "trace.c" + std::to_string(k) : std::string("trace"),
        [src, carries_drop_count, this](StatSet& s) {
          src->export_stats(s);
          if (carries_drop_count && tracer_ && tracer_->dropped() > 0) {
            s.add("dropped_events", tracer_->dropped());
          }
        });
  }
  if (engine_) {
    registry_.register_component(
        "mecc", [this](StatSet& s) { engine_->export_stats(s); });
  }
  // "errors" is registered unconditionally: without a fault campaign or
  // trace drops the provider emits nothing, so healthy snapshots keep
  // the key set the committed reference JSONs were built with.
  registry_.register_component("errors", [this](StatSet& s) {
    if (due_policy_) due_policy_->export_stats(s);
    if (shadow_) shadow_->export_stats(s);
    if (tracer_ && tracer_->dropped() > 0) {
      s.add("trace_dropped", tracer_->dropped());
    }
  });
  registry_.register_component("sim", [this](StatSet& s) {
    // Only materialized on failure, so healthy snapshots keep the key
    // set the committed reference JSONs were built with.
    if (drain_guard_exhausted_ > 0) {
      s.add("drain_guard_exhausted", drain_guard_exhausted_);
    }
  });
  registry_.register_component("power", [this](StatSet& s) {
    s.set_gauge("background_mj", cumulative_energy_.background_mj);
    s.set_gauge("activate_mj", cumulative_energy_.activate_mj);
    s.set_gauge("read_mj", cumulative_energy_.read_mj);
    s.set_gauge("write_mj", cumulative_energy_.write_mj);
    s.set_gauge("refresh_mj", cumulative_energy_.refresh_mj);
    s.set_gauge("ecc_mj", cumulative_energy_.ecc_mj);
    s.set_gauge("total_mj", cumulative_energy_.total_mj());
    s.set_gauge("seconds", cumulative_energy_.seconds);
  });
}

void System::flush_observability() {
  // Close the in-flight device spans (row_open, power-state residency)
  // at the current cycle so the trace is complete up to now_. The
  // counter-audit layer calls this before reading tracer()->events();
  // the destructor calls it again before writing files (a second flush
  // only re-closes spans still open since this call).
  for (auto& ch : channels_) {
    ch->device.flush_trace(now_ / kCpuCyclesPerMemCycle);
  }
  if (tracer_) tracer_->set_now(now_);
}

System::~System() {
  if (!tracer_ && !metrics_) return;
  // Close the in-flight device spans first so the final metrics sample
  // sees any resulting ring drops, then take the end-of-run edge sample
  // and write the output files.
  flush_observability();
  if (metrics_) metrics_->sample(now_, "final");
  if (tracer_ && !config_.trace.path.empty()) {
    (void)tracer_->write(config_.trace.path);
  }
  if (metrics_ && !config_.metrics.path.empty()) {
    (void)metrics_->write(config_.metrics.path);
  }
  if (tracer_ && tracer_->dropped() > 0) {
    std::fprintf(stderr,
                 "warning: trace ring dropped %llu events "
                 "(trace.dropped_events); the trace is truncated — raise "
                 "--trace-limit for a complete stream\n",
                 static_cast<unsigned long long>(tracer_->dropped()));
  }
}

Cycle System::decode_latency(Address line_addr, bool forwarded,
                             bool& downgraded) {
  downgraded = false;
  // Forwarded reads were served from the controller's write queue: the
  // data never traversed an ECC decoder.
  if (forwarded) return 0;
  switch (config_.policy) {
    case EccPolicy::kNoEcc:
      return 0;
    case EccPolicy::kSecded:
      ++weak_decodes_;
      return ecc_model_.decode_cycles(ecc::Scheme::kSecded);
    case EccPolicy::kEcc6:
      ++strong_decodes_;
      return ecc_model_.decode_cycles(ecc::Scheme::kEcc6);
    case EccPolicy::kMecc: {
      const morph::ReadDecision d = engine_->on_read(line_addr);
      if (d.downgrade) {
        pending_downgrade_writes_.push_back(line_addr);
        downgraded = true;
      }
      if (d.decode_mode == morph::LineMode::kStrong) {
        ++strong_decodes_;
        return ecc_model_.decode_cycles(ecc::Scheme::kEcc6);
      }
      ++weak_decodes_;
      return ecc_model_.decode_cycles(ecc::Scheme::kSecded);
    }
  }
  return 0;
}

void System::shadow_write(Address line_addr) {
  if (!shadow_) return;
  morph::LineMode mode = morph::LineMode::kWeak;
  switch (config_.policy) {
    case EccPolicy::kNoEcc:  // shadow never built for kNoEcc
    case EccPolicy::kSecded:
      mode = morph::LineMode::kWeak;
      break;
    case EccPolicy::kEcc6:
      mode = morph::LineMode::kStrong;
      break;
    case EccPolicy::kMecc:
      // engine_->on_write already ran: the mode store holds the mode the
      // write was actually encoded with.
      mode = engine_->modes().mode_of(line_addr);
      break;
  }
  shadow_->on_write(line_addr, mode);
}

void System::shadow_read(Address line_addr, bool downgraded) {
  if (!shadow_) return;
  const morph::ShadowReadOutcome o = shadow_->on_read(line_addr, downgraded);
  if (!o.shadowed) return;
  if (o.corrected_bits > 0 || o.mode_repaired) {
    due_policy_->on_ce(o.corrected_bits);
  }
  if (o.silent_corruption) due_policy_->on_silent_corruption();
  if (!o.due) return;

  // DUE: retry the read (rung 0 — cures transient read-path glitches),
  // then climb the degradation ladder.
  due_policy_->on_due();
  bool recovered = false;
  for (unsigned i = 0;
       i < due_policy_->config().max_retries && !recovered; ++i) {
    const morph::ShadowReadOutcome r = shadow_->retry_read(line_addr);
    recovered = !r.due;
    due_policy_->on_retry(recovered);
  }
  if (recovered) return;
  switch (due_policy_->escalate()) {
    case memctrl::DueAction::kScrub:
      (void)shadow_->scrub();
      break;
    case memctrl::DueAction::kForceUpgrade:
      (void)shadow_->force_upgrade();
      if (engine_) engine_->force_upgrade();
      break;
    case memctrl::DueAction::kRefreshFallback:
      if (engine_) engine_->set_degraded(true);
      for (auto& ch : channels_) ch->controller.set_refresh_divider(1);
      invalidate_ff_bounds();  // the refresh schedule just changed
      break;
    case memctrl::DueAction::kNone:
      break;  // ladder exhausted; the DUE was reported upstream
  }
}

void System::handle_completion(const memctrl::ReadCompletion& c, Cycle now) {
  const Cycle data_at_cpu = c.done * kCpuCyclesPerMemCycle;
  bool downgraded = false;
  const Cycle ready = std::max(now, data_at_cpu) +
                      decode_latency(c.line_addr, c.forwarded, downgraded);
  // Forwarded reads never left the controller, so the stored codeword
  // was not decoded and the shadow stays out of the loop.
  if (shadow_ && !c.forwarded) shadow_read(c.line_addr, downgraded);
  pending_data_.push_back({.ready = ready, .tag = c.id, .seq = pending_seq_++});
  std::push_heap(pending_data_.begin(), pending_data_.end(), PendingAfter{});
}

RunResult System::run() { return run_period(config_.instructions); }

void System::sync_refresh_divider() {
  const std::uint32_t divider = engine_->active_refresh_divider();
  if (divider == channels_[0]->controller.config().refresh_divider) return;
  for (auto& ch : channels_) ch->controller.set_refresh_divider(divider);
  invalidate_ff_bounds();  // the refresh schedule just changed
}

bool System::try_channel_span() {
  // Preconditions: unobserved run (the caller is the !kObserved loop;
  // this re-check keeps the contract local), every core stalled on read
  // data, nothing pending system-side. Then until the earliest cycle any
  // channel could deliver a completion — in-flight (next_completion_ready)
  // or still queued (earliest_new_completion_bound) — the channels share
  // no state at all, so they tick concurrently, each with its own
  // event-driven inner skip, bit-identical to the serial channel order.
  if (tracer_ || metrics_) return false;
  for (const auto& c : cores_) {
    if (!c->stalled_on_read()) return false;
  }
  if (!pending_data_.empty() || !pending_downgrade_writes_.empty()) {
    return false;
  }
  const Cycle cur = now_;
  const dram::MemCycle mem_cur = cur / kCpuCyclesPerMemCycle;
  dram::MemCycle t_end = memctrl::kNoMemEvent;
  unsigned busy = 0;
  for (const auto& ch : channels_) {
    const memctrl::Controller& ctrl = ch->controller;
    if (!ctrl.idle()) ++busy;
    const dram::MemCycle done = ctrl.next_completion_ready();
    if (done != memctrl::kNoMemEvent) t_end = std::min(t_end, done);
    const dram::MemCycle fresh = ctrl.earliest_new_completion_bound();
    if (fresh != memctrl::kNoMemEvent) t_end = std::min(t_end, fresh);
  }
  // Every core is stalled, so some channel must eventually complete a
  // read; a kNoMemEvent fold here means an inconsistent state — leave
  // it to the serial path.
  if (t_end == memctrl::kNoMemEvent) return false;
  if (engine_) {
    // The span skips engine ticks: stay strictly below its next event
    // (T_end * 8 <= next_event <=> T_end <= next_event / 8).
    t_end = std::min<dram::MemCycle>(
        t_end, engine_->next_event(cur) / kCpuCyclesPerMemCycle);
  }
  if (busy < 2) return false;  // nothing to overlap
  if (t_end <= mem_cur + 1 || t_end - mem_cur - 1 < kMinSpanTicks) {
    return false;
  }

  // Execute memory ticks (mem_cur, t_end) concurrently, one task per
  // channel. Inside the span no completion becomes ready (t_end is a
  // lower bound on all of them), so collect_completions stays unneeded
  // and each channel's state is private to its task (its work counts
  // too, folded into work_ after the join).
  const dram::MemCycle last = t_end - 1;  // last mem tick of the span
  std::vector<WorkCounters> span_work(channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    Channel* ch = channels_[i].get();
    WorkCounters* work = &span_work[i];
    channel_pool_->submit([ch, work, mem_cur, last]() {
      memctrl::Controller& ctrl = ch->controller;
      dram::MemCycle m = mem_cur;
      while (m < last) {
        ++m;
        ctrl.tick(m);
        ++work->controller_ticks;
        if (m >= last) break;
        // Per-channel event-driven skip, same contract as the serial
        // fast-forward: the wake is conservative and skip_ticks
        // bulk-applies the only per-tick side effect.
        dram::MemCycle nxt = ctrl.next_wake(m);
        ++work->wake_evaluations;
        if (nxt > last) nxt = last;  // covers kNoMemEvent
        if (nxt > m + 1) {
          ctrl.skip_ticks(nxt - 1 - m);
          m = nxt - 1;
        }
      }
    });
  }
  channel_pool_->wait_idle();
  for (const WorkCounters& w : span_work) {
    work_.controller_ticks += w.controller_ticks;
    work_.wake_evaluations += w.wake_evaluations;
  }

  // Land on the last CPU cycle before mem tick t_end: the serial loop's
  // next iteration executes exactly cycle t_end * 8, where the first
  // completion can be collected.
  const Cycle new_now =
      static_cast<Cycle>(t_end) * kCpuCyclesPerMemCycle - 1;
  for (auto& c : cores_) c->skip_stalled(new_now - cur);
  now_ = new_now;
  invalidate_ff_bounds();  // every channel ticked inside the span
  return true;
}

template <bool kObserved, bool kProfiled>
void System::fast_forward_active(InstCount inst_boundary) {
  // Host-profiler attribution of the bound fold (docs/OBSERVABILITY.md):
  // sampled, and only in the profiled instantiations — the others
  // compile this to nothing (profiler-on runs are routed to a
  // kProfiled loop by run_period).
  static const std::size_t prof_slot =
      prof::HostProfiler::instance().slot("sim", "ff_bound");
  static thread_local std::uint64_t prof_calls = 0;
  std::conditional_t<kProfiled, prof::SampledScopedTimer,
                     prof::NullScopedTimer>
      prof_scope(prof_slot, prof_calls);
  // A crossing is already pending (duplicate checkpoint thresholds):
  // leave this iteration fully to the per-cycle loop.
  if (inst_boundary <= total_retired()) return;
  // Every core must be in a pure state; one impure core forces the
  // per-cycle loop for all of them (they share the clock).
  bool any_gap = false;
  for (const auto& c : cores_) {
    if (c->stalled_on_read()) continue;
    if (!c->in_pure_gap()) return;
    any_gap = true;
  }

  const Cycle cur = now_;
  constexpr Cycle kNoEvent = static_cast<Cycle>(-1);
  Cycle limit = kNoEvent;  // first cycle > cur where anything could act
  // Bounds are folded in cheapest-first: once any of them pins the limit
  // to the very next cycle no skip is possible, so bail before paying
  // for the more expensive scans (notably controller next_event).
  if constexpr (kObserved) {
    if (metrics_) {
      // The sampler fires at exact window boundaries even mid-skip
      // (docs/OBSERVABILITY.md): never jump past the next one.
      limit = metrics_->next_sample();
      if (limit <= cur + 1) return;
    }
  }
  if (!pending_data_.empty()) {
    limit = std::min(limit, pending_data_.front().ready);
    if (limit <= cur + 1) return;
  }

  // Memory-side events, converted from memory ticks back to the CPU
  // cycle at which run_period services them (cycle % 8 == 0).
  const dram::MemCycle mem_cur = cur / kCpuCyclesPerMemCycle;
  if (!pending_downgrade_writes_.empty()) {
    // The drain retries at every memory tick until the queue has room.
    limit = std::min(limit, (mem_cur + 1) * kCpuCyclesPerMemCycle);
    if (limit <= cur + 1) return;
  }
  if (engine_) {
    limit = std::min(limit, engine_->next_event(cur));
    if (limit <= cur + 1) return;
  }
  // Each channel's cached wake-up time; only a channel whose wake was
  // invalidated since its last tick evaluates a fresh one. A valid wake
  // always lies beyond mem_cur: the channel ticks, and recomputes it,
  // once execution reaches it.
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    FfBound& w = ff_bounds_[i];
    if (!w.valid) {
      w.wake = eval_wake(channels_[i]->controller, mem_cur);
      w.valid = true;
    }
    if (w.wake != memctrl::kNoMemEvent) {
      limit = std::min(limit, w.wake * kCpuCyclesPerMemCycle);
      if (limit <= cur + 1) return;
    }
  }

  Cycle max_skip;
  if (limit == kNoEvent) {
    if (!any_gap) return;  // nothing can ever wake the cores (unreachable)
    // Fully quiescent memory system; the cores retire autonomously.
    // Advance in large slabs and recompute.
    max_skip = 1'000'000;
  } else {
    if (limit <= cur + 1) return;  // something may act next cycle
    max_skip = limit - cur - 1;
  }

  if (cores_.size() == 1) {
    cpu::InOrderCore& core = *cores_[0];
    Cycle advanced;
    if (core.stalled_on_read()) {
      advanced = max_skip;
      core.skip_stalled(advanced);
    } else {
      advanced = core.advance_gap(max_skip, inst_boundary - core.retired());
      if (advanced == 0) return;
    }
    now_ = cur + advanced;
  } else {
    // Multi-stream: every core advances the SAME number of cycles (one
    // shared clock). Gap cores first bound the advance by their own
    // pure horizon and a per-core instruction budget — remaining/K, so
    // the total crossing cannot happen mid-skip no matter how the
    // retirement distributes across cores — then the folded minimum is
    // applied to all of them.
    const InstCount remaining = inst_boundary - total_retired();
    const InstCount per_core =
        remaining / static_cast<InstCount>(cores_.size());
    if (per_core == 0) return;  // boundary too close for a joint skip
    for (const auto& c : cores_) {
      if (c->stalled_on_read()) continue;
      max_skip = std::min(max_skip, c->gap_cycles_bound(max_skip, per_core));
      if (max_skip == 0) return;
    }
    for (const auto& c : cores_) {
      if (c->stalled_on_read()) {
        c->skip_stalled(max_skip);
      } else {
        // The fold above guarantees the full advance for every gap core.
        const Cycle adv = c->advance_gap(max_skip, per_core);
        assert(adv == max_skip);
        (void)adv;
      }
    }
    now_ = cur + max_skip;
  }
  // Bulk-apply the skipped memory ticks' queue-depth samples.
  const dram::MemCycle skipped = now_ / kCpuCyclesPerMemCycle - mem_cur;
  for (auto& ch : channels_) ch->controller.skip_ticks(skipped);
}

template <bool kObserved, bool kProfiled>
void System::active_loop(InstCount target,
                         const std::vector<InstCount>& checkpoints,
                         std::size_t& next_cp, InstCount snap_retired,
                         RunResult& r, Cycle period_begin) {
  while (total_retired() < target) {
    ++work_.cpu_cycles;
    if (config_.fast_forward) {
      if constexpr (!kObserved) {
        // Channel-parallel span first: it needs all-stalled cores and
        // covers the whole window up to the next completion, which the
        // serial fold below would otherwise walk alone.
        if (channel_pool_) (void)try_channel_span();
      }
      // Absolute retired count the skip must stay strictly below: the
      // period target, or the next checkpoint crossing if one is nearer.
      InstCount boundary = target;
      if (next_cp < checkpoints.size()) {
        boundary = std::min(boundary, snap_retired + checkpoints[next_cp]);
      }
      fast_forward_active<kObserved, kProfiled>(boundary);
    }
    ++now_;
    const Cycle cycle = now_;
    if constexpr (kObserved) {
      if (tracer_) tracer_->set_now(cycle);
      // Window-boundary metrics sample, taken before this cycle's
      // component ticks: identical registry contents in per-cycle and
      // fast-forward modes (the skip bound above lands execution on the
      // boundary cycle exactly).
      if (metrics_ && cycle >= metrics_->next_sample()) {
        metrics_->sample(cycle, "active");
      }
    }
    if (engine_) {
      engine_->tick(cycle);
      if constexpr (kObserved) {
        // Divider transitions (SMD enable, degraded latch) land on the
        // cycle the engine changed state — executed in both fast-forward
        // modes — not on the next mode-dependent memory-cycle boundary.
        sync_refresh_divider();
      }
    }

    if (cycle % kCpuCyclesPerMemCycle == 0) {
      const dram::MemCycle mem_now = cycle / kCpuCyclesPerMemCycle;
      // ECC-Downgrade write-backs go out as soon as the owning channel's
      // write queue has room (off the critical path).
      while (!pending_downgrade_writes_.empty() &&
             channel_of(pending_downgrade_writes_.back())
                 .enqueue_write(pending_downgrade_writes_.back(), mem_now)) {
        pending_downgrade_writes_.pop_back();
        ++downgrades_issued_;
      }
      if constexpr (!kObserved) {
        // Without a tracer the divider sync point is unobservable, and
        // the controllers only read it inside tick(): the memory-cycle
        // boundary is the cheapest equivalent spot.
        if (engine_) sync_refresh_divider();
      }
      for (std::size_t i = 0; i < channels_.size(); ++i) {
        Channel& ch = *channels_[i];
        // Tick a channel only once its wake has come: before it the
        // tick is a state no-op, so skip_ticks(1) stands in for it.
        // Per-cycle mode never validates a wake and always ticks.
        FfBound& w = ff_bounds_[i];
        if (w.valid && mem_now < w.wake) {
          ch.controller.skip_ticks(1);
          ++work_.elided_ticks;
          continue;
        }
        {
          // Sampled host-time attribution of the controller tick, in
          // the profiled instantiations only (same seam as ff_bound).
          static const std::size_t prof_slot =
              prof::HostProfiler::instance().slot("memctrl", "tick");
          static thread_local std::uint64_t prof_calls = 0;
          std::conditional_t<kProfiled, prof::SampledScopedTimer,
                             prof::NullScopedTimer>
              prof_scope(prof_slot, prof_calls);
          ch.controller.tick(mem_now);
          ++work_.controller_ticks;
        }
        if (ch.controller.has_in_flight()) {
          for (const auto& c : ch.controller.collect_completions(mem_now)) {
            handle_completion(c, cycle);
          }
        }
        // The next wake, right after the tick: the fold bails out
        // cheapest-first and may never reach this channel, and a stale
        // wake would tick it on every memory cycle.
        if (config_.fast_forward) {
          w.wake = eval_wake(ch.controller, mem_now);
          w.valid = true;
        }
      }
    }

    // Deliver data whose (transfer + ECC decode) time has elapsed.
    // (ready, seq)-ordered heap pops; each in-order core has at most one
    // read outstanding, routed back by the stream id in the tag's high
    // bits.
    while (!pending_data_.empty() && pending_data_.front().ready <= cycle) {
      const std::uint64_t tag = pending_data_.front().tag;
      std::pop_heap(pending_data_.begin(), pending_data_.end(),
                    PendingAfter{});
      pending_data_.pop_back();
      cores_[tag >> kStreamTagShift]->on_read_data(tag);
    }

    for (auto& c : cores_) c->tick();

    if (next_cp < checkpoints.size() &&
        total_retired() - snap_retired >= checkpoints[next_cp]) {
      r.checkpoints.push_back(
          {.instructions = checkpoints[next_cp],
           .cycles = cycle - period_begin});
      ++next_cp;
    }
  }
}

RunResult System::run_period(InstCount instructions) {
  MECC_PROF_SCOPE("sim", "run_period");
  RunResult r;
  r.benchmark = std::string(profile_.name);
  r.policy = config_.policy;

  // Snapshot for per-period deltas (Fig. 4 lifecycle: a System may run
  // several active periods separated by idle_period calls).
  PeriodSnapshot snap;
  snap.retired = total_retired();
  snap.core_cycles = cores_[0]->cycles();
  for (const auto& c : cores_) {
    snap.reads += c->reads_issued();
    snap.writes += c->writes_issued();
  }
  snap.strong_decodes = strong_decodes_;
  snap.weak_decodes = weak_decodes_;
  snap.downgrades = downgrades_issued_;
  const dram::MemCycle mem_begin = now_ / kCpuCyclesPerMemCycle;
  for (auto& ch : channels_) {
    snap.counters.accumulate(ch->device.counters(mem_begin));
  }
  const Cycle period_begin = now_;
  // Sync the engine's refresh divider at the period boundary (and after
  // every engine tick below) rather than at memory-cycle boundaries:
  // engine transitions happen at cycles both --fast-forward modes
  // execute, so divider trace events carry mode-independent stamps.
  if (tracer_) tracer_->set_now(period_begin);
  if (engine_) sync_refresh_divider();

  std::vector<InstCount> checkpoints = config_.checkpoint_insts;
  std::sort(checkpoints.begin(), checkpoints.end());
  std::size_t next_cp = 0;

  const InstCount target = snap.retired + instructions;
  // Four instantiations: observability (tracer/metrics) and the
  // self-profiler select independently, so a --profile run without a
  // tracer keeps the lean loop plus sampled scopes (docs/PERFORMANCE.md
  // overhead budget). All four produce identical simulated state, so
  // --out stays byte-equal.
  const bool profiled = prof::HostProfiler::enabled();
  if (tracer_ || metrics_) {
    if (profiled) {
      active_loop<true, true>(target, checkpoints, next_cp, snap.retired, r,
                              period_begin);
    } else {
      active_loop<true, false>(target, checkpoints, next_cp, snap.retired, r,
                               period_begin);
    }
  } else if (profiled) {
    active_loop<false, true>(target, checkpoints, next_cp, snap.retired, r,
                             period_begin);
  } else {
    active_loop<false, false>(target, checkpoints, next_cp, snap.retired, r,
                              period_begin);
  }

  const Cycle period_cycles = now_ - period_begin;
  if (tracer_) {
    tracer_->complete(tracing::Category::kEpoch, tracing::kTrackEpoch,
                      "active", period_begin, period_cycles, "instructions",
                      total_retired() - snap.retired);
  }
  r.instructions = total_retired() - snap.retired;
  r.cpu_cycles = period_cycles;
  r.ipc = static_cast<double>(r.instructions) /
          static_cast<double>(period_cycles);
  r.seconds = cycles_to_seconds(period_cycles);
  std::uint64_t reads_now = 0;
  std::uint64_t writes_now = 0;
  for (const auto& c : cores_) {
    reads_now += c->reads_issued();
    writes_now += c->writes_issued();
  }
  r.reads = reads_now - snap.reads;
  r.writes = writes_now - snap.writes;
  r.measured_mpki = static_cast<double>(r.reads + r.writes) * 1000.0 /
                    static_cast<double>(r.instructions);
  r.strong_decodes = strong_decodes_ - snap.strong_decodes;
  r.weak_decodes = weak_decodes_ - snap.weak_decodes;
  r.downgrades = downgrades_issued_ - snap.downgrades;

  // ---- energy accounting (this period's counter deltas, summed over
  // channels; each channel's device sums its ranks' residencies and the
  // power model divides the total by channels * ranks for seconds) ----
  const dram::MemCycle mem_now = now_ / kCpuCyclesPerMemCycle;
  dram::ActivityCounters end_counters;
  for (auto& ch : channels_) {
    end_counters.accumulate(ch->device.counters(mem_now));
  }
  r.energy = power_model_.active_energy(end_counters.since(snap.counters));
  const auto weak_costs = ecc_model_.costs(ecc::Scheme::kSecded);
  const auto strong_costs = ecc_model_.costs(ecc::Scheme::kEcc6);
  double ecc_pj = 0.0;
  ecc_pj +=
      static_cast<double>(r.weak_decodes) * weak_costs.decode_energy_pj;
  ecc_pj +=
      static_cast<double>(r.strong_decodes) * strong_costs.decode_energy_pj;
  const double encode_pj =
      (config_.policy == EccPolicy::kEcc6) ? strong_costs.encode_energy_pj
                                           : weak_costs.encode_energy_pj;
  if (config_.policy != EccPolicy::kNoEcc) {
    ecc_pj += static_cast<double>(r.writes + r.downgrades) * encode_pj;
  }
  r.energy.ecc_mj = ecc_pj * 1e-9;
  r.avg_power_mw = r.energy.average_power_mw();
  r.edp_mj_s = r.energy.total_mj() * r.seconds;

  // ---- MECC observability ----
  if (engine_) {
    r.mdt_marked_regions = engine_->mdt().marked_regions();
    r.mdt_tracked_bytes = engine_->mdt().tracked_bytes();
    if (config_.mecc_use_smd) {
      if (!engine_->smd().downgrade_enabled()) {
        r.frac_downgrade_disabled = 1.0;
      } else {
        // Fraction of *this period* spent with downgrade disabled.
        const Cycle on_at = engine_->smd().enabled_at();
        const Cycle disabled =
            on_at > period_begin ? on_at - period_begin : 0;
        r.frac_downgrade_disabled =
            std::min(1.0, static_cast<double>(disabled) /
                              static_cast<double>(period_cycles));
      }
    }
  }

  // Fold this period's energy into the lifetime totals the "power"
  // registry component reports, then snapshot the whole registry.
  cumulative_energy_.background_mj += r.energy.background_mj;
  cumulative_energy_.activate_mj += r.energy.activate_mj;
  cumulative_energy_.read_mj += r.energy.read_mj;
  cumulative_energy_.write_mj += r.energy.write_mj;
  cumulative_energy_.refresh_mj += r.energy.refresh_mj;
  cumulative_energy_.ecc_mj += r.energy.ecc_mj;
  cumulative_energy_.seconds += r.energy.seconds;

  // Fault campaign, SMD scenario: an active period that ended with the
  // refresh divider slowed (downgrade held off, memory kept all-strong
  // at the idle rate) accumulates retention errors while awake too —
  // modeled as one injection at that divider's BER per period.
  if (shadow_ && engine_ && engine_->active_refresh_divider() > 1) {
    const double ber =
        config_.fault.ber_override >= 0.0
            ? config_.fault.ber_override
            : retention_.bit_failure_probability(
                  0.064 * engine_->active_refresh_divider());
    (void)shadow_->inject_retention_errors(ber);
  }

  r.stats = registry_.snapshot();
  return r;
}

IdleReport System::idle_period(double seconds) {
  MECC_PROF_SCOPE("sim", "idle_period");
  IdleReport rep;
  rep.idle_seconds = seconds;

  // Drain outstanding memory work (writes, in-flight reads) on every
  // channel before the transition; cap the drain generously.
  dram::MemCycle mem_now = now_ / kCpuCyclesPerMemCycle;
  const dram::MemCycle drain_deadline = mem_now + 200'000;
  while (!all_channels_idle() && mem_now < drain_deadline) {
    ++mem_now;
    if (tracer_) tracer_->set_now(mem_now * kCpuCyclesPerMemCycle);
    for (auto& ch : channels_) {
      ch->controller.tick(mem_now);
      ++work_.controller_ticks;
      for (const auto& c : ch->controller.collect_completions(mem_now)) {
        handle_completion(c, mem_now * kCpuCyclesPerMemCycle);
      }
    }
    if (!config_.fast_forward || all_channels_idle()) continue;
    // Event-driven drain: jump to the next tick where ANY controller
    // could issue, refresh, or complete a read (the wakes the active
    // loop uses; the cores are out of the picture here). Already-idle
    // channels still fold their wake so their refresh schedules keep
    // firing exactly as in the per-cycle drain.
    dram::MemCycle nxt = memctrl::kNoMemEvent;
    for (auto& ch : channels_) {
      nxt = std::min(nxt, eval_wake(ch->controller, mem_now));
    }
    if (nxt > drain_deadline) nxt = drain_deadline;  // covers kNoMemEvent
    if (nxt > mem_now + 1) {
      for (auto& ch : channels_) {
        ch->controller.skip_ticks(nxt - 1 - mem_now);
      }
      mem_now = nxt - 1;
    }
  }
  if (!all_channels_idle()) {
    // The memory system failed to drain within the cap. Fail loudly —
    // a silent force-clear here masks scheduler livelocks — but still
    // complete the transition so long campaigns degrade gracefully.
    ++drain_guard_exhausted_;
    std::size_t reads_left = 0;
    std::size_t writes_left = 0;
    for (const auto& ch : channels_) {
      reads_left += ch->controller.read_queue_depth();
      writes_left += ch->controller.write_queue_depth();
    }
    std::cerr << "mecc: idle_period drain guard exhausted after 200000 "
                 "memory cycles (" << reads_left << " reads / " << writes_left
              << " writes still queued or in flight); forcing the idle "
                 "transition\n";
  }
  now_ = mem_now * kCpuCyclesPerMemCycle;
  while (!pending_data_.empty()) {
    const std::uint64_t tag = pending_data_.front().tag;
    std::pop_heap(pending_data_.begin(), pending_data_.end(), PendingAfter{});
    pending_data_.pop_back();
    cores_[tag >> kStreamTagShift]->on_read_data(tag);
  }
  if (tracer_) tracer_->set_now(now_);
  if (metrics_) metrics_->sample(now_, "idle_enter");

  // ECC-Upgrade (MECC) and the idle refresh rate.
  std::uint32_t divider = 1;
  if (engine_) {
    const morph::UpgradeReport up = engine_->enter_idle();
    rep.lines_upgraded = up.lines_upgraded;
    rep.upgrade_seconds = up.upgrade_seconds;
    now_ += up.upgrade_cycles;
    if (shadow_) {
      // Functional ECC-Upgrade mirror: the codec batch walk is the
      // dominant cold host cost, so it gets its own profile phase.
      MECC_PROF_SCOPE("mecc", "codec_batch");
      shadow_->upgrade_all();
    }
    divider = engine_->idle_refresh_divider();  // 1 once degraded
  } else if (config_.policy == EccPolicy::kEcc6) {
    // Always-strong systems also sleep at 1 s — unless the DUE ladder
    // latched the 64 ms fallback.
    divider = (due_policy_ && due_policy_->degraded()) ? 1 : 16;
  }
  rep.refresh_period_s = 0.064 * divider;

  // Wake every powered-down rank, precharge everything and enter self
  // refresh (whole-channel, every channel together).
  mem_now = now_ / kCpuCyclesPerMemCycle;
  for (auto& ch : channels_) {
    for (std::uint32_t rank = 0; rank < ch->device.geometry().ranks;
         ++rank) {
      if (ch->device.rank_powered_down(rank)) {
        ch->device.exit_power_down(mem_now, rank);
      }
    }
  }
  mem_now += config_.timing.tXP;
  const auto all_precharged = [this]() {
    for (const auto& ch : channels_) {
      if (!ch->device.all_banks_precharged()) return false;
    }
    return true;
  };
  int guard = 0;
  while (!all_precharged() && guard++ < 1000) {
    for (auto& ch : channels_) {
      for (std::uint32_t b = 0; b < ch->device.total_banks(); ++b) {
        if (ch->device.bank(b).row_open() &&
            ch->device.can_precharge(b, mem_now)) {
          ch->device.precharge(b, mem_now);
        }
      }
    }
    ++mem_now;
  }
  std::uint64_t pulses_before = 0;
  for (auto& ch : channels_) {
    pulses_before += ch->device.counters(mem_now).self_refresh_pulses;
  }
  for (auto& ch : channels_) {
    ch->device.enter_self_refresh(mem_now, divider);
  }
  const Cycle sleep_begin = mem_now * kCpuCyclesPerMemCycle;
  now_ = mem_now * kCpuCyclesPerMemCycle + seconds_to_cycles(seconds);
  mem_now = now_ / kCpuCyclesPerMemCycle;
  if (tracer_) tracer_->set_now(now_);
  for (auto& ch : channels_) ch->device.exit_self_refresh(mem_now);
  if (tracer_) {
    tracer_->complete(tracing::Category::kEpoch, tracing::kTrackEpoch,
                      "idle", sleep_begin, now_ - sleep_begin,
                      "refresh_divider", divider);
  }
  std::uint64_t pulses_after = 0;
  for (auto& ch : channels_) {
    pulses_after += ch->device.counters(mem_now).self_refresh_pulses;
  }
  rep.refresh_pulses = pulses_after - pulses_before;
  rep.idle_energy_mj =
      power_model_.idle_power(rep.refresh_period_s).total_mw() * seconds;

  // Fault campaign: one idle period's worth of retention errors lands in
  // the stored codewords, at the BER the retention model assigns to the
  // refresh period this sleep actually used (or the configured override).
  // At the nominal 64 ms period — including after the DUE ladder's
  // refresh fallback latched — cells hold their charge and nothing is
  // injected: degradation trades the refresh savings for correctness.
  if (shadow_ && rep.refresh_period_s > 0.064) {
    const double ber =
        config_.fault.ber_override >= 0.0
            ? config_.fault.ber_override
            : retention_.bit_failure_probability(rep.refresh_period_s);
    rep.injected_ber = ber;
    rep.injected_bits = shadow_->inject_retention_errors(ber);
  }

  // Wake up: refresh schedules restart, SMD re-arms.
  for (auto& ch : channels_) ch->controller.resync_refresh(mem_now);
  invalidate_ff_bounds();  // schedules resynced, SR state cycled
  if (engine_) engine_->wake(now_);
  if (metrics_) metrics_->sample(now_, "wake");
  return rep;
}

}  // namespace mecc::sim
