#include "legs.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "cpu/core.h"
#include "dram/device.h"
#include "mecc/engine.h"
#include "mecc/line_codec.h"
#include "mecc/memory_image.h"
#include "memctrl/address_map.h"
#include "memctrl/controller.h"
#include "reliability/failure_analysis.h"
#include "reliability/fault_injection.h"
#include "sim/fleet.h"
#include "trace/trace_source.h"

namespace perfbench {

using mecc::BitVec;
using mecc::trace::TraceRecord;

namespace {

/// Runs `batch` once untimed (warm-up), then `rounds` timed times, with
/// `prep` (untimed) before each; returns host ns per layer call.
template <class Prep, class Batch>
double time_batches(Spans& spans, const char* name, int rounds,
                    std::uint64_t calls_per_batch, double clock_ns,
                    Prep&& prep, Batch&& batch) {
  prep();
  batch();
  double ns = 0.0;
  for (int r = 0; r < rounds; ++r) {
    prep();
    Scope s(spans, name);
    const std::int64_t a = now_ns();
    batch();
    const std::int64_t b = now_ns();
    ns += static_cast<double>(b - a) - clock_ns;
  }
  return ns / (static_cast<double>(rounds) *
               static_cast<double>(calls_per_batch));
}

constexpr auto kNoPrep = [] {};

/// Up to seven jobs spread over the workload's run set (every fourth
/// benchmark, policies alternating); the fleet has no Systems of its own
/// and uses one MECC device per MPKI class on the default geometry.
std::vector<Job> sample_jobs(const Workload& w, std::size_t max_jobs) {
  std::vector<Job> out;
  const auto benchmarks = mecc::trace::all_benchmarks();
  if (w.jobs.empty()) {
    mecc::sim::SystemConfig c;
    c.policy = mecc::sim::EccPolicy::kMecc;
    c.instructions = 500'000;
    c.seed = w.seed;
    for (const auto klass : {mecc::trace::MpkiClass::kLow,
                             mecc::trace::MpkiClass::kMed,
                             mecc::trace::MpkiClass::kHigh}) {
      const auto it =
          std::find_if(benchmarks.begin(), benchmarks.end(),
                       [klass](const auto& b) { return b.klass == klass; });
      out.push_back({&*it, c});
    }
    return out;
  }
  const std::size_t n = benchmarks.size();
  const std::size_t policies = w.jobs.size() / n;
  const std::size_t stride = std::max<std::size_t>(1, n / max_jobs);
  for (std::size_t b = 0, k = 0; b < n && out.size() < max_jobs;
       b += stride, ++k) {
    out.push_back(w.jobs[(k % policies) * n + b]);
  }
  return out;
}

/// Records from the sampled jobs' stream-0 generators, round robin.
std::vector<TraceRecord> records(const std::vector<Job>& jobs,
                                 std::size_t count) {
  std::vector<mecc::trace::GeneratorSource> gens;
  gens.reserve(jobs.size());
  for (const Job& j : jobs) {
    gens.emplace_back(*j.profile, stream0_generator(j.config));
  }
  std::vector<TraceRecord> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(gens[i % gens.size()].next());
  }
  return out;
}

void memctrl_leg(const std::vector<Job>& jobs, Spans& spans, double clock_ns,
                 LegReport& out) {
  const mecc::sim::SystemConfig& c = jobs.front().config;
  mecc::dram::Device device(c.geometry, c.timing);
  mecc::memctrl::ControllerConfig cc = c.controller;
  cc.interleave = c.interleave;
  mecc::memctrl::Controller ctl(device, cc);
  // Only the lines the system router sends to channel 0 reach it.
  const mecc::memctrl::AddressMap route(c.geometry, c.interleave);
  std::vector<TraceRecord> reqs;
  for (const TraceRecord& r : records(jobs, 16384)) {
    if (route.decode(r.line_addr).channel == 0) reqs.push_back(r);
  }
  if (reqs.empty()) throw std::runtime_error("no requests for channel 0");
  mecc::dram::MemCycle now = 0;
  std::size_t next = 0;
  std::uint64_t reads = 0;
  std::uint64_t completed = 0;
  constexpr std::uint64_t kSteps = 1024;
  const auto step = [&] {
    // One request offered every fourth memory cycle.
    if (now % 4 == 0) {
      const TraceRecord& r = reqs[next % reqs.size()];
      const bool ok = r.is_write ? ctl.enqueue_write(r.line_addr, now)
                                 : ctl.enqueue_read(r.line_addr, next, now);
      if (ok) {
        ++next;
        if (!r.is_write) ++reads;
      }
    }
    ctl.tick(now);
    if (ctl.has_in_flight()) completed += ctl.collect_completions(now).size();
    ++now;
  };
  constexpr int kRounds = 150;
  double tick_ns = 0.0;
  double next_event_ns = 0.0;
  std::uint64_t sink = 0;
  for (int r = 0; r < kRounds; ++r) {
    tick_ns += time_batches(spans, "memctrl.tick", 1, kSteps, clock_ns,
                            kNoPrep, [&] {
                              for (std::uint64_t i = 0; i < kSteps; ++i) step();
                            });
    next_event_ns += time_batches(
        spans, "memctrl.next_event", 1, kSteps, clock_ns, kNoPrep, [&] {
          for (std::uint64_t i = 0; i < kSteps; ++i) sink += ctl.next_event(now);
        });
  }
  keep(sink);
  // Check: every accepted read completes once the queues drain.
  for (int guard = 0; guard < 1'000'000 && !ctl.idle(); ++guard) {
    ctl.tick(now);
    if (ctl.has_in_flight()) completed += ctl.collect_completions(now).size();
    ++now;
  }
  if (completed != reads) {
    out.errors.push_back("memctrl leg: " + std::to_string(reads) +
                         " reads accepted, " + std::to_string(completed) +
                         " completed");
  }
  out.metrics["memctrl.tick_ns"] = tick_ns / kRounds;
  out.metrics["memctrl.next_event_ns"] = next_event_ns / kRounds;
}

void cpu_leg(const std::vector<Job>& jobs, Spans& spans, double clock_ns,
             LegReport& out) {
  // A batch advances each of kCores cores, each parked in a pure gap,
  // once; the untimed prep walks every core to its next pure gap.
  constexpr std::size_t kCores = 256;
  std::vector<std::unique_ptr<mecc::trace::GeneratorSource>> sources;
  std::vector<std::unique_ptr<mecc::cpu::InOrderCore>> cores;
  std::vector<std::uint64_t> tags(kCores, 0);
  for (std::size_t j = 0; j < kCores; ++j) {
    const Job& job = jobs[j % jobs.size()];
    mecc::trace::GeneratorConfig g = stream0_generator(job.config);
    g.seed += 0x9E3779B97F4A7C15ull * j;
    sources.push_back(
        std::make_unique<mecc::trace::GeneratorSource>(*job.profile, g));
    const double ipc = std::clamp(job.profile->paper_ipc, 0.1, 2.0);
    cores.push_back(std::make_unique<mecc::cpu::InOrderCore>(
        mecc::cpu::CoreConfig{.base_ipc = ipc, .width = 2}, *sources.back(),
        [&tags, j](mecc::Address, std::uint64_t tag) {
          tags[j] = tag;
          return true;
        },
        [](mecc::Address) { return true; }));
  }
  const auto prep = [&] {
    for (std::size_t j = 0; j < kCores; ++j) {
      auto& core = *cores[j];
      int guard = 0;
      while (!core.in_pure_gap()) {
        if (++guard > 100'000) throw std::runtime_error("cpu leg: no gap");
        if (core.stalled_on_read()) {
          core.on_read_data(tags[j]);
        } else {
          core.tick();
        }
      }
    }
  };
  mecc::Cycle advanced = 0;
  const double ns = time_batches(spans, "cpu.advance_gap", 100, kCores,
                                 clock_ns, prep, [&] {
                                   for (auto& core : cores) {
                                     advanced += core->advance_gap(
                                         mecc::Cycle{1} << 30,
                                         mecc::InstCount{1} << 62);
                                   }
                                 });
  if (advanced == 0) out.errors.push_back("cpu leg: advance_gap never moved");
  out.metrics["cpu.advance_gap_ns"] = ns;
}

void trace_leg(const std::vector<Job>& jobs, Spans& spans, double clock_ns,
               LegReport& out) {
  std::vector<mecc::trace::GeneratorSource> gens;
  gens.reserve(jobs.size());
  for (const Job& j : jobs) {
    gens.emplace_back(*j.profile, stream0_generator(j.config));
  }
  constexpr std::uint64_t kCalls = 1024;
  std::size_t g = 0;
  std::uint64_t sink = 0;
  const double ns = time_batches(
      spans, "trace.next", 200, kCalls, clock_ns,
      [&] { g = (g + 1) % gens.size(); },
      [&] {
        for (std::uint64_t i = 0; i < kCalls; ++i) sink += gens[g].next().gap;
      });
  keep(sink);
  out.metrics["trace.next_ns"] = ns;
}

void engine_leg(const std::vector<Job>& jobs, Spans& spans, double clock_ns,
                LegReport& out) {
  const mecc::sim::SystemConfig& c = jobs.front().config;
  mecc::morph::EngineConfig ec;
  ec.memory_lines = c.geometry.total_lines();
  ec.memory_bytes = c.geometry.capacity_bytes();
  ec.use_mdt = c.mecc_use_mdt;
  ec.mdt_entries = c.mdt_entries;
  ec.use_smd = c.mecc_use_smd;
  ec.smd_mpkc_threshold = c.smd_mpkc_threshold;
  ec.smd_quantum_cycles = c.smd_quantum_cycles;
  mecc::morph::Engine engine(ec);
  const std::vector<TraceRecord> recs = records(jobs, 65536);
  constexpr std::uint64_t kCalls = 1024;
  constexpr int kRounds = 64;
  std::size_t i = 0;
  std::uint64_t sink = 0;
  const double ns = time_batches(
      spans, "mecc.on_read", kRounds, kCalls, clock_ns, kNoPrep, [&] {
        for (std::uint64_t k = 0; k < kCalls; ++k) {
          sink += engine.on_read(recs[i++ % recs.size()].line_addr).downgrade;
        }
      });
  keep(sink);
  const mecc::StatSet& s = engine.stats();
  if (s.counter("reads_strong") + s.counter("reads_weak") != i) {
    out.errors.push_back("mecc leg: engine read count mismatch");
  }
  out.metrics["mecc.on_read_ns"] = ns;
}

std::vector<BitVec> random_lines(std::size_t n, std::uint64_t seed) {
  mecc::Rng rng(seed);
  std::vector<BitVec> out;
  for (std::size_t i = 0; i < n; ++i) {
    BitVec d(mecc::morph::kDataBits);
    for (std::size_t k = 0; k < d.size(); k += 64) {
      d.splice(k, BitVec::from_u64(rng.engine()(), 64));
    }
    out.push_back(std::move(d));
  }
  return out;
}

void codec_legs(const Workload& w, Spans& spans, double clock_ns,
                LegReport& out) {
  using mecc::morph::LineMode;
  const mecc::morph::LineCodec codec;
  constexpr std::size_t kLines = 256;
  constexpr int kRounds = 20;
  const std::vector<BitVec> data = random_lines(kLines, w.seed);
  const auto mode_of = [](std::size_t i) {
    return i % 2 == 0 ? LineMode::kStrong : LineMode::kWeak;
  };
  std::vector<BitVec> stored(kLines);
  out.metrics["mecc.store_ns"] = time_batches(
      spans, "mecc.store", kRounds, kLines, clock_ns, kNoPrep, [&] {
        for (std::size_t i = 0; i < kLines; ++i) {
          stored[i] = codec.store(data[i], mode_of(i));
        }
      });
  for (std::size_t i = 0; i < kLines; ++i) {
    const auto r = codec.load(stored[i]);
    if (!r.ok || r.data != data[i] || r.mode != mode_of(i)) {
      out.errors.push_back("codec leg: clean line " + std::to_string(i) +
                           " did not round-trip");
      break;
    }
  }
  // Loads of lines corrupted at the workload's BER.
  mecc::reliability::FaultInjector inj(w.seed ^ 0x5DEECE66Dull);
  std::vector<BitVec> noisy = stored;
  for (BitVec& s : noisy) (void)inj.inject(s, w.ber);
  std::uint64_t ok = 0;
  out.metrics["mecc.load_ns"] = time_batches(
      spans, "mecc.load", kRounds, kLines, clock_ns, kNoPrep, [&] {
        for (const BitVec& s : noisy) ok += codec.load(s).ok;
      });
  keep(ok);

  // ECC-Upgrade walk over a weak-written image (re-written untimed).
  constexpr std::size_t kImageLines = 1024;
  mecc::morph::MemoryImage image(kImageLines);
  out.metrics["mecc.upgrade_ns_per_line"] = time_batches(
      spans, "mecc.upgrade_all", 5, kImageLines, clock_ns,
      [&] {
        for (std::size_t i = 0; i < kImageLines; ++i) {
          image.write_line(i, data[i % kLines], LineMode::kWeak);
        }
      },
      [&] { image.upgrade_all(); });
  if (image.stored_mode(0) != LineMode::kStrong) {
    out.errors.push_back("codec leg: upgrade_all left a weak line");
  }

  // The two codes on their own, with errors at the workload's BER.
  const mecc::ecc::Secded& secded = codec.weak_code();
  const mecc::ecc::Bch& bch = codec.strong_code();
  std::vector<BitVec> cw_s;
  std::vector<BitVec> cw_b;
  for (const BitVec& d : data) {
    cw_s.push_back(secded.encode(d));
    cw_b.push_back(bch.encode(d));
    if (bch.decode(cw_b.back()).data != d) {
      out.errors.push_back("ecc leg: BCH clean decode mismatch");
    }
    (void)inj.inject(cw_s.back(), w.ber);
    (void)inj.inject(cw_b.back(), w.ber);
  }
  std::uint64_t sink = 0;
  out.metrics["ecc.secded_decode_ns"] = time_batches(
      spans, "ecc.secded_decode", kRounds, kLines, clock_ns, kNoPrep, [&] {
        for (const BitVec& c : cw_s) sink += secded.decode(c).corrected_bits;
      });
  out.metrics["ecc.bch_decode_ns"] = time_batches(
      spans, "ecc.bch_decode", kRounds, kLines, clock_ns, kNoPrep, [&] {
        for (const BitVec& c : cw_b) sink += bch.decode(c).corrected_bits;
      });

  // Reliability: retention-error injection and the Table I analytics.
  std::vector<BitVec> words(kLines, BitVec(mecc::morph::kStoredBits));
  out.metrics["reliability.inject_ns_per_line"] = time_batches(
      spans, "reliability.inject", kRounds, kLines, clock_ns, kNoPrep, [&] {
        for (BitVec& word : words) sink += inj.inject(word, w.ber);
      });
  double p_sum = 0.0;
  constexpr std::uint64_t kProbs = 256;
  out.metrics["reliability.line_failure_probability_ns"] = time_batches(
      spans, "reliability.line_failure_probability", kRounds, kProbs,
      clock_ns, kNoPrep, [&] {
        for (std::uint64_t k = 0; k < kProbs; ++k) {
          p_sum += mecc::reliability::line_failure_probability(
              572, 6, w.ber * (1.0 + 1e-3 * static_cast<double>(k)));
        }
      });
  if (!(p_sum >= 0.0 && p_sum <= static_cast<double>(kProbs * (kRounds + 1)))) {
    out.errors.push_back("reliability leg: probability out of [0, 1]");
  }
  keep(sink);
}

void fleet_leg(const Workload& w, Spans& spans, double clock_ns,
               LegReport& out) {
  namespace fleet = mecc::sim::fleet;
  fleet::FleetConfig fc;
  fc.seed = w.seed;
  constexpr std::uint64_t kDevices = 1000;
  constexpr int kRounds = 20;
  std::uint64_t next = 0;
  double energy = 0.0;
  const double ns = time_batches(
      spans, "fleet.device_model", kRounds, kDevices, clock_ns, kNoPrep, [&] {
        for (std::uint64_t d = 0; d < kDevices; ++d) {
          const fleet::DeviceSample s = fleet::sample_device(fc, next++);
          energy += fleet::simulate_device(fc, s).energy_mj_per_day;
        }
      });
  if (!(energy > 0.0)) out.errors.push_back("fleet leg: no device energy");
  out.metrics["fleet.model_us_per_device"] = ns * 1e-3;
}

}  // namespace

void run_system_leg(const Workload& w, Spans& spans,
                    const std::map<std::string, std::string>& pass_digests,
                    std::uint64_t* next_calls, LegReport& out) {
  Scope leg(spans, "leg.sim");
  for (const Job& job : sample_jobs(w, 7)) {
    ++out.checks;
    try {
      const bool wrap = job.config.streams <= 1;
      std::unique_ptr<mecc::sim::System> sys;
      {
        Scope s(spans, "system.construct");
        sys = make_system(job, wrap, spans, next_calls);
      }
      mecc::sim::RunResult r;
      {
        Scope s(spans, "system.run_period");
        r = sys->run_period(job.config.instructions);
      }
      // A fresh System's first period equals the pass's run() of the same
      // job (lifecycle passes digest whole lifecycles, so are not keyed).
      const auto it = pass_digests.find(job.id());
      if (w.kind != Kind::kLifecycle && it != pass_digests.end() &&
          it->second != hex64(digest(r))) {
        out.errors.push_back("sim leg: " + job.id() +
                             " differs from the untraced pass");
      }
      {
        Scope s(spans, "system.idle_period");
        (void)sys->idle_period(w.idle_seconds > 0.0 ? w.idle_seconds : 1.0);
      }
      add_stats(r.stats, out.stats);
      Scope s(spans, "system.teardown");
      sys.reset();
    } catch (const std::exception& e) {
      out.errors.push_back("sim leg: " + job.id() + ": " + e.what());
    }
  }
}

void run_layer_legs(const Workload& w, Spans& spans, double clock_ns,
                    LegReport& out) {
  const std::vector<Job> jobs = sample_jobs(w, 7);
  const auto leg = [&](const char* name, auto&& body) {
    ++out.checks;
    Scope s(spans, name);
    try {
      body();
    } catch (const std::exception& e) {
      out.errors.push_back(std::string(name) + ": " + e.what());
    }
  };
  leg("leg.memctrl", [&] { memctrl_leg(jobs, spans, clock_ns, out); });
  leg("leg.cpu", [&] { cpu_leg(jobs, spans, clock_ns, out); });
  leg("leg.trace", [&] { trace_leg(jobs, spans, clock_ns, out); });
  leg("leg.mecc", [&] { engine_leg(jobs, spans, clock_ns, out); });
  leg("leg.codec", [&] { codec_legs(w, spans, clock_ns, out); });
  leg("leg.fleet", [&] { fleet_leg(w, spans, clock_ns, out); });
}

}  // namespace perfbench
