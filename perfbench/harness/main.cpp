// perfbench_harness: runs one benchmark workload for a fixed host-time
// budget and writes every raw measurement as JSON. perfbench/run.py
// builds and drives it, checks the digests against the stored
// references and turns the raw samples into the reported metrics.
//
//   perfbench_harness --workload=NAME --seed=N --seconds=S
//                     --mode=timed|traced --fleet-exe=PATH
//                     --work-dir=DIR --out=FILE [--spans=FILE]
//
// timed:  one untimed warm-up pass, then passes until the budget is
//         spent (at least three), each between two host reference
//         rounds (ref_ms), no spans.
// traced: warm-up, then untraced and traced passes alternating over
//         ~60 % of the budget (their median walls give the tracing
//         overhead), then the layer legs and (off the fleet workload)
//         one fleet campaign; spans go to --spans.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "common/json.h"
#include "legs.h"
#include "support.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string fleet_exe;
  std::string work_dir = ".";
  std::string out;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench_harness: %s\n", why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        a.workload = val;
      } else if (key == "seed") {
        a.seed = std::stoull(val);
      } else if (key == "seconds") {
        a.seconds = std::stod(val);
      } else if (key == "mode") {
        if (val != "timed" && val != "traced") usage("bad --mode");
        a.traced = val == "traced";
      } else if (key == "fleet-exe") {
        a.fleet_exe = val;
      } else if (key == "work-dir") {
        a.work_dir = val;
      } else if (key == "out") {
        a.out = val;
      } else if (key == "spans") {
        a.spans = val;
      } else {
        usage("unknown option --" + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value in '" + arg + "'");
    }
  }
  if (a.workload.empty() || a.out.empty()) usage("--workload and --out are required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

void write_doubles(mecc::JsonWriter& w, const char* key,
                   const std::vector<double>& v) {
  w.key(key);
  w.begin_array();
  for (const double x : v) w.value(x);
  w.end_array();
}

void write_map(mecc::JsonWriter& w, const char* key,
               const std::map<std::string, double>& m) {
  w.key(key);
  w.begin_object();
  for (const auto& [k, v] : m) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
}

void write_strings(mecc::JsonWriter& w, const char* key,
                   const std::vector<std::string>& v) {
  w.key(key);
  w.begin_array();
  for (const auto& s : v) w.value(s);
  w.end_array();
}

void write_pass(mecc::JsonWriter& w, const PassOut& p, bool with_stats) {
  w.begin_object();
  w.key("wall_s");
  w.value(p.wall_s);
  write_doubles(w, "setup_s", p.setup_s);
  w.key("active_s");
  w.value(p.active_s);
  w.key("work");
  w.value(p.work);
  write_doubles(w, "run_ms", p.run_ms);
  write_doubles(w, "idle_ms", p.idle_ms);
  write_doubles(w, "wait_ms", p.wait_ms);
  w.key("busy_s");
  w.value(p.busy_s);
  w.key("digests");
  w.begin_object();
  for (const auto& [k, v] : p.digests) {
    w.key(k);
    w.value(v);
  }
  w.end_object();
  if (with_stats) write_map(w, "stats", p.stats);
  w.key("fig7_ipc_err");
  w.value(p.fig7_ipc_err);
  w.key("fleet_report");
  w.value(p.fleet_report);
  w.key("state_bytes");
  w.value(p.state_bytes);
  w.key("peak_child_rss_kb");
  w.value(static_cast<std::int64_t>(p.peak_child_rss_kb));
  write_strings(w, "errors", p.errors);
  w.end_object();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  const Env env{a.fleet_exe, a.work_dir};
  const double clock_ns = calibrate_clock_pair_ns();

  Spans off(false);
  Spans spans(a.traced);
  const PassOut warmup = run_pass(w, env, off, nullptr);
  std::vector<PassOut> passes;         // untraced, measured
  std::vector<PassOut> traced_passes;  // traced (traced mode only)
  // Timed mode: host reference times before every pass and after the
  // last, so ref_ms[i] and ref_ms[i + 1] bracket passes[i].
  std::optional<HostReference> reference;
  if (!a.traced) reference.emplace();
  std::vector<double> ref_ms;
  std::uint64_t pass_next_calls = 0;
  LegReport legs;
  std::uint64_t leg_next_calls = 0;

  const double budget = a.traced ? 0.6 * a.seconds : a.seconds;
  const std::int64_t start = now_ns();
  double last_s = 0.0;
  const auto elapsed_s = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  // Start another pass only if it should finish inside the budget.
  while (passes.size() < 200) {
    const std::size_t min_passes = a.traced ? 2 : 3;
    if (passes.size() >= min_passes && elapsed_s() + last_s > budget) break;
    if (reference) ref_ms.push_back(reference->time_ms());
    const std::int64_t t0 = now_ns();
    passes.push_back(run_pass(w, env, off, nullptr));
    if (a.traced) {
      traced_passes.push_back(run_pass(w, env, spans, &pass_next_calls));
    }
    last_s = static_cast<double>(now_ns() - t0) * 1e-9;
  }
  if (reference) ref_ms.push_back(reference->time_ms());
  // The fleet workload is run by hand only (its campaign time is too
  // noisy for a bound), so every other traced run also runs one fleet
  // campaign, for the fleet layer's orchestration metrics.
  const Workload fleet = make_workload("fleet", a.seed);
  std::vector<PassOut> fleet_legs;
  if (a.traced) {
    run_system_leg(w, spans, warmup.digests, &leg_next_calls, legs);
    run_layer_legs(w, spans, clock_ns, legs);
    if (w.kind != Kind::kFleet) {
      // Untraced: its pass span would count in sim.unattributed_ms.
      fleet_legs.push_back(run_pass(fleet, env, off, nullptr));
    }
  }

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  mecc::JsonWriter j(-1);
  j.begin_object();
  j.key("workload");
  j.value(w.name);
  j.key("seed");
  j.value(w.seed);
  j.key("mode");
  j.value(a.traced ? "traced" : "timed");
  j.key("clock_pair_ns");
  j.value(clock_ns);
  j.key("workers");
  j.value(w.workers);
  j.key("ber");
  j.value(w.ber);
  j.key("peak_rss_kb");
  j.value(static_cast<std::int64_t>(ru.ru_maxrss));
  write_doubles(j, "ref_ms", ref_ms);
  j.key("warmup");
  write_pass(j, warmup, a.traced);
  j.key("passes");
  j.begin_array();
  for (const auto& p : passes) write_pass(j, p, a.traced);
  j.end_array();
  j.key("traced_passes");
  j.begin_array();
  for (const auto& p : traced_passes) write_pass(j, p, true);
  j.end_array();
  j.key("fleet_workers");
  j.value(fleet.workers);
  j.key("fleet_legs");
  j.begin_array();
  for (const auto& p : fleet_legs) write_pass(j, p, false);
  j.end_array();
  j.key("legs");
  j.begin_object();
  write_map(j, "metrics", legs.metrics);
  write_map(j, "stats", legs.stats);
  write_strings(j, "errors", legs.errors);
  j.key("checks");
  j.value(legs.checks);
  j.key("next_calls");
  j.value(leg_next_calls);
  j.end_object();
  j.end_object();
  if (!write_file(a.out, j.str() + "\n")) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n", a.out.c_str());
    return 1;
  }
  if (a.traced && !a.spans.empty()) {
    mecc::JsonWriter s(-1);
    s.begin_object();
    s.key("clock_pair_ns");
    s.value(clock_ns);
    s.key("spans");
    spans.write_json(s);
    s.end_object();
    if (!write_file(a.spans, s.str() + "\n")) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                   a.spans.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
