// mecc_sim: command-line driver for the full simulator.
//
//   mecc_sim_cli --benchmark=libquantum --policy=mecc --instructions=20000000
//   mecc_sim_cli --trace=captured.trc --policy=ecc6 --decode-cycles=45
//   mecc_sim_cli --benchmark=astar --dump-trace=astar.trc --records=100000
//   mecc_sim_cli --list
//
// Flags:
//   --benchmark=NAME      workload profile (default: sphinx3)
//   --trace=FILE          replay a USIMM-style trace file instead
//   --policy=P            baseline | secded | ecc6 | mecc (default: mecc)
//   --instructions=N      active-period length (default: 20M)
//   --decode-cycles=N     strong-ECC decode latency (default: 30)
//   --strong-t=N          strong-ECC correction strength (default: 6)
//   --smd                 enable Selective Memory Downgrade
//   --no-mdt              disable Memory Downgrade Tracking
//   --seed=N              RNG seed
//   --csv=FILE            write the run's metrics to a CSV file
//   --suite               run all 28 benchmarks (pairs well with --csv)
//   --dump-trace=FILE     write the synthetic trace to FILE and exit
//   --records=N           records to dump (default: 100000)
//   --list                list available benchmark profiles and exit
//
// A malformed value (a number that is not a whole unsigned integer, an
// unknown benchmark or policy, an unreadable --trace file) names the
// flag on stderr and exits 2, like the bench binaries. A failure found
// later (a trace file that does not parse, an output that cannot be
// written) prints the error and exits 1.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>

#include "common/table.h"
#include "power/power_model.h"
#include "sim/csv.h"
#include "sim/experiment.h"
#include "trace/file_trace.h"

namespace {

using namespace mecc;

[[nodiscard]] std::optional<std::string> flag_value(int argc, char** argv,
                                                    const std::string& name) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return std::nullopt;
}

[[noreturn]] void bad_flag(const char* argv0, const std::string& name,
                           const std::string& value, const char* expected) {
  std::fprintf(stderr, "%s: error: invalid value '%s' for --%s: expected %s\n",
               argv0, value.c_str(), name.c_str(), expected);
  std::exit(2);
}

/// The flag's value parsed as a whole unsigned decimal of at least `min`,
/// or `fallback` when the flag is absent.
[[nodiscard]] std::uint64_t numeric_flag(int argc, char** argv,
                                         const std::string& name,
                                         std::uint64_t fallback,
                                         std::uint64_t min = 0) {
  const std::optional<std::string> s = flag_value(argc, argv, name);
  if (!s) return fallback;
  std::uint64_t v = 0;
  const char* end = s->data() + s->size();
  const auto [ptr, ec] = std::from_chars(s->data(), end, v);
  if (s->empty() || ec != std::errc() || ptr != end || v < min) {
    bad_flag(argv[0], name, *s,
             min > 0 ? "a positive integer" : "a non-negative integer");
  }
  return v;
}

[[nodiscard]] bool flag_set(int argc, char** argv, const std::string& name) {
  const std::string want = "--" + name;
  for (int i = 1; i < argc; ++i) {
    if (want == argv[i]) return true;
  }
  return false;
}

void list_benchmarks() {
  TextTable t({"benchmark", "class", "MPKI", "IPC", "footprint MB"});
  for (const auto& b : trace::all_benchmarks()) {
    t.add_row({std::string(b.name), trace::mpki_class_name(b.klass),
               TextTable::num(b.mpki, 1), TextTable::num(b.paper_ipc, 3),
               TextTable::num(b.footprint_mb, 1)});
  }
  t.print("Available benchmark profiles (Table III)");
}

int run(int argc, char** argv) {
  using namespace mecc::sim;

  if (flag_set(argc, argv, "list")) {
    list_benchmarks();
    return 0;
  }
  if (flag_set(argc, argv, "help") || flag_set(argc, argv, "-h")) {
    std::printf("see the header of examples/mecc_sim_cli.cpp for flags\n");
    return 0;
  }

  const std::string bench_name =
      flag_value(argc, argv, "benchmark").value_or("sphinx3");
  const trace::BenchmarkProfile* found = nullptr;
  for (const auto& b : trace::all_benchmarks()) {
    if (b.name == bench_name) {
      found = &b;
      break;
    }
  }
  if (found == nullptr) {
    bad_flag(argv[0], "benchmark", bench_name,
             "a benchmark profile name (see --list)");
  }
  const trace::BenchmarkProfile& profile = *found;
  const std::uint64_t seed = numeric_flag(argc, argv, "seed", 1);

  const std::string dump = flag_value(argc, argv, "dump-trace").value_or("");
  if (!dump.empty()) {
    const auto count = static_cast<std::size_t>(
        numeric_flag(argc, argv, "records", 100'000, 1));
    trace::GeneratorSource src(profile, trace::GeneratorConfig{.seed = seed});
    trace::write_trace_file(dump, trace::capture(src, count));
    std::printf("wrote %zu records of %s to %s\n", count,
                profile.name.data(), dump.c_str());
    return 0;
  }

  SystemConfig cfg;
  cfg.instructions =
      numeric_flag(argc, argv, "instructions", cfg.instructions, 1);
  cfg.seed = seed;
  cfg.ecc6_decode_cycles =
      numeric_flag(argc, argv, "decode-cycles", cfg.ecc6_decode_cycles);
  cfg.strong_ecc_t = numeric_flag(argc, argv, "strong-t", cfg.strong_ecc_t);
  cfg.mecc_use_smd = flag_set(argc, argv, "smd");
  cfg.mecc_use_mdt = !flag_set(argc, argv, "no-mdt");
  cfg.trace_file = flag_value(argc, argv, "trace").value_or("");
  if (!cfg.trace_file.empty() && !std::ifstream(cfg.trace_file)) {
    bad_flag(argv[0], "trace", cfg.trace_file, "a readable trace file");
  }

  const std::string policy_s =
      flag_value(argc, argv, "policy").value_or("mecc");
  EccPolicy policy = EccPolicy::kMecc;
  if (policy_s == "baseline") policy = EccPolicy::kNoEcc;
  else if (policy_s == "secded") policy = EccPolicy::kSecded;
  else if (policy_s == "ecc6") policy = EccPolicy::kEcc6;
  else if (policy_s != "mecc") {
    bad_flag(argv[0], "policy", policy_s, "baseline, secded, ecc6 or mecc");
  }

  const std::string csv_path = flag_value(argc, argv, "csv").value_or("");
  if (flag_set(argc, argv, "suite")) {
    std::printf("running all 28 benchmarks under %s...\n",
                policy_name(policy).c_str());
    cfg.policy = policy;
    const auto results = run_suite(policy, cfg);
    TextTable t({"benchmark", "IPC", "MPKI", "power mW"});
    for (const auto& res : results) {
      t.add_row({res.benchmark, TextTable::num(res.ipc),
                 TextTable::num(res.measured_mpki, 1),
                 TextTable::num(res.avg_power_mw, 1)});
    }
    t.print("Suite results");
    if (!csv_path.empty()) {
      write_results_csv(csv_path, results);
      std::printf("wrote %zu rows to %s\n", results.size(),
                  csv_path.c_str());
    }
    return 0;
  }

  std::printf("simulating %s under %s (%llu instructions)...\n",
              cfg.trace_file.empty() ? profile.name.data()
                                     : cfg.trace_file.c_str(),
              policy_name(policy).c_str(),
              static_cast<unsigned long long>(cfg.instructions));
  const RunResult r = run_benchmark(profile, policy, cfg);

  TextTable t({"metric", "value"});
  t.add_row({"IPC", TextTable::num(r.ipc)});
  t.add_row({"cycles", std::to_string(r.cpu_cycles)});
  t.add_row({"simulated seconds", TextTable::num(r.seconds, 4)});
  t.add_row({"MPKI", TextTable::num(r.measured_mpki, 2)});
  t.add_row({"memory reads / writes",
             std::to_string(r.reads) + " / " + std::to_string(r.writes)});
  t.add_row({"row hits / misses / conflicts",
             std::to_string(r.stats.counter("memctrl.row_hits")) + " / " +
                 std::to_string(r.stats.counter("memctrl.row_misses")) +
                 " / " +
                 std::to_string(r.stats.counter("memctrl.row_conflicts"))});
  t.add_row({"power-down entries",
             std::to_string(r.stats.counter("memctrl.pd_entries"))});
  t.add_row({"avg memory power", TextTable::num(r.avg_power_mw, 2) + " mW"});
  t.add_row({"memory energy", TextTable::num(r.energy.total_mj(), 3) + " mJ"});
  t.add_row({"EDP", TextTable::num(r.edp_mj_s, 5) + " mJ*s"});
  if (policy == EccPolicy::kMecc) {
    t.add_row({"strong (ECC-6) decodes", std::to_string(r.strong_decodes)});
    t.add_row({"weak (SECDED) decodes", std::to_string(r.weak_decodes)});
    t.add_row({"ECC-Downgrades", std::to_string(r.downgrades)});
    t.add_row({"MDT regions / tracked MB",
               std::to_string(r.mdt_marked_regions) + " / " +
                   TextTable::num(
                       static_cast<double>(r.mdt_tracked_bytes) / (1 << 20),
                       1)});
    if (cfg.mecc_use_smd) {
      t.add_row({"time downgrade disabled",
                 TextTable::pct(r.frac_downgrade_disabled, 1).substr(1)});
    }
  }
  t.print("Run report");

  if (!csv_path.empty()) {
    write_results_csv(csv_path, {r});
    std::printf("wrote metrics to %s\n", csv_path.c_str());
  }

  const mecc::power::PowerModel pm;
  std::printf("\nidle-mode power if this device now sleeps: %.2f mW"
              " (baseline 64 ms: %.2f mW)\n",
              pm.idle_power(policy == EccPolicy::kNoEcc ||
                                    policy == EccPolicy::kSecded
                                ? 0.064
                                : 1.0)
                  .total_mw(),
              pm.idle_power(0.064).total_mw());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: error: %s\n", argv[0], e.what());
    return 1;
  }
}
