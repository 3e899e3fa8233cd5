#include "workloads.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "reliability/retention_model.h"
#include "sim/experiment.h"
#include "sim/run_json.h"
#include "trace/trace_source.h"

extern char** environ;

namespace perfbench {

using mecc::sim::EccPolicy;
using mecc::sim::RunResult;
using mecc::sim::System;
using mecc::sim::SystemConfig;

namespace {

// Slice lengths. suite_1ch runs the Fig. 7 set at 5 M instructions, where
// its geomeans sit 0.023 from the paper's (fig7_ipc_err); memsys_8ch and
// the lifecycle bursts are sized so one pass takes a few host seconds.
constexpr mecc::InstCount kSuiteInsts = 5'000'000;
constexpr mecc::InstCount kMemsysInsts = 500'000;
constexpr mecc::InstCount kBurstInsts = 100'000;

// The paper's Fig. 7 geomean normalized IPC for SECDED / ECC-6 / MECC.
constexpr double kPaperFig7[3] = {0.995, 0.90, 0.988};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-6;
}

std::vector<Job> suite_jobs(const std::vector<EccPolicy>& policies,
                            const SystemConfig& base) {
  std::vector<Job> jobs;
  const auto benchmarks = mecc::trace::all_benchmarks();
  for (const EccPolicy p : policies) {
    for (std::size_t i = 0; i < benchmarks.size(); ++i) {
      Job j;
      j.profile = &benchmarks[i];
      j.config = base;
      j.config.policy = p;
      j.config.seed = mecc::sim::suite_seed(base.seed, i);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::string idle_json(const mecc::sim::IdleReport& r) {
  mecc::JsonWriter w(-1);
  w.begin_object();
  w.key("lines_upgraded");
  w.value(r.lines_upgraded);
  w.key("upgrade_seconds");
  w.value(r.upgrade_seconds);
  w.key("idle_seconds");
  w.value(r.idle_seconds);
  w.key("idle_energy_mj");
  w.value(r.idle_energy_mj);
  w.key("refresh_pulses");
  w.value(r.refresh_pulses);
  w.key("refresh_period_s");
  w.value(r.refresh_period_s);
  w.key("injected_bits");
  w.value(r.injected_bits);
  w.key("injected_ber");
  w.value(r.injected_ber);
  w.end_object();
  return w.str();
}

/// Max over SECDED / ECC-6 / MECC of |geomean normalized IPC - paper|.
double fig7_error(const std::vector<Job>& jobs,
                  const std::vector<RunResult>& results) {
  std::map<std::string, double> base;
  std::map<EccPolicy, std::vector<double>> norm;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].config.policy == EccPolicy::kNoEcc) {
      base[results[i].benchmark] = results[i].ipc;
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const EccPolicy p = jobs[i].config.policy;
    if (p == EccPolicy::kNoEcc) continue;
    norm[p].push_back(results[i].ipc / base.at(results[i].benchmark));
  }
  const EccPolicy order[3] = {EccPolicy::kSecded, EccPolicy::kEcc6,
                              EccPolicy::kMecc};
  double err = 0.0;
  for (int k = 0; k < 3; ++k) {
    err = std::max(err,
                   std::abs(mecc::sim::geomean(norm[order[k]]) - kPaperFig7[k]));
  }
  return err;
}

void run_suite_pass(const Workload& w, Spans& spans, PassOut& out) {
  // run_jobs builds each System inside the library, out of reach of an
  // outside timer, so set-up is measured by constructing the same
  // Systems directly first (this probe is not part of the pass wall).
  // A 1-channel System builds in tens of microseconds, so the probe is
  // repeated to give setup_s a stable median.
  for (int rep = 0; rep < 5; ++rep) {
    double setup = 0.0;
    for (const Job& job : w.jobs) {
      std::unique_ptr<System> sys;
      {
        Scope s(spans, "system.construct");
        const std::int64_t a = now_ns();
        sys = make_system(job, false, spans, nullptr);
        setup += ms_between(a, now_ns()) * 1e-3;
      }
      Scope s(spans, "system.teardown");
      sys.reset();
    }
    out.setup_s.push_back(setup);
  }

  std::vector<mecc::sim::SuiteJob> jobs;
  for (const Job& j : w.jobs) jobs.push_back({j.profile, j.config.policy, j.config});
  struct Done {
    std::int64_t end;
    double seconds;
  };
  std::vector<Done> done;
  std::mutex mu;
  const mecc::sim::ProgressFn progress =
      [&](const RunResult& r, std::size_t, std::size_t) {
        const std::lock_guard<std::mutex> lock(mu);
        done.push_back({now_ns(), r.wall_seconds});
      };
  std::vector<RunResult> results;
  const std::int64_t start = now_ns();
  {
    Scope s(spans, "run_jobs");
    results = mecc::sim::run_jobs(jobs, w.workers, progress);
    // Job spans: each ends when the library reports it and lasts the
    // wall time run_benchmark stamped on it (construction + run).
    for (const Done& d : done) {
      const auto dur = static_cast<std::int64_t>(d.seconds * 1e9);
      spans.add("run_jobs.job", d.end - dur, d.end);
    }
  }
  out.wall_s = ms_between(start, now_ns()) * 1e-3;
  for (const Done& d : done) {
    out.run_ms.push_back(d.seconds * 1e3);
    out.wait_ms.push_back(
        ms_between(start, d.end - static_cast<std::int64_t>(d.seconds * 1e9)));
    out.busy_s += d.seconds;
    out.active_s += d.seconds;
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    out.digests[w.jobs[i].id()] = hex64(digest(results[i]));
    add_stats(results[i].stats, out.stats);
    out.work += results[i].instructions;
  }
  out.fig7_ipc_err = fig7_error(w.jobs, results);
}

void run_serial_pass(const Workload& w, Spans& spans, PassOut& out) {
  double setup = 0.0;
  const std::int64_t start = now_ns();
  for (const Job& job : w.jobs) {
    try {
      const std::int64_t a = now_ns();
      std::unique_ptr<System> sys;
      {
        Scope s(spans, "system.construct");
        sys = make_system(job, false, spans, nullptr);
      }
      const std::int64_t b = now_ns();
      RunResult r;
      {
        Scope s(spans, "system.run");
        r = sys->run();
      }
      const std::int64_t c = now_ns();
      {
        Scope s(spans, "system.teardown");
        sys.reset();
      }
      setup += ms_between(a, b) * 1e-3;
      out.run_ms.push_back(ms_between(b, c));
      out.wait_ms.push_back(ms_between(start, a));
      out.busy_s += ms_between(a, c) * 1e-3;
      out.active_s += ms_between(b, c) * 1e-3;
      out.work += r.instructions;
      out.digests[job.id()] = hex64(digest(r));
      add_stats(r.stats, out.stats);
    } catch (const std::exception& e) {
      out.errors.push_back(job.id() + ": " + e.what());
    }
  }
  out.wall_s = ms_between(start, now_ns()) * 1e-3;
  out.setup_s.push_back(setup);
}

void run_lifecycle_pass(const Workload& w, Spans& spans,
                        std::uint64_t* next_calls, PassOut& out) {
  double setup = 0.0;
  const std::int64_t start = now_ns();
  for (const Job& job : w.jobs) {
    try {
      const std::int64_t a = now_ns();
      std::unique_ptr<System> sys;
      {
        Scope s(spans, "system.construct");
        sys = make_system(job, spans.enabled(), spans, next_calls);
      }
      setup += ms_between(a, now_ns()) * 1e-3;
      out.wait_ms.push_back(ms_between(start, a));
      std::uint64_t h = kFnvOffset;
      RunResult last;
      for (unsigned k = 0; k < w.bursts; ++k) {
        std::int64_t b = now_ns();
        {
          Scope s(spans, "system.run_period");
          last = sys->run_period(job.config.instructions);
        }
        std::int64_t c = now_ns();
        out.run_ms.push_back(ms_between(b, c));
        out.active_s += ms_between(b, c) * 1e-3;
        out.busy_s += ms_between(b, c) * 1e-3;
        out.work += last.instructions;
        h = digest(last, h);
        mecc::sim::IdleReport idle;
        b = now_ns();
        {
          Scope s(spans, "system.idle_period");
          idle = sys->idle_period(w.idle_seconds);
        }
        c = now_ns();
        out.idle_ms.push_back(ms_between(b, c));
        out.busy_s += ms_between(b, c) * 1e-3;
        h = fnv1a(idle_json(idle), h);
      }
      {
        Scope s(spans, "system.teardown");
        sys.reset();
      }
      out.digests[job.id()] = hex64(h);
      // RunResult.stats are cumulative over the System's lifetime.
      add_stats(last.stats, out.stats);
    } catch (const std::exception& e) {
      out.errors.push_back(job.id() + ": " + e.what());
    }
  }
  out.wall_s = ms_between(start, now_ns()) * 1e-3;
  out.setup_s.push_back(setup);
}

struct Campaign {
  int status = -1;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  long maxrss_kb = 0;
};

/// Runs bench_fleet_campaign to completion with stdout discarded and
/// stderr kept in `log`; the MECC_* option environment is stripped so
/// only the flags given here apply.
Campaign spawn_campaign(const std::string& exe,
                        const std::vector<std::string>& args,
                        const std::string& log) {
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MECC_", 5) != 0) envp.push_back(*e);
  }
  envp.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  Campaign c;
  pid_t pid = 0;
  const std::int64_t a = now_ns();
  const int rc =
      posix_spawn(&pid, exe.c_str(), &fa, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + exe + ": " + std::strerror(rc));
  }
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  c.wall_s = ms_between(a, now_ns()) * 1e-3;
  c.status = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  c.maxrss_kb = ru.ru_maxrss;
  return c;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void run_fleet_pass(const Workload& w, const Env& env, Spans& spans,
                    PassOut& out) {
  namespace fs = std::filesystem;
  static int serial = 0;
  const auto campaign = [&](std::uint64_t devices, const char* span_name) {
    const std::string dir =
        env.work_dir + "/fleet_" + std::to_string(serial++);
    fs::remove_all(dir);
    Campaign c;
    {
      Scope s(spans, span_name);
      c = spawn_campaign(env.fleet_exe,
                         {"--fleet-devices=" + std::to_string(devices),
                          "--jobs=" + std::to_string(w.workers),
                          "--seed=" + std::to_string(w.seed),
                          "--fleet-state-dir=" + dir, "--out=" + dir + ".json"},
                         dir + ".log");
    }
    out.peak_child_rss_kb = std::max(out.peak_child_rss_kb, c.maxrss_kb);
    return std::make_pair(c, dir);
  };

  // Set-up: the fixed cost of a campaign (process start, state dir,
  // one worker, checkpoint and aggregate write), from 1-device runs.
  for (int i = 0; i < 3; ++i) {
    const auto [c, dir] = campaign(1, "fleet.setup_probe");
    if (c.status != 0) {
      out.errors.push_back("set-up campaign exited " + std::to_string(c.status));
    }
    out.setup_s.push_back(c.wall_s);
    fs::remove_all(dir);
    fs::remove(dir + ".json");
    fs::remove(dir + ".log");
  }

  const std::int64_t start = now_ns();
  const auto [c, dir] = campaign(w.fleet_devices, "fleet.campaign");
  out.wall_s = c.wall_s;
  out.run_ms.push_back(c.wall_s * 1e3);
  out.wait_ms.push_back(ms_between(start, now_ns()) - c.wall_s * 1e3);
  out.busy_s = c.cpu_s;
  out.active_s = c.wall_s;
  if (c.status != 0) {
    // Keyed like the campaign's digest, so the failure counts once.
    out.errors.push_back("aggregate.jsonl: campaign exited " +
                         std::to_string(c.status));
    return;
  }
  out.work = w.fleet_devices;
  out.digests["aggregate.jsonl"] =
      hex64(fnv1a(read_file(dir + "/aggregate.jsonl")));
  out.fleet_report = read_file(dir + ".json");
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) out.state_bytes += e.file_size();
  }
  fs::remove_all(dir);
  fs::remove(dir + ".json");
  fs::remove(dir + ".log");
}

}  // namespace

std::string Job::id() const {
  return mecc::sim::policy_name(config.policy) + "/" + std::string(profile->name);
}

mecc::trace::GeneratorConfig stream0_generator(const SystemConfig& c) {
  return mecc::trace::GeneratorConfig{
      .footprint_scale = c.footprint_scale != 0.0
                             ? c.footprint_scale
                             : static_cast<double>(c.instructions) / 4e9,
      .phase_length_insts =
          c.phase_length_insts != 0
              ? c.phase_length_insts
              : std::max<std::uint64_t>(1, c.instructions / 8),
      .base_addr = 0,
      .seed = c.seed,
  };
}

mecc::trace::TraceRecord BatchingSource::next() {
  if (pos_ == buf_.size()) {
    buf_.resize(kBatch);
    Scope s(spans_, "trace.next");
    for (auto& rec : buf_) rec = inner_->next();
    pos_ = 0;
  }
  ++*consumed_;
  return buf_[pos_++];
}

std::unique_ptr<System> make_system(const Job& job, bool wrap, Spans& spans,
                                    std::uint64_t* next_calls) {
  if (!wrap) return std::make_unique<System>(*job.profile, job.config);
  auto inner = std::make_unique<mecc::trace::GeneratorSource>(
      *job.profile, stream0_generator(job.config));
  return std::make_unique<System>(
      *job.profile, job.config,
      std::make_unique<BatchingSource>(std::move(inner), spans, next_calls));
}

void add_stats(const mecc::StatSet& s, std::map<std::string, double>& out) {
  for (const auto& [k, v] : s.counters()) out[k] += static_cast<double>(v);
  for (const auto& [k, v] : s.gauges()) out[k] += v;
}

std::uint64_t digest(const RunResult& r, std::uint64_t h) {
  mecc::JsonWriter w(-1);
  mecc::sim::run_result_json(w, r);
  return fnv1a(w.str(), h);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.ber = mecc::reliability::RetentionModel().bit_failure_probability(1.0);
  SystemConfig base;
  base.seed = seed;
  if (name == "suite_1ch") {
    w.kind = Kind::kSuite;
    w.workers = 2;
    base.instructions = kSuiteInsts;
    w.jobs = suite_jobs({EccPolicy::kNoEcc, EccPolicy::kSecded,
                         EccPolicy::kEcc6, EccPolicy::kMecc},
                        base);
  } else if (name == "memsys_8ch") {
    w.kind = Kind::kSerial;
    base.instructions = kMemsysInsts;
    base.geometry.channels = 8;
    base.geometry.ranks = 2;
    base.streams = 4;
    base.controller.darp = true;
    base.controller.refresh_granularity =
        mecc::memctrl::RefreshGranularity::kPerBank;
    base.mecc_use_smd = false;
    w.jobs = suite_jobs({EccPolicy::kNoEcc, EccPolicy::kMecc}, base);
  } else if (name == "lifecycle_fault") {
    w.kind = Kind::kLifecycle;
    w.bursts = 3;
    w.idle_seconds = 10.0;
    w.ber = 4e-3;
    base.instructions = kBurstInsts;
    base.mecc_use_smd = true;
    base.fault.enabled = true;
    base.fault.shadow_lines = 2048;
    base.fault.ber_override = w.ber;
    base.fault.transient_read_ber = 1e-3;
    w.jobs = suite_jobs({EccPolicy::kMecc}, base);
  } else if (name == "fleet") {
    w.kind = Kind::kFleet;
    w.workers = 2;
    w.fleet_devices = 1'000'000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

PassOut run_pass(const Workload& w, const Env& env, Spans& spans,
                 std::uint64_t* next_calls) {
  PassOut out;
  Scope s(spans, "pass");
  try {
    switch (w.kind) {
      case Kind::kSuite:
        run_suite_pass(w, spans, out);
        break;
      case Kind::kSerial:
        run_serial_pass(w, spans, out);
        break;
      case Kind::kLifecycle:
        run_lifecycle_pass(w, spans, next_calls, out);
        break;
      case Kind::kFleet:
        run_fleet_pass(w, env, spans, out);
        break;
    }
  } catch (const std::exception& e) {
    out.errors.push_back(w.name + " pass: " + e.what());
  }
  return out;
}

}  // namespace perfbench
