#include "sim/fleet.h"

#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string_view>

#include "common/fsio.h"
#include "common/json.h"
#include "common/profile.h"
#include "power/power_model.h"
#include "sim/telemetry.h"
#include "reliability/failure_analysis.h"
#include "reliability/retention_model.h"

namespace mecc::sim::fleet {

namespace {

// ---- time -----------------------------------------------------------

[[nodiscard]] double mono_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double seconds) {
  if (seconds <= 0.0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(seconds);
  ts.tv_nsec = static_cast<long>((seconds - static_cast<double>(ts.tv_sec)) *
                                 1e9);
  ::nanosleep(&ts, nullptr);
}

// ---- hashing / mixing -----------------------------------------------

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer (Steele et al.): a full-avalanche bijection.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffull;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

[[nodiscard]] std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

[[nodiscard]] double bits_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// ---- shared model singletons ----------------------------------------

[[nodiscard]] const reliability::RetentionModel& retention_model() {
  static const reliability::RetentionModel model;
  return model;
}

[[nodiscard]] const power::PowerModel& power_model() {
  static const power::PowerModel model;
  return model;
}

/// Mean active-mode device power (mW) by workload class: DRAM active
/// power plus the Table III access intensity scaled into the SoC+DRAM
/// draw of a phone actively running that class of workload. Model
/// constants of the fleet population, not measurements.
[[nodiscard]] double active_power_mw(trace::MpkiClass klass) {
  switch (klass) {
    case trace::MpkiClass::kLow:
      return 180.0;
    case trace::MpkiClass::kMed:
      return 260.0;
    case trace::MpkiClass::kHigh:
      return 380.0;
  }
  return 260.0;
}

// ---- tiny strict scanners for our own JSON output -------------------
//
// The repo has a JSON *writer* only. Fleet checkpoint files are written
// exclusively by this module with a fixed key order and no
// brace/bracket characters inside string values, so parsing is a strict
// scan keyed on the serializer's exact output. Anything that does not
// scan cleanly is treated as absent and the orchestrator re-runs the
// shard (or rejects the manifest) — never a guess.

[[nodiscard]] bool scan_number_token(const std::string& doc,
                                     const std::string& key,
                                     std::string* token) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = doc.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  static constexpr std::string_view kNum = "-+.0123456789eE";
  while (end < doc.size() && kNum.find(doc[end]) != std::string_view::npos) {
    ++end;
  }
  if (end == begin) return false;
  *token = doc.substr(begin, end - begin);
  return true;
}

[[nodiscard]] bool scan_u64(const std::string& doc, const std::string& key,
                            std::uint64_t* out) {
  std::string token;
  if (!scan_number_token(doc, key, &token)) return false;
  char* endp = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(token.c_str(), &endp, 10);
  if (errno != 0 || endp == token.c_str() || *endp != '\0') return false;
  *out = v;
  return true;
}

/// Extracts the balanced {...} or [...] slice of `"key":` (inclusive of
/// the delimiters). Depth-counts both brace kinds; valid because no
/// string value this module writes contains one.
[[nodiscard]] bool scan_slice(const std::string& doc, const std::string& key,
                              char open, std::string* out) {
  const std::string needle = "\"" + key + "\":" + open;
  const std::size_t pos = doc.find(needle);
  if (pos == std::string::npos) return false;
  const std::size_t begin = pos + needle.size() - 1;
  int depth = 0;
  for (std::size_t i = begin; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      --depth;
      if (depth == 0) {
        *out = doc.substr(begin, i - begin + 1);
        return true;
      }
    }
  }
  return false;
}

void sketch_json(JsonWriter& w, const QuantileSketch& s) {
  w.begin_object();
  w.key("count");
  w.value(s.count());
  w.key("sum");
  w.value(s.sum());
  w.key("min");
  w.value(s.min());
  w.key("max");
  w.value(s.max());
  // min/max/sum are also carried as raw bit patterns: %.17g round-trips
  // every finite double, but byte-identical resume must not hinge on
  // the C library's strtod corner cases.
  w.key("min_bits");
  w.value(double_bits(s.min()));
  w.key("max_bits");
  w.value(double_bits(s.max()));
  w.key("sum_bits");
  w.value(double_bits(s.sum()));
  w.key("buckets");
  w.begin_array();
  for (const auto& [index, n] : s.buckets()) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(index));
    w.value(n);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

[[nodiscard]] bool scan_sketch(const std::string& doc, const std::string& key,
                               QuantileSketch* out) {
  std::string slice;
  if (!scan_slice(doc, key, '{', &slice)) return false;
  std::uint64_t count = 0;
  std::uint64_t min_bits = 0;
  std::uint64_t max_bits = 0;
  std::uint64_t sum_bits = 0;
  if (!scan_u64(slice, "count", &count) ||
      !scan_u64(slice, "min_bits", &min_bits) ||
      !scan_u64(slice, "max_bits", &max_bits) ||
      !scan_u64(slice, "sum_bits", &sum_bits)) {
    return false;
  }
  std::string buckets_slice;
  if (!scan_slice(slice, "buckets", '[', &buckets_slice)) return false;
  std::map<std::int32_t, std::uint64_t> buckets;
  const char* p = buckets_slice.c_str() + 1;  // past the outer '['
  for (;;) {
    while (*p == ',' || *p == ' ') ++p;
    if (*p == ']' || *p == '\0') break;
    if (*p != '[') return false;
    ++p;
    char* endp = nullptr;
    const long long index = std::strtoll(p, &endp, 10);
    if (endp == p || *endp != ',') return false;
    p = endp + 1;
    const unsigned long long n = std::strtoull(p, &endp, 10);
    if (endp == p || *endp != ']') return false;
    p = endp + 1;
    buckets[static_cast<std::int32_t>(index)] = n;
  }
  out->restore(buckets, count, bits_double(sum_bits), bits_double(min_bits),
               bits_double(max_bits));
  return true;
}

[[nodiscard]] std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

[[nodiscard]] std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---- worker argv parsing helpers ------------------------------------

[[nodiscard]] bool eat_prefix(const char* arg, const char* prefix,
                              const char** rest) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *rest = arg + n;
  return true;
}

[[nodiscard]] bool parse_u64_arg(const char* s, std::uint64_t* out) {
  char* endp = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &endp, 10);
  if (errno != 0 || endp == s || *endp != '\0') return false;
  *out = v;
  return true;
}

[[nodiscard]] bool parse_double_arg(const char* s, double* out) {
  char* endp = nullptr;
  const double v = std::strtod(s, &endp);
  if (endp == s || *endp != '\0') return false;
  *out = v;
  return true;
}

[[nodiscard]] std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// mkdir -p: creates every missing component; returns false only when a
/// component cannot be created (and does not already exist as a dir).
[[nodiscard]] bool mkdir_p(const std::string& path) {
  if (path.empty()) return false;
  std::string cur;
  std::size_t i = 0;
  while (i < path.size()) {
    std::size_t next = path.find('/', i);
    if (next == std::string::npos) next = path.size();
    cur.append(path, i, next - i + 1);
    i = next + 1;
    if (cur == "/" || cur.empty()) continue;
    if (::mkdir(cur.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

constexpr const char* kManifestSchema = "mecc-fleet-manifest-v1";
constexpr const char* kShardSchema = "mecc-fleet-shard-v1";
constexpr const char* kAggregateSchema = "mecc-fleet-aggregate-v1";
constexpr const char* kModelVersion = "fleet-model-v1";

/// The fingerprinted (population-defining) half of the config as a
/// compact JSON object. Byte-compared against the manifest on resume.
[[nodiscard]] std::string fingerprint_json(const FleetConfig& cfg) {
  JsonWriter w(-1);
  w.begin_object();
  w.key("model_version");
  w.value(kModelVersion);
  w.key("devices");
  w.value(cfg.devices);
  w.key("devices_per_shard");
  w.value(cfg.devices_per_shard);
  w.key("seed");
  w.value(cfg.seed);
  w.key("lines_per_device");
  w.value(cfg.model.lines_per_device);
  w.key("horizon_days");
  w.value(cfg.model.horizon_days);
  w.key("mean_active_share");
  w.value(cfg.model.mean_active_share);
  w.key("active_share_sigma");
  w.value(cfg.model.active_share_sigma);
  w.key("burst_seconds");
  w.value(cfg.model.burst_seconds);
  w.key("temp_min_c");
  w.value(cfg.model.temp_min_c);
  w.key("temp_max_c");
  w.value(cfg.model.temp_max_c);
  w.key("temp_ref_c");
  w.value(cfg.model.temp_ref_c);
  w.key("strong_refresh_s");
  w.value(cfg.model.strong_refresh_s);
  w.end_object();
  return w.str();
}

[[nodiscard]] std::uint64_t shard_begin(const FleetConfig& cfg,
                                        std::uint64_t shard) {
  return shard * cfg.devices_per_shard;
}

[[nodiscard]] std::uint64_t shard_end(const FleetConfig& cfg,
                                      std::uint64_t shard) {
  return std::min((shard + 1) * cfg.devices_per_shard, cfg.devices);
}

}  // namespace

// ---- CounterRng ------------------------------------------------------

CounterRng::CounterRng(std::uint64_t seed, std::uint64_t stream)
    : key_(mix64(mix64(seed) ^
                 (stream * 0xd1342543de82ef95ull + 0x2545f4914f6cdd1dull))) {}

std::uint64_t CounterRng::bits(std::uint64_t counter) const {
  return mix64(key_ ^ mix64(counter + 0x632be59bd9b4e019ull));
}

double CounterRng::uniform(std::uint64_t counter) const {
  // 53 top bits -> [0, 1) with full double mantissa resolution.
  return static_cast<double>(bits(counter) >> 11) * 0x1.0p-53;
}

double CounterRng::normal(std::uint64_t counter) const {
  double u1 = uniform(counter);
  const double u2 = uniform(counter + 1);
  if (u1 <= 0.0) u1 = 0x1.0p-53;  // log(0) guard
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double r = std::sqrt(-2.0 * std::log(u1));
  return r * std::cos(kTwoPi * u2);
}

std::uint64_t CounterRng::poisson(double lambda, std::uint64_t counter) const {
  if (!(lambda > 0.0)) return 0;
  if (lambda < 64.0) {
    // Knuth's product method; consumes one counter per event + 1.
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      p *= uniform(counter++);
      ++k;
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation for large lambda (relative error < 1/sqrt(64)
  // on the tail shape — fine for population aggregates).
  const double v = lambda + std::sqrt(lambda) * normal(counter);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
}

// ---- selftest spec ---------------------------------------------------

bool parse_selftest(const std::string& spec, SelftestSpec* out,
                    std::string* error) {
  *out = SelftestSpec{};
  std::size_t i = 0;
  while (i < spec.size()) {
    std::size_t end = spec.find(',', i);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(i, end - i);
    i = end + 1;
    if (entry.empty()) continue;
    const std::size_t at = entry.find('@');
    if (at == std::string::npos) {
      *error = "selftest entry missing '@': " + entry;
      return false;
    }
    const std::string kind = entry.substr(0, at);
    const std::string rest = entry.substr(at + 1);
    const std::size_t colon = rest.find(':');
    std::uint64_t a = 0;
    std::uint64_t b = 1;
    if (!parse_u64_arg(rest.substr(0, colon).c_str(), &a) ||
        (colon != std::string::npos &&
         !parse_u64_arg(rest.substr(colon + 1).c_str(), &b))) {
      *error = "selftest entry has a malformed number: " + entry;
      return false;
    }
    if (kind == "crash") {
      out->crash[a] = static_cast<unsigned>(b);
    } else if (kind == "dirty") {
      out->dirty[a] = static_cast<unsigned>(b);
    } else if (kind == "hang") {
      out->hang[a] = static_cast<unsigned>(b);
    } else if (kind == "slow") {
      if (colon == std::string::npos) {
        *error = "selftest slow@S:MS needs a millisecond count: " + entry;
        return false;
      }
      out->slow_ms[a] = static_cast<unsigned>(b);
    } else if (kind == "orch-exit") {
      if (a == 0) {
        *error = "selftest orch-exit@K needs K >= 1";
        return false;
      }
      out->orch_exit_after = a;
    } else {
      *error = "unknown selftest kind: " + kind;
      return false;
    }
  }
  return true;
}

// ---- fleet sampling & simulation ------------------------------------

std::uint64_t shard_count(const FleetConfig& cfg) {
  if (cfg.devices == 0 || cfg.devices_per_shard == 0) return 0;
  return (cfg.devices + cfg.devices_per_shard - 1) / cfg.devices_per_shard;
}

DeviceSample sample_device(const FleetConfig& cfg, std::uint64_t device) {
  const CounterRng rng(cfg.seed, device);
  DeviceSample s;
  s.device = device;
  // Workload class by the Table III benchmark shares (7/10/11 of 28).
  const double uc = rng.uniform(0);
  if (uc < 7.0 / 28.0) {
    s.klass = trace::MpkiClass::kLow;
  } else if (uc < 17.0 / 28.0) {
    s.klass = trace::MpkiClass::kMed;
  } else {
    s.klass = trace::MpkiClass::kHigh;
  }
  // Fig. 1 duty cycle: lognormal around the mean active share, with the
  // -sigma^2/2 correction so the population mean stays at the knob.
  const double sigma = cfg.model.active_share_sigma;
  const double z = rng.normal(1);  // consumes counters 1, 2
  s.active_share = std::clamp(
      cfg.model.mean_active_share * std::exp(sigma * z - 0.5 * sigma * sigma),
      0.002, 0.8);
  s.wakeups_per_day = s.active_share * 86400.0 / cfg.model.burst_seconds;
  s.temperature_c = cfg.model.temp_min_c +
                    (cfg.model.temp_max_c - cfg.model.temp_min_c) *
                        rng.uniform(3);
  // Retention halves per +10 C above the reference temperature, so a
  // device at T sees the BER a nominal device would see at a refresh
  // period stretched by 2^((T - ref)/10).
  const double temp_factor =
      std::exp2((s.temperature_c - cfg.model.temp_ref_c) / 10.0);
  s.ber = retention_model().bit_failure_probability(
      cfg.model.strong_refresh_s * temp_factor);
  return s;
}

DeviceResult simulate_device(const FleetConfig& cfg,
                             const DeviceSample& sample) {
  const CounterRng rng(cfg.seed, sample.device);
  DeviceResult r;
  // Reliability: every idle->active wake-up sweeps (reads) the sampled
  // line set; a line with > 6 flipped bits is a DUE (paper ECC-6 strong
  // mode), a line with 1..6 is a corrected error.
  const double p_due = reliability::line_failure_probability(
      reliability::kTable1LineBits, 6, sample.ber);
  const double p_any =
      -std::expm1(static_cast<double>(reliability::kTable1LineBits) *
                  std::log1p(-sample.ber));
  const double p_ce = std::max(0.0, p_any - p_due);
  const double lines = static_cast<double>(cfg.model.lines_per_device);
  const double sweeps = sample.wakeups_per_day * cfg.model.horizon_days;
  // Disjoint counter ranges: sampling used 0..3, DUE draws start at
  // 2^20, CE draws at 2^21 (Knuth's method consumes a variable count).
  r.due_events = rng.poisson(p_due * lines * sweeps, 1ull << 20);
  r.ce_events = rng.poisson(p_ce * lines * sweeps, 1ull << 21);
  r.due_per_year = p_due * lines * sample.wakeups_per_day * 365.0;
  // Energy: class-dependent active power while awake, Eq. 1 idle
  // self-refresh power (at the strong-mode period) while asleep.
  const double active_s = sample.active_share * 86400.0;
  const double idle_s = 86400.0 - active_s;
  const double idle_mw =
      power_model().idle_power(cfg.model.strong_refresh_s).total_mw();
  r.energy_mj_per_day = active_power_mw(sample.klass) * active_s +
                        idle_mw * idle_s;  // mW * s = mJ
  return r;
}

ShardResult run_shard(
    const FleetConfig& cfg, std::uint64_t shard,
    const std::function<void(std::uint64_t devices_done,
                             const ShardResult& partial)>& progress) {
  MECC_PROF_SCOPE("fleet", "shard");
  ShardResult r;
  r.shard = shard;
  r.digest = fnv1a(kFnvBasis, shard);
  const std::uint64_t begin = shard_begin(cfg, shard);
  const std::uint64_t end = shard_end(cfg, shard);
  for (std::uint64_t device = begin; device < end; ++device) {
    const DeviceSample s = sample_device(cfg, device);
    const DeviceResult d = simulate_device(cfg, s);
    ++r.devices;
    r.due_events += d.due_events;
    r.ce_events += d.ce_events;
    r.energy_mj_per_day_sum += d.energy_mj_per_day;
    r.due_rate.record(d.due_per_year);
    r.energy.record(d.energy_mj_per_day);
    r.digest = fnv1a(r.digest, device);
    r.digest = fnv1a(r.digest, d.due_events);
    r.digest = fnv1a(r.digest, d.ce_events);
    r.digest = fnv1a(r.digest, double_bits(d.energy_mj_per_day));
    r.digest = fnv1a(r.digest, double_bits(d.due_per_year));
    if (progress && ((device - begin) & 255u) == 255u) {
      progress(device - begin + 1, r);
    }
  }
  if (progress) progress(end - begin, r);
  return r;
}

std::string shard_result_json(const ShardResult& r) {
  JsonWriter w(-1);
  w.begin_object();
  w.key("schema");
  w.value(kShardSchema);
  w.key("shard");
  w.value(r.shard);
  w.key("devices");
  w.value(r.devices);
  w.key("due_events");
  w.value(r.due_events);
  w.key("ce_events");
  w.value(r.ce_events);
  w.key("energy_mj_per_day_sum");
  w.value(r.energy_mj_per_day_sum);
  w.key("energy_sum_bits");
  w.value(double_bits(r.energy_mj_per_day_sum));
  w.key("digest");
  w.value(r.digest);
  w.key("due_rate");
  sketch_json(w, r.due_rate);
  w.key("energy");
  sketch_json(w, r.energy);
  w.end_object();
  return w.str();
}

bool parse_shard_result(const std::string& doc, ShardResult* r) {
  if (doc.find(std::string("\"schema\":\"") + kShardSchema + "\"") ==
      std::string::npos) {
    return false;
  }
  ShardResult parsed;
  std::uint64_t energy_sum_bits = 0;
  if (!scan_u64(doc, "shard", &parsed.shard) ||
      !scan_u64(doc, "devices", &parsed.devices) ||
      !scan_u64(doc, "due_events", &parsed.due_events) ||
      !scan_u64(doc, "ce_events", &parsed.ce_events) ||
      !scan_u64(doc, "energy_sum_bits", &energy_sum_bits) ||
      !scan_u64(doc, "digest", &parsed.digest) ||
      !scan_sketch(doc, "due_rate", &parsed.due_rate) ||
      !scan_sketch(doc, "energy", &parsed.energy)) {
    return false;
  }
  parsed.energy_mj_per_day_sum = bits_double(energy_sum_bits);
  *r = std::move(parsed);
  return true;
}

bool heartbeat_advanced(bool read_ok, const std::string& value,
                        std::string* last_value) {
  // A failed or empty read is a worker mid-rewrite (truncate-write) or
  // not yet started — no evidence either way, so leave *last_value
  // alone; otherwise the stored "" would make the next real value look
  // like progress even from a genuinely hung worker.
  if (!read_ok || value.empty()) return false;
  if (value == *last_value) return false;
  *last_value = value;
  return true;
}

// ---- CampaignOutcome -------------------------------------------------

void CampaignOutcome::to_stats(StatSet& s) const {
  s.add("devices_simulated", devices_simulated);
  s.add("shards_total", shards_total);
  s.add("shards_done", shards_done);
  s.add("shards_degraded", shards_degraded);
  s.add("shards_retried", retries);
  s.add("workers_crashed", workers_crashed);
  s.add("workers_dirty", workers_dirty);
  s.add("workers_hung_killed", workers_hung_killed);
  s.add("workers_deadline_killed", workers_deadline_killed);
  s.add("due_events", due_events);
  s.add("ce_events", ce_events);
  s.set_gauge("coverage", coverage());
  s.set_gauge("energy_mj_per_day_sum", energy_mj_per_day_sum);
  s.set_gauge("due_per_year_p50", due_rate.quantile(0.50));
  s.set_gauge("due_per_year_p99", due_rate.quantile(0.99));
  s.set_gauge("due_per_year_p999", due_rate.quantile(0.999));
  s.set_gauge("energy_mj_per_day_p50", energy.quantile(0.50));
  s.set_gauge("energy_mj_per_day_p99", energy.quantile(0.99));
  s.set_gauge("energy_mj_per_day_p999", energy.quantile(0.999));
  Distribution due_dist;
  due_dist.count = due_rate.count();
  due_dist.sum = due_rate.sum();
  due_dist.min = due_rate.min();
  due_dist.max = due_rate.max();
  s.put_dist("due_per_year", due_dist);
  Distribution energy_dist;
  energy_dist.count = energy.count();
  energy_dist.sum = energy.sum();
  energy_dist.min = energy.min();
  energy_dist.max = energy.max();
  s.put_dist("energy_mj_per_day", energy_dist);
}

// ---- Orchestrator ----------------------------------------------------

struct Orchestrator::Running {
  pid_t pid = -1;
  std::uint64_t shard = 0;
  unsigned attempt = 0;
  double start_time = 0.0;
  double last_hb_time = 0.0;
  std::string last_hb_value;
};

struct Orchestrator::PendingShard {
  std::uint64_t shard = 0;
  unsigned attempt = 0;
  double not_before = 0.0;
};

Orchestrator::Orchestrator(FleetConfig cfg) : cfg_(std::move(cfg)) {}

// Out of line: the Running/PendingShard vectors need complete types.
Orchestrator::~Orchestrator() = default;

std::string Orchestrator::shard_file(std::uint64_t shard) const {
  return cfg_.state_dir + "/shard_" + fmt_u64(shard) + ".json";
}

std::string Orchestrator::heartbeat_file(std::uint64_t shard) const {
  return cfg_.state_dir + "/hb_" + fmt_u64(shard);
}

std::string Orchestrator::manifest_json() const {
  JsonWriter w(-1);
  w.begin_object();
  w.key("schema");
  w.value(kManifestSchema);
  w.key("ops");
  w.begin_object();
  w.key("retries");
  w.value(retries_);
  w.key("workers_crashed");
  w.value(crashed_);
  w.key("workers_dirty");
  w.value(dirty_);
  w.key("workers_hung_killed");
  w.value(hung_killed_);
  w.key("workers_deadline_killed");
  w.value(deadline_killed_);
  w.end_object();
  w.key("shards");
  w.begin_array();
  // done_ and degraded_ are emitted in shard order (map order; the
  // degraded list is kept sorted) so the manifest is deterministic for
  // a given campaign state.
  auto degraded = degraded_;
  std::sort(degraded.begin(), degraded.end());
  auto d_it = degraded.begin();
  for (const auto& [shard, result] : done_) {
    while (d_it != degraded.end() && *d_it < shard) {
      w.begin_object();
      w.key("shard");
      w.value(*d_it);
      w.key("state");
      w.value("degraded");
      w.key("attempts");
      w.value(attempts_.count(*d_it) ? attempts_.at(*d_it) : 0u);
      w.end_object();
      ++d_it;
    }
    w.begin_object();
    w.key("shard");
    w.value(shard);
    w.key("state");
    w.value("done");
    w.key("attempts");
    w.value(attempts_.count(shard) ? attempts_.at(shard) : 1u);
    w.key("digest");
    w.value(result.digest);
    w.end_object();
  }
  for (; d_it != degraded.end(); ++d_it) {
    w.begin_object();
    w.key("shard");
    w.value(*d_it);
    w.key("state");
    w.value("degraded");
    w.key("attempts");
    w.value(attempts_.count(*d_it) ? attempts_.at(*d_it) : 0u);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  // The fingerprint object is spliced in as the serializer produced it
  // so that resume can compare slices byte for byte.
  std::string doc = w.str();
  const std::string anchor = "\"ops\":";
  const std::size_t pos = doc.find(anchor);
  doc.insert(pos, "\"fingerprint\":" + fingerprint_json(cfg_) + ",");
  return doc;
}

bool Orchestrator::save_manifest() {
  return atomic_write_file(cfg_.state_dir + "/manifest.json",
                           manifest_json() + "\n", "fleet manifest");
}

bool Orchestrator::load_manifest(std::string* error) {
  const std::string path = cfg_.state_dir + "/manifest.json";
  std::string doc;
  if (!read_file(path, &doc)) {
    *error = "--resume: cannot read " + path;
    return false;
  }
  if (doc.find(std::string("\"schema\":\"") + kManifestSchema + "\"") ==
      std::string::npos) {
    *error = "--resume: " + path + " is not a " + kManifestSchema +
             " document";
    return false;
  }
  std::string fingerprint;
  if (!scan_slice(doc, "fingerprint", '{', &fingerprint) ||
      fingerprint != fingerprint_json(cfg_)) {
    *error =
        "--resume: campaign fingerprint mismatch (the checkpoint in " +
        cfg_.state_dir +
        " was produced by a different fleet config/seed/model); refusing "
        "to mix populations";
    return false;
  }
  std::string ops;
  if (scan_slice(doc, "ops", '{', &ops)) {
    (void)scan_u64(ops, "retries", &retries_);
    (void)scan_u64(ops, "workers_crashed", &crashed_);
    (void)scan_u64(ops, "workers_dirty", &dirty_);
    (void)scan_u64(ops, "workers_hung_killed", &hung_killed_);
    (void)scan_u64(ops, "workers_deadline_killed", &deadline_killed_);
  }
  std::string shards;
  if (!scan_slice(doc, "shards", '[', &shards)) {
    *error = "--resume: " + path + " has no shards array";
    return false;
  }
  std::size_t pos = 0;
  while ((pos = shards.find("{\"shard\":", pos)) != std::string::npos) {
    const std::string entry =
        shards.substr(pos, shards.find('}', pos) - pos + 1);
    pos += entry.size();
    std::uint64_t shard = 0;
    std::uint64_t attempts = 0;
    if (!scan_u64(entry, "shard", &shard)) continue;
    (void)scan_u64(entry, "attempts", &attempts);
    attempts_[shard] = static_cast<unsigned>(attempts);
    if (entry.find("\"state\":\"done\"") == std::string::npos) {
      // Degraded shards get a fresh retry budget on resume: the
      // campaign is being given another chance, so give its failed
      // shards one too.
      attempts_[shard] = 0;
      continue;
    }
    std::string shard_doc;
    ShardResult result;
    if (shard >= shard_count(cfg_) ||
        !read_file(shard_file(shard), &shard_doc) ||
        !parse_shard_result(shard_doc, &result) || result.shard != shard ||
        result.devices !=
            shard_end(cfg_, shard) - shard_begin(cfg_, shard)) {
      std::fprintf(stderr,
                   "[fleet] resume: shard %llu is marked done but its "
                   "result file is missing or corrupt; re-running it\n",
                   static_cast<unsigned long long>(shard));
      attempts_[shard] = 0;
      continue;
    }
    done_.emplace(shard, std::move(result));
  }
  return true;
}

bool Orchestrator::spawn_worker(const PendingShard& p, Running* out) {
  const std::string exe =
      cfg_.worker_exe.empty() ? self_exe_path() : cfg_.worker_exe;
  if (exe.empty()) return false;
  std::vector<std::string> args = {
      exe,
      "--fleet-worker",
      "--fleet-shard=" + fmt_u64(p.shard),
      "--fleet-attempt=" + fmt_u64(p.attempt),
      "--fleet-state-dir=" + cfg_.state_dir,
      "--fleet-devices=" + fmt_u64(cfg_.devices),
      "--fleet-devices-per-shard=" + fmt_u64(cfg_.devices_per_shard),
      "--fleet-seed=" + fmt_u64(cfg_.seed),
      "--fleet-lines-per-device=" + fmt_u64(cfg_.model.lines_per_device),
      "--fleet-horizon-days=" + fmt_double(cfg_.model.horizon_days),
      "--fleet-active-share=" + fmt_double(cfg_.model.mean_active_share),
      "--fleet-active-share-sigma=" +
          fmt_double(cfg_.model.active_share_sigma),
      "--fleet-burst-seconds=" + fmt_double(cfg_.model.burst_seconds),
      "--fleet-temp-min=" + fmt_double(cfg_.model.temp_min_c),
      "--fleet-temp-max=" + fmt_double(cfg_.model.temp_max_c),
      "--fleet-temp-ref=" + fmt_double(cfg_.model.temp_ref_c),
      "--fleet-refresh-s=" + fmt_double(cfg_.model.strong_refresh_s),
      "--fleet-heartbeat-interval-s=" +
          fmt_double(cfg_.heartbeat_interval_s),
  };
  if (!cfg_.selftest.empty()) {
    args.push_back("--fleet-selftest=" + cfg_.selftest);
  }
  if (cfg_.dashboard || !cfg_.telemetry_out.empty()) {
    args.push_back("--fleet-progress=1");
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::execv(exe.c_str(), argv.data());
    // exec failed: nothing sane to do in the child but report and die
    // with the shell's "cannot execute" status.
    std::fprintf(stderr, "error: cannot exec fleet worker '%s': %s\n",
                 exe.c_str(), std::strerror(errno));
    ::_exit(127);
  }
  const double now = mono_s();
  out->pid = pid;
  out->shard = p.shard;
  out->attempt = p.attempt;
  out->start_time = now;
  out->last_hb_time = now;
  out->last_hb_value.clear();
  return true;
}

void Orchestrator::record_failure(std::uint64_t shard, unsigned attempt,
                                  const char* reason) {
  if (attempt < cfg_.max_retries) {
    ++retries_;
    const double delay = cfg_.backoff_base_s * std::ldexp(1.0, attempt);
    backoff_s_.push_back(delay);
    pending_.push_back({shard, attempt + 1, mono_s() + delay});
    std::fprintf(stderr,
                 "[fleet] shard %llu attempt %u failed (%s); retrying in "
                 "%.3f s\n",
                 static_cast<unsigned long long>(shard), attempt, reason,
                 delay);
  } else {
    attempts_[shard] = attempt + 1;
    degraded_.push_back(shard);
    std::fprintf(stderr,
                 "[fleet] shard %llu failed (%s) after %u attempts; marking "
                 "degraded — campaign continues with reduced coverage\n",
                 static_cast<unsigned long long>(shard), reason, attempt + 1);
    if (!save_manifest()) {
      std::fprintf(stderr, "[fleet] warning: manifest checkpoint failed\n");
    }
  }
}

void Orchestrator::fill_outcome(CampaignOutcome* out) const {
  out->shards_total = shards_;
  out->shards_done = done_.size();
  out->shards_degraded = degraded_.size();
  out->retries = retries_;
  out->workers_crashed = crashed_;
  out->workers_dirty = dirty_;
  out->workers_hung_killed = hung_killed_;
  out->workers_deadline_killed = deadline_killed_;
  out->backoff_s = backoff_s_;
  for (const auto& [shard, r] : done_) {
    out->devices_simulated += r.devices;
    out->due_events += r.due_events;
    out->ce_events += r.ce_events;
    out->energy_mj_per_day_sum += r.energy_mj_per_day_sum;
    out->due_rate.merge(r.due_rate);
    out->energy.merge(r.energy);
  }
}

void Orchestrator::finish_interrupted(int sig, CampaignOutcome* out) {
  for (const auto& r : running_) {
    ::kill(r.pid, SIGKILL);
    int status = 0;
    ::waitpid(r.pid, &status, 0);
  }
  running_.clear();
  (void)save_manifest();
  fill_outcome(out);
  out->completed = false;
  out->exit_code = 128 + sig;
  out->error = "interrupted by signal " + std::to_string(sig) +
               "; campaign state checkpointed for --resume";
}

CampaignOutcome Orchestrator::run() {
  CampaignOutcome out;
  auto fail = [&out](int code, std::string message) {
    out.completed = false;
    out.exit_code = code;
    out.error = std::move(message);
    return out;
  };
  if (cfg_.state_dir.empty()) {
    return fail(2, "fleet: --fleet-state-dir is required");
  }
  if (cfg_.devices == 0 || cfg_.devices_per_shard == 0) {
    return fail(2, "fleet: devices and devices-per-shard must be >= 1");
  }
  if (cfg_.jobs == 0) cfg_.jobs = 1;
  std::string selftest_error;
  if (!parse_selftest(cfg_.selftest, &selftest_, &selftest_error)) {
    return fail(2, "fleet: " + selftest_error);
  }
  shards_ = shard_count(cfg_);
  if (!mkdir_p(cfg_.state_dir)) {
    return fail(1, "fleet: cannot create state dir " + cfg_.state_dir);
  }
  if (cfg_.resume) {
    std::string error;
    if (!load_manifest(&error)) return fail(2, error);
    degraded_.clear();  // resumed campaigns retry degraded shards
  }
  if (!save_manifest()) {
    return fail(1, "fleet: cannot write the campaign manifest");
  }
  for (std::uint64_t s = 0; s < shards_; ++s) {
    if (done_.count(s)) continue;
    pending_.push_back({s, attempts_.count(s) ? attempts_[s] : 0u, 0.0});
  }

  // Live telemetry hub (docs/OBSERVABILITY.md): purely observational —
  // it tails the worker progress streams and writes its own feed file /
  // stderr dashboard, so checkpoints and the aggregate stay untouched.
  TelemetryHub hub(TelemetryHub::Config{cfg_.state_dir, cfg_.telemetry_out,
                                        cfg_.dashboard,
                                        cfg_.telemetry_interval_s,
                                        cfg_.devices, shards_});
  auto publish = [&](bool final_snapshot) {
    TelemetryHub::CompletedAggregate agg;
    agg.shards_done = done_.size();
    agg.shards_degraded = degraded_.size();
    QuantileSketch due_rate;
    QuantileSketch energy;
    for (const auto& [shard, r] : done_) {
      agg.devices_done += r.devices;
      agg.due_events += r.due_events;
      agg.ce_events += r.ce_events;
      agg.energy_mj_per_day_sum += r.energy_mj_per_day_sum;
      due_rate.merge(r.due_rate);
      energy.merge(r.energy);
    }
    agg.due_rate = &due_rate;
    agg.energy = &energy;
    agg.retries = retries_;
    agg.workers_crashed = crashed_;
    hub.publish(mono_s(), agg, running_.size(), pending_.size(),
                final_snapshot);
  };

  MECC_PROF_SCOPE("fleet", "supervise");
  while (done_.size() + degraded_.size() < shards_) {
    if (cfg_.interrupt != nullptr && *cfg_.interrupt != 0) {
      finish_interrupted(static_cast<int>(*cfg_.interrupt), &out);
      return out;
    }
    const double now = mono_s();
    // Spawn into free slots: lowest-numbered ready shard first, so the
    // schedule is a work-queue (idle slot pulls the next shard) and
    // backoff delays are honored.
    while (running_.size() < cfg_.jobs) {
      std::size_t best = pending_.size();
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].not_before > now) continue;
        if (best == pending_.size() ||
            pending_[i].shard < pending_[best].shard) {
          best = i;
        }
      }
      if (best == pending_.size()) break;
      const PendingShard p = pending_[best];
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
      Running r;
      if (!spawn_worker(p, &r)) {
        record_failure(p.shard, p.attempt, "spawn failed");
        continue;
      }
      running_.push_back(std::move(r));
    }
    // Reap finished workers and watchdog the live ones.
    for (std::size_t i = 0; i < running_.size();) {
      Running& r = running_[i];
      int status = 0;
      const pid_t got = ::waitpid(r.pid, &status, WNOHANG);
      if (got == 0) {
        // Still running: a worker is "hung" when its heartbeat stops
        // advancing, "slow" when the heartbeat still moves — only the
        // former is killed before the hard deadline.
        std::string hb;
        const bool ok = read_file(heartbeat_file(r.shard), &hb);
        if (heartbeat_advanced(ok, hb, &r.last_hb_value)) {
          r.last_hb_time = now;
        }
        const bool hung = now - r.last_hb_time > cfg_.heartbeat_timeout_s;
        const bool over_deadline =
            now - r.start_time > cfg_.shard_deadline_s;
        if (hung || over_deadline) {
          ::kill(r.pid, SIGKILL);
          int st = 0;
          ::waitpid(r.pid, &st, 0);
          if (hung) {
            ++hung_killed_;
          } else {
            ++deadline_killed_;
          }
          record_failure(r.shard, r.attempt,
                         hung ? "heartbeat stopped" : "deadline exceeded");
          hub.retire_shard(r.shard);
          running_.erase(running_.begin() +
                         static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
        continue;
      }
      // Exited (or waitpid failed, which we treat as a lost worker).
      const std::uint64_t shard = r.shard;
      const unsigned attempt = r.attempt;
      // Pick up any progress records the worker appended right before
      // exiting, then drop its live partial: its contribution now comes
      // from done_/degraded accounting (the monotone clamp in the hub
      // keeps the published device count from stepping backwards).
      hub.poll_shard(shard);
      hub.retire_shard(shard);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
      if (got < 0 || (WIFSIGNALED(status) != 0)) {
        ++crashed_;
        record_failure(shard, attempt, "worker killed by a signal");
        continue;
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        ++dirty_;
        record_failure(shard, attempt, "worker exited nonzero");
        continue;
      }
      std::string doc;
      ShardResult result;
      if (!read_file(shard_file(shard), &doc) ||
          !parse_shard_result(doc, &result) || result.shard != shard ||
          result.devices != shard_end(cfg_, shard) - shard_begin(cfg_, shard)) {
        ++dirty_;
        record_failure(shard, attempt, "worker left no usable result");
        continue;
      }
      done_.emplace(shard, std::move(result));
      attempts_[shard] = attempt + 1;
      ::unlink(heartbeat_file(shard).c_str());
      if (!save_manifest()) {
        finish_interrupted(0, &out);
        out.exit_code = 1;
        out.error = "fleet: manifest checkpoint failed; aborting";
        return out;
      }
      ++completions_this_process_;
      if (selftest_.orch_exit_after != 0 &&
          completions_this_process_ == selftest_.orch_exit_after) {
        // Simulated kill -9 of the whole orchestrator process group:
        // no cleanup, no flush, no aggregate — the next run must
        // reconstruct everything from the durable checkpoint alone.
        for (const auto& live : running_) ::kill(live.pid, SIGKILL);
        std::_Exit(137);
      }
    }
    if (hub.enabled()) {
      for (const auto& live : running_) hub.poll_shard(live.shard);
      if (hub.due(mono_s())) publish(false);
    }
    sleep_s(0.002);
  }
  publish(true);

  fill_outcome(&out);
  out.completed = true;
  out.exit_code = 0;
  if (!save_manifest()) {
    out.exit_code = 1;
    out.error = "fleet: final manifest write failed";
  }
  return out;
}

std::string Orchestrator::aggregate_jsonl() const {
  std::string doc;
  {
    JsonWriter w(-1);
    w.begin_object();
    w.key("schema");
    w.value(kAggregateSchema);
    w.key("devices");
    w.value(cfg_.devices);
    w.key("devices_per_shard");
    w.value(cfg_.devices_per_shard);
    w.key("shards");
    w.value(shards_);
    w.key("seed");
    w.value(cfg_.seed);
    w.key("model");
    w.begin_object();
    w.key("lines_per_device");
    w.value(cfg_.model.lines_per_device);
    w.key("horizon_days");
    w.value(cfg_.model.horizon_days);
    w.key("mean_active_share");
    w.value(cfg_.model.mean_active_share);
    w.key("active_share_sigma");
    w.value(cfg_.model.active_share_sigma);
    w.key("burst_seconds");
    w.value(cfg_.model.burst_seconds);
    w.key("temp_min_c");
    w.value(cfg_.model.temp_min_c);
    w.key("temp_max_c");
    w.value(cfg_.model.temp_max_c);
    w.key("temp_ref_c");
    w.value(cfg_.model.temp_ref_c);
    w.key("strong_refresh_s");
    w.value(cfg_.model.strong_refresh_s);
    w.end_object();
    w.end_object();
    doc += w.str();
    doc += '\n';
  }
  CampaignOutcome merged;
  fill_outcome(&merged);
  for (std::uint64_t s = 0; s < shards_; ++s) {
    JsonWriter w(-1);
    w.begin_object();
    w.key("shard");
    w.value(s);
    const auto it = done_.find(s);
    if (it == done_.end()) {
      w.key("degraded");
      w.value(true);
    } else {
      const ShardResult& r = it->second;
      w.key("devices");
      w.value(r.devices);
      w.key("due_events");
      w.value(r.due_events);
      w.key("ce_events");
      w.value(r.ce_events);
      w.key("energy_mj_per_day_sum");
      w.value(r.energy_mj_per_day_sum);
      w.key("digest");
      w.value(r.digest);
    }
    w.end_object();
    doc += w.str();
    doc += '\n';
  }
  {
    JsonWriter w(-1);
    w.begin_object();
    w.key("fleet");
    w.begin_object();
    w.key("devices_simulated");
    w.value(merged.devices_simulated);
    w.key("coverage");
    w.value(merged.coverage());
    w.key("shards_degraded");
    w.value(merged.shards_degraded);
    w.key("due_events");
    w.value(merged.due_events);
    w.key("ce_events");
    w.value(merged.ce_events);
    w.key("energy_mj_per_day_sum");
    w.value(merged.energy_mj_per_day_sum);
    w.key("due_per_year_mean");
    w.value(merged.due_rate.mean());
    w.key("due_per_year_p50");
    w.value(merged.due_rate.quantile(0.50));
    w.key("due_per_year_p99");
    w.value(merged.due_rate.quantile(0.99));
    w.key("due_per_year_p999");
    w.value(merged.due_rate.quantile(0.999));
    w.key("due_per_year_max");
    w.value(merged.due_rate.max());
    w.key("energy_mj_per_day_mean");
    w.value(merged.energy.mean());
    w.key("energy_mj_per_day_p50");
    w.value(merged.energy.quantile(0.50));
    w.key("energy_mj_per_day_p99");
    w.value(merged.energy.quantile(0.99));
    w.key("energy_mj_per_day_p999");
    w.value(merged.energy.quantile(0.999));
    w.key("energy_mj_per_day_max");
    w.value(merged.energy.max());
    w.end_object();
    w.end_object();
    doc += w.str();
    doc += '\n';
  }
  return doc;
}

bool Orchestrator::write_aggregate(const std::string& path) const {
  return atomic_write_file(path, aggregate_jsonl(), "fleet aggregate");
}

// ---- worker process entry -------------------------------------------

bool is_fleet_worker_invocation(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet-worker") == 0) return true;
  }
  return false;
}

int worker_main(int argc, char** argv) {
  FleetConfig cfg;
  std::uint64_t shard = ~0ull;
  std::uint64_t attempt = 0;
  bool emit_progress = false;
  auto usage_error = [](const char* arg) {
    std::fprintf(stderr, "error: bad fleet worker argument '%s'\n", arg);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--fleet-worker") == 0) {
      continue;
    } else if (eat_prefix(arg, "--fleet-shard=", &v)) {
      if (!parse_u64_arg(v, &shard)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-attempt=", &v)) {
      if (!parse_u64_arg(v, &attempt)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-state-dir=", &v)) {
      cfg.state_dir = v;
    } else if (eat_prefix(arg, "--fleet-devices=", &v)) {
      if (!parse_u64_arg(v, &cfg.devices)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-devices-per-shard=", &v)) {
      if (!parse_u64_arg(v, &cfg.devices_per_shard)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-seed=", &v)) {
      if (!parse_u64_arg(v, &cfg.seed)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-lines-per-device=", &v)) {
      if (!parse_u64_arg(v, &cfg.model.lines_per_device)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-horizon-days=", &v)) {
      if (!parse_double_arg(v, &cfg.model.horizon_days)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-active-share=", &v)) {
      if (!parse_double_arg(v, &cfg.model.mean_active_share)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-active-share-sigma=", &v)) {
      if (!parse_double_arg(v, &cfg.model.active_share_sigma)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-burst-seconds=", &v)) {
      if (!parse_double_arg(v, &cfg.model.burst_seconds)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-temp-min=", &v)) {
      if (!parse_double_arg(v, &cfg.model.temp_min_c)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-temp-max=", &v)) {
      if (!parse_double_arg(v, &cfg.model.temp_max_c)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-temp-ref=", &v)) {
      if (!parse_double_arg(v, &cfg.model.temp_ref_c)) return usage_error(arg);
    } else if (eat_prefix(arg, "--fleet-refresh-s=", &v)) {
      if (!parse_double_arg(v, &cfg.model.strong_refresh_s)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-heartbeat-interval-s=", &v)) {
      if (!parse_double_arg(v, &cfg.heartbeat_interval_s)) {
        return usage_error(arg);
      }
    } else if (eat_prefix(arg, "--fleet-progress=", &v)) {
      std::uint64_t flag = 0;
      if (!parse_u64_arg(v, &flag)) return usage_error(arg);
      emit_progress = flag != 0;
    } else if (eat_prefix(arg, "--fleet-selftest=", &v)) {
      cfg.selftest = v;
    } else if (eat_prefix(arg, "--fleet-", &v)) {
      return usage_error(arg);  // unknown --fleet-* flag: refuse loudly
    }
    // Non --fleet-* arguments are ignored: the hosting binary may have
    // its own flags on the command line.
  }
  if (shard == ~0ull || cfg.state_dir.empty() ||
      shard >= shard_count(cfg)) {
    std::fprintf(stderr,
                 "error: fleet worker needs --fleet-shard and "
                 "--fleet-state-dir within a valid campaign\n");
    return 2;
  }
  SelftestSpec selftest;
  std::string selftest_error;
  if (!parse_selftest(cfg.selftest, &selftest, &selftest_error)) {
    std::fprintf(stderr, "error: %s\n", selftest_error.c_str());
    return 2;
  }

  const std::string hb_path = cfg.state_dir + "/hb_" + fmt_u64(shard);
  std::uint64_t hb_counter = 0;
  auto heartbeat = [&] {
    ++hb_counter;
    (void)write_file(hb_path, fmt_u64(hb_counter));
  };
  heartbeat();

  // Failure injection (docs/FLEET.md). Injected behaviors never touch
  // the shard computation itself, so any attempt that completes writes
  // the same bytes.
  if (const auto it = selftest.crash.find(shard);
      it != selftest.crash.end() && attempt < it->second) {
    (void)::raise(SIGKILL);  // simulated kill -9 of this worker
  }
  if (const auto it = selftest.dirty.find(shard);
      it != selftest.dirty.end() && attempt < it->second) {
    return 3;
  }
  if (const auto it = selftest.hang.find(shard);
      it != selftest.hang.end() && attempt < it->second) {
    for (;;) sleep_s(3600.0);  // heartbeat never advances again
  }
  if (const auto it = selftest.slow_ms.find(shard);
      it != selftest.slow_ms.end()) {
    // Slow but alive: keep heartbeating through the sleep; the
    // watchdog must NOT kill this worker before the hard deadline.
    double remaining = static_cast<double>(it->second) * 1e-3;
    while (remaining > 0.0) {
      const double slice = std::min(remaining, cfg.heartbeat_interval_s);
      sleep_s(slice);
      remaining -= slice;
      heartbeat();
    }
  }

  // Telemetry progress stream (docs/OBSERVABILITY.md): one record at
  // heartbeat cadence plus a final `done` record, each a single
  // append_file() so the orchestrator's tailer never sees a torn line.
  const std::uint64_t devices_in_shard =
      shard_end(cfg, shard) - shard_begin(cfg, shard);
  auto emit = [&](const ShardResult& partial, std::uint64_t devices_done,
                  bool done) {
    if (!emit_progress) return;
    ShardProgress p;
    p.shard = shard;
    p.attempt = attempt;
    p.devices_total = devices_in_shard;
    p.devices_done = devices_done;
    p.done = done;
    p.due_events = partial.due_events;
    p.ce_events = partial.ce_events;
    p.energy_mj_per_day_sum = partial.energy_mj_per_day_sum;
    p.due_rate = partial.due_rate;
    p.energy = partial.energy;
    (void)append_file(progress_file(cfg.state_dir, shard),
                      progress_record_json(p) + "\n");
  };

  double last_hb = mono_s();
  const ShardResult result =
      run_shard(cfg, shard, [&](std::uint64_t devices_done,
                                const ShardResult& partial) {
        const double now = mono_s();
        if (now - last_hb >= cfg.heartbeat_interval_s) {
          last_hb = now;
          heartbeat();
          emit(partial, devices_done, false);
        }
      });
  const std::string path =
      cfg.state_dir + "/shard_" + fmt_u64(shard) + ".json";
  if (!atomic_write_file(path, shard_result_json(result) + "\n",
                         "fleet shard result")) {
    return 1;
  }
  emit(result, devices_in_shard, true);
  return 0;
}

}  // namespace mecc::sim::fleet
