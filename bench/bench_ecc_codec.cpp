// Google-benchmark microbenchmarks for the real ECC codecs (supports the
// S III-E latency/area discussion): SECDED and BCH-t encode/decode
// throughput, with and without injected errors.
//
// Beyond the google-benchmark suite, --throughput runs a lines/sec
// comparison of the word-parallel codecs against the retained scalar
// references (src/ecc/scalar_reference.h) and, with --perf-out=, writes
// the numbers as mecc-codec-throughput-v1 JSON for scripts/perf_smoke.sh
// to fold into BENCH_perf.json (docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "ecc/bch.h"
#include "ecc/scalar_reference.h"
#include "ecc/secded.h"
#include "mecc/line_codec.h"
#include "reliability/fault_injection.h"

namespace {

using namespace mecc;

BitVec random_bits(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.chance(0.5));
  return v;
}

void BM_SecdedEncode64(benchmark::State& state) {
  const ecc::Secded code(64);
  const BitVec d = random_bits(64, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(d));
  }
}
BENCHMARK(BM_SecdedEncode64);

void BM_SecdedDecodeClean64(benchmark::State& state) {
  const ecc::Secded code(64);
  const BitVec cw = code.encode(random_bits(64, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_SecdedDecodeClean64);

void BM_SecdedEncode512(benchmark::State& state) {
  const ecc::Secded code(512);
  const BitVec d = random_bits(512, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(d));
  }
}
BENCHMARK(BM_SecdedEncode512);

void BM_SecdedDecodeOneError512(benchmark::State& state) {
  const ecc::Secded code(512);
  BitVec cw = code.encode(random_bits(512, 4));
  cw.flip(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_SecdedDecodeOneError512);

void BM_BchEncode(benchmark::State& state) {
  const ecc::Bch code(10, static_cast<std::size_t>(state.range(0)), 512);
  const BitVec d = random_bits(512, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.encode(d));
  }
}
BENCHMARK(BM_BchEncode)->Arg(1)->Arg(3)->Arg(6);

void BM_BchDecodeClean(benchmark::State& state) {
  const ecc::Bch code(10, static_cast<std::size_t>(state.range(0)), 512);
  const BitVec cw = code.encode(random_bits(512, 6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_BchDecodeClean)->Arg(1)->Arg(6);

void BM_BchDecodeWithErrors(benchmark::State& state) {
  // Full Berlekamp-Massey + Chien search path at t errors.
  const std::size_t nerr = static_cast<std::size_t>(state.range(0));
  const ecc::Bch code(10, 6, 512);
  BitVec cw = code.encode(random_bits(512, 7));
  reliability::FaultInjector fi(8);
  fi.inject_exact(cw, nerr);
  for (auto _ : state) {
    benchmark::DoNotOptimize(code.decode(cw));
  }
}
BENCHMARK(BM_BchDecodeWithErrors)->Arg(1)->Arg(3)->Arg(6);

void BM_LineCodecStoreStrong(benchmark::State& state) {
  const morph::LineCodec codec;
  const BitVec d = random_bits(512, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.store(d, morph::LineMode::kStrong));
  }
}
BENCHMARK(BM_LineCodecStoreStrong);

void BM_LineCodecLoadTrialDecode(benchmark::State& state) {
  // Worst case: mode replicas split 2-2, forcing trial decoding.
  const morph::LineCodec codec;
  BitVec stored = codec.store(random_bits(512, 10), morph::LineMode::kStrong);
  stored.flip(512);
  stored.flip(513);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.load(stored));
  }
}
BENCHMARK(BM_LineCodecLoadTrialDecode);

void BM_LineCodecLoadBatch(benchmark::State& state) {
  // The shadow-memory scrub / ECC-Upgrade walk shape: decode a block of
  // clean strong-mode lines through the batch entry point.
  const morph::LineCodec codec;
  std::vector<BitVec> lines;
  for (std::uint64_t s = 0; s < 64; ++s) {
    lines.push_back(codec.store(random_bits(512, 11 + s),
                                morph::LineMode::kStrong));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.load_batch(lines));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_LineCodecLoadBatch);

// ---------------------------------------------------------------------------
// --throughput: lines/sec of the word-parallel codecs vs the retained
// scalar references, on identical inputs. The ratio IS the speedup over
// the pre-vectorization implementation (the references are verbatim
// copies of it).

constexpr std::size_t kPoolLines = 256;

struct ThroughputRow {
  std::string name;
  double vec_lps = 0.0;     // vectorized lines/sec
  double scalar_lps = 0.0;  // scalar-reference lines/sec (0 = n/a)
};

/// Runs `body` (which processes kPoolLines lines) repeatedly until at
/// least ~60 ms of wall time accumulates, then reports lines/sec.
template <typename F>
double measure_lines_per_sec(F&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm-up: touch tables, fault in scratch
  std::uint64_t reps = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::uint64_t r = 0; r < reps; ++r) body();
    const double secs =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (secs >= 0.06) {
      return static_cast<double>(reps * kPoolLines) / secs;
    }
    reps *= 4;
  }
}

template <typename Code>
double encode_lps(const Code& code, const std::vector<BitVec>& datas) {
  return measure_lines_per_sec([&] {
    for (const BitVec& d : datas) benchmark::DoNotOptimize(code.encode(d));
  });
}

template <typename Code>
double decode_lps(const Code& code, const std::vector<BitVec>& cws) {
  return measure_lines_per_sec([&] {
    for (const BitVec& cw : cws) benchmark::DoNotOptimize(code.decode(cw));
  });
}

std::vector<ThroughputRow> run_throughput(std::uint64_t seed) {
  std::vector<ThroughputRow> rows;

  const auto pool = [&](std::size_t bits, std::uint64_t salt) {
    std::vector<BitVec> v;
    v.reserve(kPoolLines);
    for (std::uint64_t i = 0; i < kPoolLines; ++i) {
      v.push_back(random_bits(bits, seed * 7919 + salt * 131 + i));
    }
    return v;
  };

  {
    const ecc::Secded vec(64);
    const ecc::reference::ScalarSecded ref(64);
    const std::vector<BitVec> datas = pool(64, 1);
    std::vector<BitVec> cws;
    for (const BitVec& d : datas) cws.push_back(vec.encode(d));
    rows.push_back({"secded64_encode", encode_lps(vec, datas),
                    encode_lps(ref, datas)});
    rows.push_back({"secded64_decode_clean", decode_lps(vec, cws),
                    decode_lps(ref, cws)});
  }
  {
    const ecc::Secded vec(512);
    const ecc::reference::ScalarSecded ref(512);
    const std::vector<BitVec> datas = pool(512, 2);
    std::vector<BitVec> cws;
    for (const BitVec& d : datas) cws.push_back(vec.encode(d));
    rows.push_back({"secded512_encode", encode_lps(vec, datas),
                    encode_lps(ref, datas)});
    rows.push_back({"secded512_decode_clean", decode_lps(vec, cws),
                    decode_lps(ref, cws)});
  }
  {
    const ecc::Bch vec(10, 6, 512);
    const ecc::reference::ScalarBch ref(10, 6, 512);
    const std::vector<BitVec> datas = pool(512, 3);
    std::vector<BitVec> cws;
    for (const BitVec& d : datas) cws.push_back(vec.encode(d));
    rows.push_back({"bch_t6_encode", encode_lps(vec, datas),
                    encode_lps(ref, datas)});
    rows.push_back({"bch_t6_decode_clean", decode_lps(vec, cws),
                    decode_lps(ref, cws)});
    // Exactly w errors per line, one row per root-finding branch: the
    // closed forms (w = 1, 2), the affine quartic (w = 3, 4), the split
    // test plus a partial Chien search (w = 5, 6), and past the
    // capability the split test's reject (w = 8).
    for (const std::size_t w : {1, 2, 3, 4, 5, 6, 8}) {
      reliability::FaultInjector fi(seed * 7919 + 17 * w);
      std::vector<BitVec> bad = cws;
      for (BitVec& cw : bad) fi.inject_exact(cw, w);
      rows.push_back({"bch_t6_decode_w" + std::to_string(w),
                      decode_lps(vec, bad), decode_lps(ref, bad)});
    }
  }
  {
    // LineCodec has no scalar twin; its lines/sec still lands in the
    // report because the MECC walks consume the codecs through it.
    const morph::LineCodec codec;
    std::vector<BitVec> stored;
    for (std::uint64_t i = 0; i < kPoolLines; ++i) {
      stored.push_back(codec.store(random_bits(512, seed * 31 + i),
                                   i % 2 == 0 ? morph::LineMode::kStrong
                                              : morph::LineMode::kWeak));
    }
    rows.push_back({"line_codec_load_batch", measure_lines_per_sec([&] {
                      benchmark::DoNotOptimize(codec.load_batch(stored));
                    }),
                    0.0});
  }
  return rows;
}

bool write_throughput_json(const std::vector<ThroughputRow>& rows,
                           const std::string& path, std::uint64_t seed) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "error: cannot open --perf-out file '%s'\n",
                 path.c_str());
    return false;
  }
  char buf[64];
  const auto num = [&buf](double v) {
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return std::string(buf);
  };
  f << "{\n  \"schema\": \"mecc-codec-throughput-v1\",\n";
  f << "  \"seed\": " << seed << ",\n  \"entries\": [";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) f << ",";
    first = false;
    f << "\n    {\"name\": \"" << r.name << "\", \"lines_per_sec\": "
      << num(r.vec_lps);
    if (r.scalar_lps > 0.0) {
      char sbuf[32];
      std::snprintf(sbuf, sizeof sbuf, "%.3f", r.vec_lps / r.scalar_lps);
      f << ", \"scalar_lines_per_sec\": " << num(r.scalar_lps)
        << ", \"speedup\": " << sbuf;
    }
    f << "}";
  }
  f << "\n  ]\n}\n";
  return f.good();
}

void print_throughput(const std::vector<ThroughputRow>& rows) {
  std::string t;
  t += "codec throughput (lines/sec), word-parallel vs scalar reference\n";
  char line[160];
  std::snprintf(line, sizeof line, "%-24s %14s %14s %8s\n", "path",
                "vectorized", "scalar", "speedup");
  t += line;
  for (const auto& r : rows) {
    if (r.scalar_lps > 0.0) {
      std::snprintf(line, sizeof line, "%-24s %14.0f %14.0f %7.2fx\n",
                    r.name.c_str(), r.vec_lps, r.scalar_lps,
                    r.vec_lps / r.scalar_lps);
    } else {
      std::snprintf(line, sizeof line, "%-24s %14.0f %14s %8s\n",
                    r.name.c_str(), r.vec_lps, "-", "-");
    }
    t += line;
  }
  console_write(t);
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the shared SimOptions flags
// must be stripped before benchmark::Initialize, which rejects arguments
// it does not recognize. The strip set comes from parse_options itself
// (the `consumed` report) so new shared flags never leak here again —
// the old hard-coded list missed --fast-forward=/--trace=/--metrics-*
// and the bench exited 1 when any of them was passed.
int main(int argc, char** argv) {
  std::vector<bool> consumed;
  const mecc::sim::SimOptions opts =
      mecc::sim::parse_options(argc, argv, 0, &consumed);

  bool throughput = false;
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    if (consumed[static_cast<std::size_t>(i)]) continue;
    if (std::strcmp(argv[i], "--throughput") == 0) {
      throughput = true;
      continue;
    }
    bench_argv.push_back(argv[i]);
  }

  if (throughput) {
    // The throughput report owns --perf-out (mecc-codec-throughput-v1);
    // keep BenchOutput from writing its suite-shaped perf report there.
    mecc::sim::SimOptions bench_opts = opts;
    bench_opts.perf_out.clear();
    mecc::bench::BenchOutput out("ecc_codec_throughput", bench_opts);
    const std::vector<ThroughputRow> rows = run_throughput(opts.seed);
    print_throughput(rows);
    if (!opts.perf_out.empty() &&
        !write_throughput_json(rows, opts.perf_out, opts.seed)) {
      return 1;
    }
    out.add_scalar("completed", 1.0);
    return out.write();
  }

  mecc::bench::BenchOutput out("ecc_codec", opts);
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The microbenchmark timings are host-dependent by nature, so the JSON
  // report carries only a determinism-safe marker that the run finished
  // (google-benchmark's own --benchmark_out= serves the timing export).
  out.add_scalar("completed", 1.0);
  return out.write();
}
