// Measurement plumbing shared by the harness: a calibrated clock, an
// in-memory span recorder, and FNV-1a digests of simulated outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median host cost of an empty timed scope (two back-to-back now_ns()
/// reads). Every duration the harness reports has it subtracted once.
[[nodiscard]] double calibrate_clock_pair_ns();

/// Spans (name, start, end, parent) kept in memory and written out once
/// at the end of a traced run. A disabled recorder costs nothing: open()
/// returns -1 without reading the clock.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Opens a child of the innermost open span. `name` must be a string
  /// literal (only the pointer is stored).
  [[nodiscard]] int open(const char* name);
  void close(int id);
  /// Records a span timed elsewhere (a run_jobs job, reconstructed from
  /// its completion time and duration) under the innermost open span.
  void add(const char* name, std::int64_t start, std::int64_t end);

  void write_json(mecc::JsonWriter& w) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start;
    std::int64_t end;
    int parent;
  };
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class Scope {
 public:
  Scope(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = kFnvOffset);
[[nodiscard]] std::string hex64(std::uint64_t v);

/// Keeps a computed value alive so the optimizer cannot drop the work
/// that produced it.
void keep(std::uint64_t v);

/// A fixed piece of work that shares no code with the simulator, timed
/// between passes to measure how fast the shared host runs right now:
/// a pointer chase through a 1 MiB (L2-sized) table, and first-touch
/// page faults on 1 MiB of anonymous memory. Load from other tenants of
/// the host slows both by tens of percent over seconds to minutes, as it
/// slows the simulator (whose System set-up is mostly page faults);
/// run.py divides each pass's times by the reference time around it.
/// (A pure ALU loop was tried and left out: it hardly follows the load.)
class HostReference {
 public:
  HostReference();  // builds the table and runs one untimed round
  /// One timed round: the geometric mean of the two parts, in ms.
  [[nodiscard]] double time_ms();

 private:
  std::vector<std::uint32_t> chase_;
};

}  // namespace perfbench
