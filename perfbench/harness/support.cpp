#include "support.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <stdexcept>

namespace perfbench {

double calibrate_clock_pair_ns() {
  constexpr int kRounds = 31;
  constexpr int kPairs = 2000;
  std::vector<double> rounds;
  rounds.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    std::int64_t sum = 0;
    for (int i = 0; i < kPairs; ++i) {
      const std::int64_t a = now_ns();
      const std::int64_t b = now_ns();
      sum += b - a;
    }
    rounds.push_back(static_cast<double>(sum) / kPairs);
  }
  std::nth_element(rounds.begin(), rounds.begin() + kRounds / 2, rounds.end());
  return rounds[kRounds / 2];
}

int Spans::open(const char* name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_ns();
  // Scopes close in LIFO order; anything above `id` was left open by an
  // exception unwinding through it and closes with it.
  while (!open_.empty() && open_.back() >= id) open_.pop_back();
}

void Spans::add(const char* name, std::int64_t start, std::int64_t end) {
  if (!enabled_) return;
  spans_.push_back({name, start, end, open_.empty() ? -1 : open_.back()});
}

void Spans::write_json(mecc::JsonWriter& w) const {
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_array();
    w.value(s.name);
    w.value(static_cast<std::int64_t>(s.start));
    w.value(static_cast<std::int64_t>(s.end));
    w.value(static_cast<std::int64_t>(s.parent));
    w.end_array();
  }
  w.end_array();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {
volatile std::uint64_t g_sink = 0;
}  // namespace

void keep(std::uint64_t v) { g_sink = g_sink + v; }

namespace {

constexpr std::size_t kChaseEntries = 256 * 1024;  // 1 MiB of uint32
constexpr std::size_t kFaultBytes = 1 << 20;
constexpr std::size_t kPage = 4096;

double chase_ms(const std::vector<std::uint32_t>& next) {
  const std::int64_t a = now_ns();
  std::uint32_t k = 0;
  for (int i = 0; i < 2'000'000; ++i) k = next[k];
  keep(k);
  return static_cast<double>(now_ns() - a) * 1e-6;
}

double fault_ms() {
  void* p = mmap(nullptr, kFaultBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("host reference: mmap failed");
  auto* bytes = static_cast<volatile char*>(p);
  madvise(p, kFaultBytes, MADV_NOHUGEPAGE);  // one fault per 4 KiB page
  const std::int64_t a = now_ns();
  for (int round = 0; round < 16; ++round) {
    for (std::size_t i = 0; i < kFaultBytes; i += kPage) bytes[i] = 1;
    madvise(p, kFaultBytes, MADV_DONTNEED);  // the next touch faults again
  }
  const double ms = static_cast<double>(now_ns() - a) * 1e-6;
  munmap(p, kFaultBytes);
  return ms;
}

}  // namespace

HostReference::HostReference() : chase_(kChaseEntries) {
  // One cycle through every entry (Sattolo's shuffle), so the chase
  // visits the whole table in an order no prefetcher can follow.
  std::iota(chase_.begin(), chase_.end(), 0u);
  std::mt19937_64 rng(1);
  for (std::size_t i = kChaseEntries - 1; i > 0; --i) {
    std::swap(chase_[i], chase_[rng() % i]);
  }
  (void)time_ms();
}

double HostReference::time_ms() {
  // Median of three repetitions of each part, so one preemption or
  // migration inside a round does not move it.
  double chase[3];
  double fault[3];
  for (int rep = 0; rep < 3; ++rep) {
    chase[rep] = chase_ms(chase_);
    fault[rep] = fault_ms();
  }
  std::sort(chase, chase + 3);
  std::sort(fault, fault + 3);
  return std::sqrt(chase[1] * fault[1]);
}

}  // namespace perfbench
