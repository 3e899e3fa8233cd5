// Sampled-set functional shadow memory for fault-injection campaigns.
//
// The timing simulator (sim::System) never moves real data; this shadow
// attaches a small bit-accurate MemoryImage to a sampled subset of the
// simulated address space so that every shadowed read/write flows
// through the real LineCodec. Each shadowed line stores a deterministic
// per-address data pattern, which lets the shadow classify every decode
// as clean / corrected (CE) / detected-uncorrectable (DUE) / *silent*
// corruption (decode claimed success but returned wrong data). Each slot
// caches its pattern when it is allocated, so shadowed reads, writes,
// retries and forced upgrades compare and re-store it without
// regenerating it.
//
// Retention errors injected between accesses (idle periods at a slowed
// refresh) are persistent stored-bit flips; an optional transient read
// noise models read-path glitches that a controller retry genuinely
// cures — the first rung of the DUE degradation ladder
// (memctrl/due_policy.h). See docs/RELIABILITY.md.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/trace.h"
#include "common/types.h"
#include "mecc/memory_image.h"
#include "reliability/fault_injection.h"

namespace mecc::morph {

struct ShadowConfig {
  /// Maximum number of distinct line addresses the shadow tracks; the
  /// first `capacity_lines` sampled addresses written get a slot,
  /// later ones pass through unshadowed.
  std::size_t capacity_lines = 4096;
  /// Sample every `sample_stride`-th line address (1 = every line the
  /// capacity can hold). Must be >= 1.
  Address sample_stride = 1;
  /// Per-read transient bit error rate applied to a scratch copy of the
  /// stored word (never persisted): models read-path glitches, so a
  /// controller retry can succeed where the first decode failed.
  double transient_read_ber = 0.0;
  /// Seed for the shadow's fault injector and the per-address data
  /// patterns.
  std::uint64_t seed = 1;
};

/// Classification of one shadowed read.
struct ShadowReadOutcome {
  bool shadowed = false;        // address had a shadow slot
  bool due = false;             // detected-uncorrectable decode
  bool silent_corruption = false;  // decode "ok" but data mismatched
  std::size_t corrected_bits = 0;  // CE work the decoder performed
  bool mode_repaired = false;      // trial decode fixed the mode replicas
};

class ShadowMemory {
 public:
  explicit ShadowMemory(const ShadowConfig& config);

  /// True when `line_addr` is in the sampled set (it may still lack a
  /// slot if capacity was exhausted before its first write).
  [[nodiscard]] bool sampled(Address line_addr) const {
    return line_addr % config_.sample_stride == 0;
  }

  /// A write to `line_addr` with the given protection mode. Allocates a
  /// slot on first touch (while capacity lasts), caching the
  /// deterministic per-address pattern, and stores that pattern through
  /// the real codec.
  void on_write(Address line_addr, LineMode mode);

  /// A read of `line_addr`: decodes the stored word (plus transient
  /// read noise) with the real codec and classifies the outcome.
  /// `downgrade` mirrors the MECC active-mode read path.
  [[nodiscard]] ShadowReadOutcome on_read(Address line_addr, bool downgrade);

  /// Re-decodes a line after a DUE with fresh transient noise (the
  /// controller retry). Identical classification to on_read.
  [[nodiscard]] ShadowReadOutcome retry_read(Address line_addr) {
    return on_read(line_addr, /*downgrade=*/false);
  }

  /// Injects one slowed-refresh period's worth of persistent retention
  /// errors into every stored codeword. Returns bits flipped.
  std::uint64_t inject_retention_errors(double ber);

  /// ECC-Upgrade mirror (MECC idle entry): every weak line re-encoded
  /// strong, correctable errors scrubbed along the way.
  void upgrade_all() { image_.upgrade_all(); }

  /// DUE ladder rung 2: scrub pass over the whole shadowed set.
  ScrubReport scrub();

  /// DUE ladder rung 3: force ECC-Upgrade of the shadowed region,
  /// reconstructing uncorrectable lines from their known-good pattern
  /// (modeling a clean-copy refetch / page repair). Returns the number
  /// of lines that needed reconstruction.
  std::uint64_t force_upgrade();

  [[nodiscard]] std::size_t tracked_lines() const { return slots_.size(); }
  [[nodiscard]] const MemoryImage& image() const { return image_; }

  /// Counters under the names docs/RELIABILITY.md documents
  /// (shadow_reads, shadow_writes, ce, ce_bits, due, silent, ...).
  void export_stats(StatSet& out) const { out.merge("", stats_); }

  /// The deterministic data pattern `line_addr` is expected to hold (a
  /// pure function of the seed and the address; slots cache it).
  [[nodiscard]] BitVec expected_data(Address line_addr) const;

  /// Attaches the observability tracer (docs/OBSERVABILITY.md):
  /// retention-error injections and CE/DUE/silent read classifications
  /// on the inject category. Pass nullptr to detach.
  void set_tracer(tracing::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// Slot for `line_addr`, or npos when unsampled / out of capacity.
  [[nodiscard]] std::size_t slot_of(Address line_addr) const;

  ShadowConfig config_;
  LineCodec codec_;  // scratch decodes for transient-noise reads
  MemoryImage image_;
  std::unordered_map<Address, std::size_t> slots_;
  // slot -> expected_data(its address), computed when the slot is
  // allocated (64 B of data per slot).
  std::vector<BitVec> slot_pattern_;
  reliability::FaultInjector injector_;
  StatSet stats_;
  tracing::Tracer* tracer_ = nullptr;
};

}  // namespace mecc::morph
