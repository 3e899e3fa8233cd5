#include "mecc/shadow_memory.h"

#include <limits>

namespace mecc::morph {

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// splitmix64 finalizer: decorrelates per-address pattern seeds.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

ShadowMemory::ShadowMemory(const ShadowConfig& config)
    : config_(config),
      image_(config.capacity_lines),
      injector_(config.seed) {
  if (config_.sample_stride == 0) config_.sample_stride = 1;
  slots_.reserve(config_.capacity_lines);
  slot_pattern_.reserve(config_.capacity_lines);
}

BitVec ShadowMemory::expected_data(Address line_addr) const {
  Rng rng(mix(config_.seed ^ mix(line_addr)));
  BitVec d(kDataBits);
  for (std::size_t i = 0; i < kDataBits; ++i) d.set(i, rng.chance(0.5));
  return d;
}

std::size_t ShadowMemory::slot_of(Address line_addr) const {
  if (!sampled(line_addr)) return kNoSlot;
  const auto it = slots_.find(line_addr);
  return it == slots_.end() ? kNoSlot : it->second;
}

void ShadowMemory::on_write(Address line_addr, LineMode mode) {
  if (!sampled(line_addr)) return;
  auto it = slots_.find(line_addr);
  if (it == slots_.end()) {
    if (slots_.size() >= config_.capacity_lines) return;
    it = slots_.emplace(line_addr, slots_.size()).first;
    slot_pattern_.push_back(expected_data(line_addr));
  }
  image_.write_line(it->second, slot_pattern_[it->second], mode);
  stats_.add("shadow_writes");
}

ShadowReadOutcome ShadowMemory::on_read(Address line_addr, bool downgrade) {
  ShadowReadOutcome o;
  const std::size_t slot = slot_of(line_addr);
  if (slot == kNoSlot) return o;
  o.shadowed = true;
  stats_.add("shadow_reads");

  if (config_.transient_read_ber > 0.0) {
    // Decode a scratch copy carrying this read's transient noise.
    // Read-path glitches can corrupt the data this read returns (or trip
    // a DUE a retry then cures with fresh independent noise) but they
    // are never written into the array: persisting a decode derived from
    // read-path noise would let a noise-hit mode replica plus a lucky
    // SEC-DED trial decode silently rewrite a strong line as weak.
    BitVec noisy = image_.stored_bits(slot);
    const std::size_t flips =
        injector_.inject(noisy, config_.transient_read_ber);
    stats_.add("transient_bits", flips);
    const LineDecodeResult r = codec_.load(noisy);
    if (!r.ok) {
      o.due = true;
      stats_.add("due");
      if (tracer_ != nullptr) {
        tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                         "shadow_due", tracer_->now(), "line", line_addr);
      }
      return o;
    }
    o.corrected_bits = r.corrected_bits;
    o.mode_repaired = r.mode_bits_disagreed;
    if (r.corrected_bits > 0 || r.mode_bits_disagreed) {
      stats_.add("ce");
      stats_.add("ce_bits", r.corrected_bits);
      if (r.mode_bits_disagreed) stats_.add("mode_repairs");
      if (tracer_ != nullptr) {
        tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                         "shadow_ce", tracer_->now(), "line", line_addr,
                         "bits", r.corrected_bits);
      }
    }
    if (r.data != slot_pattern_[slot]) {
      o.silent_corruption = true;
      stats_.add("silent");
      if (tracer_ != nullptr) {
        tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                         "silent_corruption", tracer_->now(), "line",
                         line_addr);
      }
    }
    // Demand scrub of the *array* content (noise-free): persistent
    // correctable errors are cleaned up exactly as on a noiseless read.
    // (If noise cancellation made the scratch decode succeed where the
    // array alone cannot, the array keeps its errors for a later rung.)
    (void)image_.read_line(slot, downgrade);
    return o;
  }

  const ImageStats before = image_.stats();
  const std::optional<BitVec> data = image_.read_line(slot, downgrade);
  const ImageStats& after = image_.stats();
  o.corrected_bits =
      static_cast<std::size_t>(after.corrected_bits - before.corrected_bits);
  o.mode_repaired = after.mode_bit_repairs != before.mode_bit_repairs;

  if (!data.has_value()) {
    o.due = true;
    stats_.add("due");
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                       "shadow_due", tracer_->now(), "line", line_addr);
    }
    return o;
  }
  if (o.corrected_bits > 0 || o.mode_repaired) {
    stats_.add("ce");
    stats_.add("ce_bits", o.corrected_bits);
    if (o.mode_repaired) stats_.add("mode_repairs");
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                       "shadow_ce", tracer_->now(), "line", line_addr,
                       "bits", o.corrected_bits);
    }
  }
  if (*data != slot_pattern_[slot]) {
    o.silent_corruption = true;
    stats_.add("silent");
    if (tracer_ != nullptr) {
      tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                       "silent_corruption", tracer_->now(), "line",
                       line_addr);
    }
  }
  return o;
}

std::uint64_t ShadowMemory::inject_retention_errors(double ber) {
  const std::uint64_t flipped = image_.inject_retention_errors(ber, injector_);
  stats_.add("injections");
  stats_.add("injected_bits", flipped);
  if (tracer_ != nullptr) {
    tracer_->instant(tracing::Category::kInject, tracing::kTrackErrors,
                     "inject_retention", tracer_->now(), "bits", flipped);
  }
  return flipped;
}

ScrubReport ShadowMemory::scrub() {
  const ScrubReport rep = image_.scrub_all();
  stats_.add("scrub_repaired_lines", rep.repaired_lines);
  stats_.add("scrub_uncorrectable", rep.uncorrectable);
  return rep;
}

std::uint64_t ShadowMemory::force_upgrade() {
  std::uint64_t restored = 0;
  for (std::size_t slot = 0; slot < slot_pattern_.size(); ++slot) {
    const std::optional<BitVec> data =
        image_.read_line(slot, /*downgrade=*/false);
    if (data.has_value()) {
      image_.write_line(slot, *data, LineMode::kStrong);
    } else {
      // Uncorrectable: reconstruct from the known-good pattern, modeling
      // a clean-copy refetch (page-cache reload / remap) after the DUE
      // was reported upstream.
      image_.write_line(slot, slot_pattern_[slot], LineMode::kStrong);
      ++restored;
    }
  }
  stats_.add("restored_lines", restored);
  return restored;
}

}  // namespace mecc::morph
