#include "mecc/memory_image.h"

namespace mecc::morph {

MemoryImage::MemoryImage(std::size_t num_lines)
    : lines_(num_lines, codec_.store(BitVec(kDataBits), LineMode::kStrong)) {}

void MemoryImage::write_line(std::size_t index, const BitVec& data,
                             LineMode mode) {
  lines_[index] = codec_.store(data, mode);
  ++stats_.writes;
}

std::optional<BitVec> MemoryImage::read_line(std::size_t index,
                                             bool downgrade) {
  ++stats_.reads;
  const LineDecodeResult r = codec_.load(lines_[index]);
  if (!r.ok) {
    ++stats_.uncorrectable;
    return std::nullopt;
  }
  stats_.corrected_bits += r.corrected_bits;
  if (r.mode_bits_disagreed) ++stats_.mode_bit_repairs;

  if (r.corrected_bits > 0 || r.mode_bits_disagreed) {
    // Scrub: write the corrected contents back in the same mode.
    lines_[index] = codec_.store(r.data, r.mode);
  }
  if (downgrade && r.mode == LineMode::kStrong) {
    lines_[index] = codec_.store(r.data, LineMode::kWeak);
    ++stats_.downgrades;
  }
  return r.data;
}

void MemoryImage::upgrade_all() {
  const std::vector<LineDecodeResult> decoded = codec_.load_batch(lines_);
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const LineDecodeResult& r = decoded[i];
    if (!r.ok) {
      ++stats_.uncorrectable;
      continue;
    }
    if (r.mode == LineMode::kWeak) {
      lines_[i] = codec_.store(r.data, LineMode::kStrong);
      ++stats_.upgrades;
    } else if (r.corrected_bits > 0) {
      lines_[i] = codec_.store(r.data, LineMode::kStrong);  // scrub
    }
    stats_.corrected_bits += r.corrected_bits;
  }
}

ScrubReport MemoryImage::scrub_all() {
  ScrubReport rep;
  const std::vector<LineDecodeResult> decoded = codec_.load_batch(lines_);
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const LineDecodeResult& r = decoded[i];
    ++rep.lines;
    if (!r.ok) {
      ++rep.uncorrectable;
      ++stats_.uncorrectable;
      continue;
    }
    rep.corrected_bits += r.corrected_bits;
    stats_.corrected_bits += r.corrected_bits;
    if (r.mode_bits_disagreed) ++stats_.mode_bit_repairs;
    if (r.corrected_bits > 0 || r.mode_bits_disagreed) {
      lines_[i] = codec_.store(r.data, r.mode);
      ++rep.repaired_lines;
    }
  }
  return rep;
}

std::uint64_t MemoryImage::inject_retention_errors(
    double ber, reliability::FaultInjector& injector) {
  std::uint64_t flipped = 0;
  for (auto& line : lines_) {
    flipped += injector.inject(line, ber);
  }
  return flipped;
}

LineMode MemoryImage::stored_mode(std::size_t index) const {
  std::size_t votes = 0;
  for (std::size_t r = 0; r < kModeReplicas; ++r) {
    votes += lines_[index].get(kDataBits + r) ? 1 : 0;
  }
  return votes >= 2 ? LineMode::kStrong : LineMode::kWeak;
}

}  // namespace mecc::morph
