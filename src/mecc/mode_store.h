// Per-line ECC-mode tracking for the whole memory (the simulator-side
// mirror of the ECC-mode bits stored in each line's spare space).
//
// Only lines touched while active are ever downgraded (the observation
// behind MDT, paper S VI-A), so the weak bits are paged: a top-level
// vector of page pointers, where a null page means every line in it is
// strong, and fixed-size bit pages allocated at a line's first
// downgrade. Construction, teardown and the all-strong reset cost
// O(pages), never O(capacity).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "mecc/line_codec.h"

namespace mecc::morph {

class ModeStore {
 public:
  /// One page of mode bits is one 4 KiB host page: 32 768 lines, i.e.
  /// 2 MiB of simulated DRAM. The page table stays small (512 pointers
  /// at 1 GB, 8 192 at 16 GB) while a footprint of a few thousand lines
  /// allocates only a few pages.
  static constexpr std::uint64_t kPageBytes = 4096;
  static constexpr std::uint64_t kPageWords = kPageBytes / 8;
  static constexpr std::uint64_t kLinesPerPage = kPageBytes * 8;

  /// All lines start strong (the state after an idle period).
  explicit ModeStore(std::uint64_t num_lines)
      : num_lines_(num_lines),
        pages_((num_lines + kLinesPerPage - 1) / kLinesPerPage) {}

  [[nodiscard]] LineMode mode_of(Address line_addr) const {
    const std::uint64_t i = index(line_addr);
    const std::uint64_t* page = pages_[i / kLinesPerPage].get();
    return (page != nullptr && ((page[word_of(i)] >> (i & 63)) & 1u))
               ? LineMode::kWeak
               : LineMode::kStrong;
  }

  void set_mode(Address line_addr, LineMode mode) {
    const std::uint64_t i = index(line_addr);
    const bool now_weak = (mode == LineMode::kWeak);
    auto& page = pages_[i / kLinesPerPage];
    if (page == nullptr) {
      if (!now_weak) return;  // a missing page is all strong already
      page = std::make_unique<std::uint64_t[]>(kPageWords);  // zeroed
    }
    std::uint64_t& word = page[word_of(i)];
    const std::uint64_t mask = 1ull << (i & 63);
    const bool was_weak = (word & mask) != 0;
    if (was_weak == now_weak) return;
    if (now_weak) {
      word |= mask;
      ++weak_count_;
    } else {
      word &= ~mask;
      --weak_count_;
    }
  }

  /// Every line back to strong (the ECC-Upgrade completed): frees the
  /// pages; nothing to do when no line is weak.
  void reset() {
    if (weak_count_ == 0) return;
    for (auto& page : pages_) page.reset();
    weak_count_ = 0;
  }

  /// Number of lines currently in weak (downgraded) mode.
  [[nodiscard]] std::uint64_t weak_lines() const { return weak_count_; }
  [[nodiscard]] std::uint64_t num_lines() const { return num_lines_; }
  [[nodiscard]] bool all_strong() const { return weak_count_ == 0; }

 private:
  [[nodiscard]] std::uint64_t index(Address line_addr) const {
    return (line_addr / kLineBytes) % num_lines_;
  }
  [[nodiscard]] static std::uint64_t word_of(std::uint64_t i) {
    return (i % kLinesPerPage) / 64;
  }

  std::uint64_t num_lines_;
  // 1 = weak (downgraded); null = every line of the page strong.
  std::vector<std::unique_ptr<std::uint64_t[]>> pages_;
  std::uint64_t weak_count_ = 0;
};

}  // namespace mecc::morph
