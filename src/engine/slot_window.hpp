#pragma once

#include <cstddef>
#include <deque>
#include <optional>

#include "common/types.hpp"

/// \file slot_window.hpp
/// Per-slot values over a window of nearby slots: the engine's reorder
/// buffer and the catch-up policy's decided-value retention. Both hold at
/// most a few windows' worth of consecutive slots, so a deque of optional
/// cells indexed by slot replaces an ordered map: recording a slot costs
/// no allocation of its own (the deque grows in chunks) and a lookup is an
/// index. The interface is the slice of std::map the two users need.

namespace fastbft::engine {

template <typename T>
class SlotWindow {
 public:
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  const T* find(Slot slot) const {
    if (slot < base_ || slot - base_ >= cells_.size()) return nullptr;
    const auto& cell = cells_[slot - base_];
    return cell ? &*cell : nullptr;
  }
  bool contains(Slot slot) const { return find(slot) != nullptr; }

  /// Records `value` for `slot` unless the slot already holds one.
  void emplace(Slot slot, T value) {
    if (cells_.empty()) {
      base_ = slot;
    } else if (slot < base_) {
      cells_.insert(cells_.begin(), base_ - slot, std::nullopt);
      base_ = slot;
    }
    if (slot - base_ >= cells_.size()) cells_.resize(slot - base_ + 1);
    auto& cell = cells_[slot - base_];
    if (cell) return;
    cell.emplace(std::move(value));
    ++count_;
  }

  void erase(Slot slot) {
    if (!contains(slot)) return;
    cells_[slot - base_].reset();
    --count_;
    while (!cells_.empty() && !cells_.front()) {
      cells_.pop_front();
      ++base_;
    }
    while (!cells_.empty() && !cells_.back()) cells_.pop_back();
  }

  /// Drops every slot below `floor`; returns how many held a value.
  std::size_t erase_below(Slot floor) {
    std::size_t erased = 0;
    while (!cells_.empty() && (base_ < floor || !cells_.front())) {
      if (cells_.front()) ++erased;
      cells_.pop_front();
      ++base_;
    }
    count_ -= erased;
    return erased;
  }

 private:
  /// cells_[i] is slot base_ + i. The front and back cells hold values.
  std::deque<std::optional<T>> cells_;
  Slot base_ = 0;
  std::size_t count_ = 0;
};

}  // namespace fastbft::engine
