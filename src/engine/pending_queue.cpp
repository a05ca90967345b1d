#include "engine/pending_queue.hpp"

#include <algorithm>
#include <iterator>

namespace fastbft::engine {

bool PendingQueue::admit(smr::Command cmd) {
  if (cmd.kind == smr::OpKind::Noop) return false;
  CommandId id = id_of(cmd);
  if (applied_.contains(id)) return false;
  if (!seen_.emplace(id, trimmed_ + pending_.size()).second) return false;
  pending_.push_back(Entry{std::move(cmd)});
  ++unclaimed_;
  return true;
}

PendingQueue::Entry* PendingQueue::at(std::uint64_t pos) {
  if (pos < trimmed_ || pos - trimmed_ >= pending_.size()) return nullptr;
  return &pending_[pos - trimmed_];
}

std::vector<const smr::Command*> PendingQueue::claim(
    Slot slot, std::uint32_t max_batch) {
  std::vector<const smr::Command*> batch;
  std::vector<std::uint64_t>* claims = nullptr;
  std::uint64_t pos = std::max(claim_cursor_, trimmed_);
  for (; batch.size() < max_batch && pos - trimmed_ < pending_.size(); ++pos) {
    Entry& entry = pending_[pos - trimmed_];
    if (entry.applied || entry.claimed) continue;
    if (claims == nullptr) {
      claims = &claims_by_slot_[slot];
      claims->reserve(max_batch);
      batch.reserve(max_batch);
    }
    batch.push_back(&entry.cmd);
    claims->push_back(pos);
    entry.claimed = true;
    --unclaimed_;
    ++claimed_;
  }
  // Everything before `pos` is now claimed or applied.
  claim_cursor_ = pos;
  return batch;
}

void PendingQueue::unclaim(std::uint64_t pos) {
  --claimed_;
  Entry* entry = at(pos);
  if (entry == nullptr) return;
  entry->claimed = false;
  if (!entry->applied) ++unclaimed_;
  claim_cursor_ = std::min(claim_cursor_, pos);
}

void PendingQueue::release(Slot slot) {
  auto it = claims_by_slot_.find(slot);
  if (it == claims_by_slot_.end()) return;
  for (std::uint64_t pos : it->second) unclaim(pos);
  claims_by_slot_.erase(it);
}

void PendingQueue::mark_applied(Entry& entry) {
  if (entry.applied) return;
  entry.applied = true;
  if (!entry.claimed) --unclaimed_;
}

bool PendingQueue::applied(const smr::Command& cmd, Slot slot) {
  CommandId id = id_of(cmd);
  if (!applied_.emplace(id, slot).second) return false;
  if (auto seen = seen_.find(id); seen != seen_.end()) {
    if (Entry* entry = at(seen->second)) mark_applied(*entry);
  }
  trim_applied_prefix();
  return true;
}

void PendingQueue::restore_applied(const std::vector<AppliedEntry>& entries) {
  applied_ = std::map<CommandId, Slot>(entries.begin(), entries.end());
  resync_applied();
}

void PendingQueue::prune_applied_before(Slot floor) {
  std::size_t before = applied_.size();
  for (auto it = applied_.begin(); it != applied_.end();) {
    it = it->second < floor ? applied_.erase(it) : std::next(it);
  }
  if (applied_.size() != before) resync_applied();
}

void PendingQueue::resync_applied() {
  unclaimed_ = 0;
  for (Entry& entry : pending_) {
    entry.applied = applied_.contains(id_of(entry.cmd));
    if (!entry.applied && !entry.claimed) ++unclaimed_;
  }
  claim_cursor_ = trimmed_;
  trim_applied_prefix();
}

void PendingQueue::release_below(Slot floor) {
  for (auto it = claims_by_slot_.begin();
       it != claims_by_slot_.end() && it->first < floor;
       it = claims_by_slot_.erase(it)) {
    for (std::uint64_t pos : it->second) unclaim(pos);
  }
}

void PendingQueue::trim_applied_prefix() {
  while (!pending_.empty() && pending_.front().applied) {
    pending_.pop_front();
    ++trimmed_;
  }
}

}  // namespace fastbft::engine
