#include "runtime/result_cache.h"

#include <utility>

#include "common/sha256.h"

namespace lo::runtime {

ResultCache::ResultCache(size_t capacity) : capacity_(capacity), slots_(16) {}

std::string ResultCache::MakeKey(std::string_view oid, std::string_view method,
                                 std::string_view argument) {
  std::string key;
  key.append(oid);
  key.push_back('\0');
  key.append(method);
  key.push_back('\0');
  // Hash the argument: cache keys stay small regardless of input size.
  key += Sha256Hex(argument);
  return key;
}

std::optional<std::string> ResultCache::Lookup(const std::string& cache_key) {
  auto it = entries_.find(cache_key);
  if (it == entries_.end()) {
    stats_.misses++;
    return std::nullopt;
  }
  stats_.hits++;
  lru_.splice(lru_.end(), lru_, it->second);  // now most recently used
  return it->second->output;
}

void ResultCache::Insert(const std::string& cache_key, std::string output,
                         const std::vector<ReadSetEntry>& reads) {
  if (auto it = entries_.find(cache_key); it != entries_.end()) Erase(it->second);
  Node& node = lru_.emplace_back(Node{cache_key, std::move(output), {}});
  node.deps.reserve(reads.size());  // exact: records never move once linked
  for (const auto& read : reads) {
    Link(&node.deps.emplace_back(Dep{Fnv1a64(read.key), &node, nullptr, nullptr}));
  }
  entries_.emplace(node.key, std::prev(lru_.end()));
  stats_.insertions++;
  while (entries_.size() > capacity_) {
    stats_.evictions++;
    Erase(lru_.begin());
  }
}

void ResultCache::InvalidateWrites(std::span<const std::string> written_keys,
                                   bool remote) {
  for (const auto& key : written_keys) {
    // Each drop unlinks the victim's records, so re-probe until none is left.
    for (uint64_t hash = Fnv1a64(key); Slot* slot = FindSlot(hash);) {
      stats_.invalidations++;
      if (remote) stats_.remote_invalidations++;
      Erase(entries_.find(slot->head->owner->key)->second);
    }
  }
}

void ResultCache::Erase(NodeIt node) {
  for (Dep& dep : node->deps) Unlink(&dep);
  entries_.erase(node->key);
  lru_.erase(node);
}

void ResultCache::Clear() {
  entries_.clear();
  lru_.clear();
  slots_ = std::vector<Slot>(16);
  used_slots_ = 0;
}

ResultCache::Slot* ResultCache::FindSlot(uint64_t hash) {
  for (size_t i = Home(hash);; i = (i + 1) & (slots_.size() - 1)) {
    if (slots_[i].head == nullptr) return nullptr;
    if (slots_[i].hash == hash) return &slots_[i];
  }
}

void ResultCache::Place(Slot slot) {
  size_t i = Home(slot.hash);
  while (slots_[i].head != nullptr) i = (i + 1) & (slots_.size() - 1);
  slots_[i] = slot;
}

void ResultCache::Link(Dep* dep) {
  if (Slot* slot = FindSlot(dep->hash)) {
    dep->next = std::exchange(slot->head, dep);
    dep->next->prev = dep;
    return;
  }
  if ((used_slots_ + 1) * 2 > slots_.size()) {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.head != nullptr) Place(slot);
    }
  }
  Place({dep->hash, dep});
  used_slots_++;
}

void ResultCache::Unlink(Dep* dep) {
  if (dep->next != nullptr) dep->next->prev = dep->prev;
  if (dep->prev != nullptr) {
    dep->prev->next = dep->next;
    return;
  }
  Slot* slot = FindSlot(dep->hash);
  slot->head = dep->next;
  if (slot->head != nullptr) return;
  // Last record of this hash: backward-shift deletion, no tombstones.
  size_t mask = slots_.size() - 1;
  size_t hole = slot - slots_.data();
  for (size_t i = (hole + 1) & mask; slots_[i].head != nullptr; i = (i + 1) & mask) {
    // Slot i may fill the hole unless its home lies cyclically in (hole, i].
    if (((i - Home(slots_[i].hash)) & mask) >= ((i - hole) & mask)) {
      slots_[hole] = slots_[i];
      slots_[i].head = nullptr;
      hole = i;
    }
  }
  used_slots_--;
}

}  // namespace lo::runtime
