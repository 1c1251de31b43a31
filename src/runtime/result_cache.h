// Consistent result cache for deterministic read-only methods (§4.2.2).
//
// Because storage and execution are co-located, the storage node sees
// every committed write, so it can invalidate cached function results
// precisely: a flat open-addressing index maps each read key's hash to
// the entries that read it, and committing a batch drops every entry that
// read one of its write keys. Entries therefore never serve stale data (a
// hash collision can only drop an extra entry).
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "runtime/context.h"

namespace lo::runtime {

class ResultCache {
 public:
  explicit ResultCache(size_t capacity = 4096);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t invalidations = 0;  // entries dropped by writes
    uint64_t evictions = 0;      // entries dropped by capacity
    /// Subset of `invalidations` triggered by *replicated* batches —
    /// writes that executed on another node and arrived over the
    /// replication stream (a backup keeping its cache consistent).
    uint64_t remote_invalidations = 0;
  };

  /// Cache key for (object, method, argument).
  static std::string MakeKey(std::string_view oid, std::string_view method,
                             std::string_view argument);

  /// Returns the cached output, or nullopt on miss.
  std::optional<std::string> Lookup(const std::string& cache_key);

  void Insert(const std::string& cache_key, std::string output,
              const std::vector<ReadSetEntry>& reads);

  /// Drops every entry that read one of these storage keys. `remote`
  /// marks the write as having arrived via replication rather than a
  /// local commit (counted separately in stats).
  void InvalidateWrites(std::span<const std::string> written_keys,
                        bool remote = false);

  void Clear();
  size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  struct Node;
  // One read key of an entry: Fnv1a64(key), linked into the list of all
  // records with that hash, so dropping an entry unlinks it in O(1).
  struct Dep { uint64_t hash; Node* owner; Dep* prev; Dep* next; };
  struct Node {
    std::string key, output;
    std::vector<Dep> deps;  // never resized once linked
  };
  struct Slot { uint64_t hash; Dep* head; };  // head null: empty slot
  using NodeIt = std::list<Node>::iterator;

  void Erase(NodeIt node);
  size_t Home(uint64_t hash) const { return Mix64(hash) & (slots_.size() - 1); }
  Slot* FindSlot(uint64_t hash);
  void Place(Slot slot);
  void Link(Dep* dep);
  void Unlink(Dep* dep);

  size_t capacity_;
  std::list<Node> lru_;  // front = least recently used
  std::unordered_map<std::string_view, NodeIt> entries_;  // views node keys
  std::vector<Slot> slots_;  // power-of-two size (>= 16), at most half full
  size_t used_slots_ = 0;
  Stats stats_;
};

}  // namespace lo::runtime
