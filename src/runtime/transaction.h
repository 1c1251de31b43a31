// Multi-object transactions — the paper's future work (§7: "one will
// need to add consistency guarantees for transactions spanning multiple
// function calls"; §3.1 envisions "serializable transactions"), built as
// the paper suggests: "embedding execution into the database itself
// allows using proven transaction processing protocols".
//
// Protocol: optimistic concurrency control with lock-ordered commit.
//  1. Execution phase — the transaction invokes read-only methods and
//     buffers cross-object writes; every storage read records a
//     (key, value-hash) pair.
//  2. Commit phase — the objects' locks are taken in canonical (sorted)
//     order, the read set is validated against current storage, and on
//     success all buffered writes commit as one atomic WriteBatch
//     through the node's commit sink. Validation failure aborts with
//     Status::Aborted; the caller retries.
//
// Scope (documented limitation): a transaction's objects must live on
// one node — the atomic batch is node-local. Cross-shard transactions
// would need two-phase commit on top; the hooks (per-object buffers,
// read validation) are already shaped for it.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace lo::runtime {

class Transaction {
 public:
  explicit Transaction(Runtime* runtime);
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Transactional field reads (any object, recorded in the read set).
  sim::Task<Result<std::string>> Get(const ObjectId& oid, std::string_view field);
  /// Buffered writes; visible to this transaction's own reads only.
  void Set(const ObjectId& oid, std::string_view field, std::string_view value);
  void Unset(const ObjectId& oid, std::string_view field);

  /// Validates and atomically commits everything.
  /// Status::Aborted = read set went stale (retry); other codes = error.
  sim::Task<Status> Commit();
  /// Discards all buffered state (automatic on destruction).
  void Abort();

  bool committed() const { return committed_; }

 private:
  sim::Task<Result<std::string>> ReadKey(const std::string& key);

  Runtime* runtime_;
  // key -> observed value hash (absence hashes distinctly).
  std::map<std::string, uint64_t> read_hashes_;
  // key -> buffered write (nullopt = delete).
  std::map<std::string, std::optional<std::string>> writes_;
  // object ids touched by writes (locked in sorted order at commit).
  std::map<ObjectId, bool> write_objects_;
  bool committed_ = false;
  bool finished_ = false;
};

}  // namespace lo::runtime
