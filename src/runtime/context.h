// InvocationContext: the world one method invocation sees.
//
// Reads go through the invocation's write buffer first, then a storage
// snapshot; writes are buffered and committed as one atomic WriteBatch
// when the invocation finishes (or before a nested call — paper §3.1).
// The context is simultaneously the VM's HostApi and the native-method
// API, so bytecode and native methods observe identical semantics.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/trace.h"
#include "runtime/async_mutex.h"
#include "runtime/object.h"
#include "sim/task.h"
#include "storage/db.h"
#include "vm/interpreter.h"

namespace lo::runtime {

class Runtime;

/// One entry of the recorded read set: key plus a short hash of the
/// observed value ("absent" hashes distinctly), used by the result cache.
struct ReadSetEntry {
  std::string key;
  uint64_t value_hash;
};

/// Hash of an observed value; absence hashes differently from every
/// present value.
uint64_t ObservedValueHash(const Result<std::string>& value);

class InvocationContext : public vm::HostApi {
 public:
  /// `snapshot` may be null (read latest). Runtime retains ownership of
  /// everything passed in.
  InvocationContext(Runtime* runtime, ObjectId oid, MethodKind kind,
                    const storage::Snapshot* snapshot);

  const ObjectId& oid() const { return oid_; }
  MethodKind kind() const { return kind_; }

  // --- vm::HostApi (raw keys are this object's value fields) ----------
  sim::Task<Result<std::string>> KvGet(std::string_view key) override { return Get(key); }
  sim::Task<Status> KvPut(std::string_view key, std::string_view value) override {
    return Set(key, value);
  }
  sim::Task<Status> KvDelete(std::string_view key) override { return Unset(key); }
  sim::Task<Result<std::string>> InvokeObject(std::string_view oid,
                                              std::string_view function,
                                              std::string_view argument) override;
  uint64_t TimeMillis() override;
  void DebugLog(std::string_view message) override;

  // --- native-method field API ----------------------------------------
  /// Value fields. Get returns NotFound if never set.
  sim::Task<Result<std::string>> Get(std::string_view field);
  sim::Task<Status> Set(std::string_view field, std::string_view value);
  sim::Task<Status> Unset(std::string_view field);

  /// List fields (append-only).
  sim::Task<Result<uint64_t>> ListLen(std::string_view field);
  sim::Task<Status> ListPush(std::string_view field, std::string_view value);
  sim::Task<Result<std::string>> ListGet(std::string_view field, uint64_t index);
  /// Newest entries first, at most `limit` (the timeline read pattern).
  sim::Task<Result<std::vector<std::string>>> ListNewest(std::string_view field,
                                                         uint64_t limit);

  /// Map fields.
  sim::Task<Result<std::string>> MapGet(std::string_view field, std::string_view key);
  sim::Task<Status> MapSet(std::string_view field, std::string_view key,
                           std::string_view value);
  sim::Task<Status> MapDelete(std::string_view field, std::string_view key);

  // --- used by the Runtime ---------------------------------------------
  /// Drains buffered writes into a WriteBatch (empty batch if clean).
  storage::WriteBatch TakeWriteBatch();
  bool has_writes() const { return !writes_.empty(); }
  const std::vector<ReadSetEntry>& read_set() const { return read_set_; }
  /// Keys written so far (cache invalidation).
  std::vector<std::string> written_keys() const;
  /// The object lock held by this (read-write) invocation; the runtime
  /// releases it around nested calls (paper §3.1: the parts before and
  /// after a nested call are separate invocations).
  void set_object_lock(AsyncMutex* lock) { lock_ = lock; }
  AsyncMutex* object_lock() const { return lock_; }
  /// Trace context of this invocation; nested calls and commits inherit it.
  void set_trace(obs::TraceContext trace) { trace_ = trace; }
  const obs::TraceContext& trace() const { return trace_; }
  /// Client-minted idempotency token, stable across retries of the same
  /// logical request (empty = dedup off). Each CommitContext call of this
  /// invocation consumes the next commit index, so multi-commit
  /// invocations (nested calls commit early) dedup per commit point.
  void set_idempotency_token(std::string token) {
    idempotency_token_ = std::move(token);
  }
  const std::string& idempotency_token() const { return idempotency_token_; }
  uint64_t NextCommitIndex() { return commit_index_++; }

 private:
  /// Buffer-then-snapshot read of an absolute storage key.
  sim::Task<Result<std::string>> ReadKey(std::string key);
  sim::Task<Status> WriteKey(std::string key, std::optional<std::string> value);
  Status CheckWritable() const;

  Runtime* runtime_;
  ObjectId oid_;
  MethodKind kind_;
  const storage::Snapshot* snapshot_;
  AsyncMutex* lock_ = nullptr;
  obs::TraceContext trace_;
  // nullopt value = pending delete.
  std::map<std::string, std::optional<std::string>> writes_;
  std::vector<ReadSetEntry> read_set_;
  std::string idempotency_token_;
  uint64_t commit_index_ = 0;
};

}  // namespace lo::runtime
