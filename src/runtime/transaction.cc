#include "runtime/transaction.h"

#include <set>

#include "common/log.h"

namespace lo::runtime {

Transaction::Transaction(Runtime* runtime) : runtime_(runtime) {}

Transaction::~Transaction() {
  LO_CHECK_MSG(finished_ || writes_.empty(),
               "transaction with writes destroyed without Commit/Abort");
}

sim::Task<Result<std::string>> Transaction::ReadKey(const std::string& key) {
  auto buffered = writes_.find(key);
  if (buffered != writes_.end()) {
    if (!buffered->second.has_value()) co_return Status::NotFound("");
    co_return *buffered->second;
  }
  Result<std::string> value = runtime_->StorageRead(key, nullptr);
  if (!value.ok() && !value.status().IsNotFound()) co_return value.status();
  // First read of a key pins its observed version for validation.
  read_hashes_.emplace(key, ObservedValueHash(value));
  co_return value;
}

sim::Task<Result<std::string>> Transaction::Get(const ObjectId& oid,
                                                std::string_view field) {
  co_return co_await ReadKey(FieldKey(oid, field));
}

void Transaction::Set(const ObjectId& oid, std::string_view field,
                      std::string_view value) {
  LO_CHECK_MSG(!finished_, "write on finished transaction");
  writes_[FieldKey(oid, field)] = std::string(value);
  write_objects_[oid] = true;
}

void Transaction::Unset(const ObjectId& oid, std::string_view field) {
  LO_CHECK_MSG(!finished_, "write on finished transaction");
  writes_[FieldKey(oid, field)] = std::nullopt;
  write_objects_[oid] = true;
}

void Transaction::Abort() {
  writes_.clear();
  read_hashes_.clear();
  write_objects_.clear();
  finished_ = true;
}

sim::Task<Status> Transaction::Commit() {
  LO_CHECK_MSG(!finished_, "double Commit/Abort");
  finished_ = true;
  if (writes_.empty() && read_hashes_.empty()) {
    committed_ = true;
    co_return Status::OK();
  }

  // Lock phase: objects map to execution lanes, and two write objects can
  // share a lane — locking per object would self-deadlock on the second
  // acquire. Dedupe to lane indices and lock in ascending index order
  // (canonical across transactions), so neither self- nor cross-deadlock
  // is possible.
  std::set<size_t> lanes;
  for (const auto& [oid, unused] : write_objects_) {
    lanes.insert(runtime_->LaneIndexFor(oid));
  }
  std::vector<AsyncMutex*> held;
  for (size_t lane : lanes) {
    AsyncMutex& lock = runtime_->LaneLock(lane);
    co_await lock.Lock();
    held.push_back(&lock);
  }
  auto unlock_all = [&held] {
    for (auto it = held.rbegin(); it != held.rend(); ++it) (*it)->Unlock();
  };

  // Validation phase: every read must still see the version it observed.
  for (const auto& [key, hash] : read_hashes_) {
    Result<std::string> current = runtime_->StorageRead(key, nullptr);
    if (!current.ok() && !current.status().IsNotFound()) {
      unlock_all();
      co_return current.status();
    }
    if (ObservedValueHash(current) != hash) {
      unlock_all();
      co_return Status::Aborted("transaction read set is stale");
    }
  }

  // Write phase: one atomic batch (all objects are node-local; see the
  // header's scope note). Routed through the commit sink with the first
  // written object's id, which also replicates it.
  storage::WriteBatch batch;
  for (const auto& [key, value] : writes_) {
    if (value.has_value()) {
      batch.Put(key, *value);
    } else {
      batch.Delete(key);
    }
  }
  std::vector<std::string> written_keys;
  written_keys.reserve(writes_.size());
  for (const auto& [key, value] : writes_) written_keys.push_back(key);

  Status s = co_await runtime_->CommitBatchForTransaction(
      write_objects_.begin()->first, std::move(batch), written_keys);
  unlock_all();
  if (s.ok()) committed_ = true;
  co_return s;
}

}  // namespace lo::runtime
