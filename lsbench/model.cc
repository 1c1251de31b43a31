#include "model.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>

#include "checker.h"
#include "common/coding.h"
#include "retwis/retwis.h"
#include "runtime/object.h"
#include "storage/db.h"
#include "storage/env.h"

namespace lo::lsbench {

namespace fs = std::filesystem;

namespace {

constexpr uint64_t kModelMagic = 0x6c7362656e63686dULL;  // "lsbenchm"

Status ErrnoStatus(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Reads the benchmark's copy of the seeded state back from `db`: the
// expected timelines for a read-only workload, the follower lists for
// one that writes.
Result<Model> ReadModel(storage::DB* db, const retwis::Workload& workload,
                        bool read_only) {
  Model model;
  model.users = workload.config().num_users;
  model.timeline_hash.resize(read_only ? model.users : 0);
  model.followers.resize(read_only ? 0 : model.users);
  for (uint64_t i = 0; i < model.users; i++) {
    std::string oid = workload.UserId(i);
    if (read_only) {
      LO_ASSIGN_OR_RETURN(std::string timeline,
                          ExpectedTimeline(db, oid, kTimelineLimit));
      model.timeline_hash[i] = ReplyHash(timeline);
      continue;
    }
    auto count = db->Get({}, runtime::FieldKey(oid, retwis::kFollowerCountKey));
    if (!count.ok() || count->size() != 8) {
      return Status::Corruption("seeded user without follower count: " + oid);
    }
    uint64_t n = DecodeFixed64(count->data());
    auto& followers = model.followers[i];
    followers.reserve(n);
    for (uint64_t j = 0; j < n; j++) {
      LO_ASSIGN_OR_RETURN(
          std::string follower,
          db->Get({}, runtime::FieldKey(oid, retwis::FollowerEntryKey(j))));
      if (follower.rfind("user/", 0) != 0) {
        return Status::Corruption("bad follower entry of " + oid);
      }
      followers.push_back(
          static_cast<uint32_t>(std::strtoul(follower.c_str() + 5, nullptr, 10)));
    }
  }
  return model;
}

Status WriteModel(const Model& model, const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> out(std::fopen(path.c_str(), "wb"),
                                            &std::fclose);
  if (!out) return ErrnoStatus(path);
  // An empty vector's data() may be null, which fwrite must not get.
  auto put = [&](const void* data, size_t bytes) {
    return bytes == 0 || std::fwrite(data, 1, bytes, out.get()) == bytes;
  };
  uint64_t hashes = model.timeline_hash.size();
  uint64_t lists = model.followers.size();
  bool ok = put(&kModelMagic, 8) && put(&model.users, 8) && put(&hashes, 8) &&
            put(model.timeline_hash.data(), 8 * hashes) && put(&lists, 8);
  for (const auto& followers : model.followers) {
    uint64_t n = followers.size();
    ok = ok && put(&n, 8) && put(followers.data(), 4 * n);
  }
  if (!ok) return ErrnoStatus(path);
  return Status::OK();
}

void DropOldImages(const fs::path& images, const std::string& prefix,
                   size_t keep) {
  std::vector<std::pair<fs::file_time_type, fs::path>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(images, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0 || name.find(".tmp") != std::string::npos) {
      continue;
    }
    found.emplace_back(fs::last_write_time(entry.path(), ec), entry.path());
  }
  if (found.size() <= keep) return;
  std::sort(found.begin(), found.end());
  for (size_t i = 0; i + keep < found.size(); i++) {
    fs::remove_all(found[i].second, ec);
  }
}

}  // namespace

std::string ImageDbDir(const std::string& image_dir) {
  return image_dir + "/db";
}

Result<std::string> EnsureImage(const std::string& data_dir,
                                const retwis::WorkloadConfig& config,
                                bool read_only, size_t keep,
                                double* built_seconds) {
  *built_seconds = 0;
  fs::path images = fs::path(data_dir) / "images";
  std::string prefix = "u" + std::to_string(config.num_users) +
                       (read_only ? "-ro-" : "-rw-");
  fs::path final_dir = images / (prefix + "s" + std::to_string(config.seed));
  std::error_code ec;
  if (fs::exists(final_dir / "model.bin", ec)) {
    fs::last_write_time(final_dir, fs::file_time_type::clock::now(), ec);
    return final_dir.string();
  }
  auto started = std::chrono::steady_clock::now();
  fs::path tmp = final_dir;
  tmp += ".tmp" + std::to_string(getpid());
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) return Status::IOError("mkdir " + tmp.string() + ": " + ec.message());
  {
    storage::PosixEnv env;
    storage::Options options;
    options.env = &env;
    // A large memtable keeps seeding from compacting its way down level
    // by level; the CompactAll below writes the final layout either way.
    options.write_buffer_size = 64 << 20;
    LO_ASSIGN_OR_RETURN(auto db,
                        storage::DB::Open(options, ImageDbDir(tmp.string())));
    retwis::Workload workload(config);
    LO_RETURN_IF_ERROR(workload.SeedDb(db.get()));
    // The server compacts everything on its graceful shutdown; an image
    // that is already fully compacted leaves that with nothing to do, so
    // every start on a copy (the repeated set-up starts included) opens
    // the same layout with an empty WAL.
    LO_RETURN_IF_ERROR(db->CompactAll());
    LO_ASSIGN_OR_RETURN(Model model, ReadModel(db.get(), workload, read_only));
    LO_RETURN_IF_ERROR(WriteModel(model, (tmp / "model.bin").string()));
  }
  fs::remove_all(final_dir, ec);
  fs::rename(tmp, final_dir, ec);
  if (ec) return Status::IOError("rename image: " + ec.message());
  DropOldImages(images, prefix, keep);
  *built_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return final_dir.string();
}

Result<Model> LoadModel(const std::string& image_dir) {
  std::string path = image_dir + "/model.bin";
  std::unique_ptr<FILE, int (*)(FILE*)> in(std::fopen(path.c_str(), "rb"),
                                           &std::fclose);
  if (!in) return ErrnoStatus(path);
  auto get = [&](void* data, size_t bytes) {
    return bytes == 0 || std::fread(data, 1, bytes, in.get()) == bytes;
  };
  uint64_t magic = 0;
  uint64_t hashes = 0;
  uint64_t lists = 0;
  Model model;
  if (!get(&magic, 8) || magic != kModelMagic || !get(&model.users, 8) ||
      !get(&hashes, 8) || (hashes != 0 && hashes != model.users) ||
      model.users > (1u << 24)) {
    return Status::Corruption(path + ": bad header");
  }
  model.timeline_hash.resize(hashes);
  if (!get(model.timeline_hash.data(), 8 * hashes) || !get(&lists, 8) ||
      (lists != 0 && lists != model.users)) {
    return Status::Corruption(path + ": short");
  }
  model.followers.resize(lists);
  for (auto& followers : model.followers) {
    uint64_t n = 0;
    if (!get(&n, 8) || n > (1u << 24)) {
      return Status::Corruption(path + ": bad follower list");
    }
    followers.resize(n);
    if (!get(followers.data(), 4 * n)) return Status::Corruption(path + ": short");
  }
  return model;
}

Status CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  fs::remove_all(to, ec);
  fs::create_directories(to, ec);
  fs::copy(from, to, fs::copy_options::recursive, ec);
  if (ec) return Status::IOError("copy " + from + " -> " + to + ": " + ec.message());
  return Status::OK();
}

}  // namespace lo::lsbench
