// Seeded ReTwis database images and the benchmark's own copy of their
// state.
//
// An image is a MiniLSM directory written by retwis::Workload::SeedDb
// for one (users, seed) pair, plus model.bin: what the benchmark reads
// back from that same directory before the server ever sees it — the
// expected get_timeline reply hash of every user and every follower
// list. Images are built once per (users, seed) and copied for each run,
// since seeding 100k users takes tens of seconds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "retwis/workload.h"

namespace lo::lsbench {

struct Model {
  uint64_t users = 0;
  /// Read-only workloads: ReplyHash of get_timeline(limit = 10) on the
  /// seeded state, per user. Empty otherwise.
  std::vector<uint64_t> timeline_hash;
  /// Workloads that write: seeded follower lists, read by
  /// runtime::FieldKey(author, retwis::FollowerEntryKey(j)). Empty
  /// otherwise.
  std::vector<std::vector<uint32_t>> followers;
};

inline constexpr uint64_t kTimelineLimit = 10;

/// Returns the image directory for `config` under `data_dir`, building
/// it first if absent (atomically: a half-built image is never used).
/// `read_only` selects which half of the Model is read back.
/// Keeps at most `keep` images per user count, dropping the oldest.
/// `*built_seconds` is 0 when a cached image was reused.
Result<std::string> EnsureImage(const std::string& data_dir,
                                const retwis::WorkloadConfig& config,
                                bool read_only, size_t keep,
                                double* built_seconds);

/// Loads model.bin from an image directory.
Result<Model> LoadModel(const std::string& image_dir);

/// The MiniLSM directory inside an image.
std::string ImageDbDir(const std::string& image_dir);

/// Replaces `to` with a recursive copy of `from`.
Status CopyTree(const std::string& from, const std::string& to);

}  // namespace lo::lsbench
