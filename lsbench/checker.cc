#include "checker.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "retwis/retwis.h"
#include "runtime/object.h"

namespace lo::lsbench {

const char* VerdictName(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk: return "ok";
    case Verdict::kTimeout: return "timeout";
    case Verdict::kBadStatus: return "bad_status";
    case Verdict::kUndecodable: return "undecodable";
    case Verdict::kWrong: return "wrong";
    case Verdict::kStale: return "stale";
  }
  return "?";
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  for (size_t i = 0; i < kNumVerdicts; i++) counts[i] += other.counts[i];
}

Verdict StatusVerdict(const Status& status) {
  return status.code() == StatusCode::kTimeout ? Verdict::kTimeout
                                               : Verdict::kBadStatus;
}

uint64_t ReplyHash(std::string_view reply) { return Fnv1a64(reply); }

namespace {

// Decodes a timeline reply; kOk leaves the posts in *posts.
Verdict DecodeChecked(const Result<std::string>& reply, uint64_t limit,
                      std::vector<retwis::Post>* posts) {
  if (!reply.ok()) return StatusVerdict(reply.status());
  auto decoded = retwis::DecodeTimeline(*reply);
  if (!decoded.ok()) return Verdict::kUndecodable;
  if (decoded->size() > limit) return Verdict::kWrong;
  *posts = std::move(*decoded);
  return Verdict::kOk;
}

}  // namespace

Verdict CheckTimeline(const Result<std::string>& reply, uint64_t limit,
                      const uint64_t* expected_hash) {
  std::vector<retwis::Post> posts;
  Verdict verdict = DecodeChecked(reply, limit, &posts);
  if (verdict != Verdict::kOk) return verdict;
  if (expected_hash != nullptr && ReplyHash(*reply) != *expected_hash) {
    return Verdict::kWrong;
  }
  return Verdict::kOk;
}

Verdict CheckCount(const Result<std::string>& reply, uint64_t lo, uint64_t hi) {
  if (!reply.ok()) return StatusVerdict(reply.status());
  if (reply->size() != 8) return Verdict::kUndecodable;
  uint64_t count = DecodeFixed64(reply->data());
  return count >= lo && count <= hi ? Verdict::kOk : Verdict::kWrong;
}

Verdict CheckProbe(const Result<std::string>& reply, uint64_t limit,
                   std::string_view message) {
  std::vector<retwis::Post> posts;
  Verdict verdict = DecodeChecked(reply, limit, &posts);
  if (verdict != Verdict::kOk) return verdict;
  for (const auto& post : posts) {
    if (post.message == message) return Verdict::kOk;
  }
  return Verdict::kStale;
}

Result<std::string> ExpectedTimeline(storage::DB* db, const std::string& oid,
                                     uint64_t limit) {
  // Mirrors the User type's get_timeline: newest `limit` entries, each
  // framed as len(2, LE) + blob; missing entries are skipped.
  uint64_t count = 0;
  auto raw = db->Get({}, runtime::FieldKey(oid, retwis::kTimelineCountKey));
  if (raw.ok()) {
    if (raw->size() != 8) return Status::Corruption("bad timeline counter");
    count = DecodeFixed64(raw->data());
  } else if (!raw.status().IsNotFound()) {
    return raw.status();
  }
  uint64_t n = std::min(limit, count);
  std::string out;
  for (uint64_t j = 0; j < n; j++) {
    auto entry = db->Get(
        {}, runtime::FieldKey(oid, retwis::TimelineEntryKey(count - 1 - j)));
    if (!entry.ok()) {
      if (entry.status().IsNotFound()) continue;
      return entry.status();
    }
    out.push_back(static_cast<char>(entry->size() & 0xff));
    out.push_back(static_cast<char>((entry->size() >> 8) & 0xff));
    out += *entry;
  }
  return out;
}

}  // namespace lo::lsbench
