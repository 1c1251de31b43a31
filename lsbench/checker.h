// Reply checks for the ReTwis benchmark. Every reply the load generator
// receives goes through exactly one of these and lands in a Tally; a
// wrong reply is counted, never fatal, so one run reports how many
// replies of each kind were bad.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/db.h"

namespace lo::lsbench {

enum class Verdict : uint8_t {
  kOk = 0,
  kTimeout,      // no reply before the call deadline
  kBadStatus,    // the server answered with a non-OK status
  kUndecodable,  // payload does not decode as the method's reply
  kWrong,        // decodes, but disagrees with the benchmark's own state
  kStale,        // read-your-writes probe missing an acknowledged post
};
inline constexpr size_t kNumVerdicts = 6;
const char* VerdictName(Verdict verdict);

struct Tally {
  uint64_t attempted = 0;
  uint64_t counts[kNumVerdicts] = {};

  void Add(Verdict verdict) {
    attempted++;
    counts[static_cast<size_t>(verdict)]++;
  }
  uint64_t of(Verdict verdict) const {
    return counts[static_cast<size_t>(verdict)];
  }
  uint64_t failed() const { return attempted - of(Verdict::kOk); }
  void Merge(const Tally& other);
};

/// Verdict for a call that came back with a non-OK status.
Verdict StatusVerdict(const Status& status);

/// Hash the timeline_cold check compares (FNV-1a over the reply bytes).
uint64_t ReplyHash(std::string_view reply);

/// get_timeline reply: must decode with retwis::DecodeTimeline and hold
/// at most `limit` posts; with `expected_hash` (read-only workloads) its
/// bytes must also hash to the seeded state's reply.
Verdict CheckTimeline(const Result<std::string>& reply, uint64_t limit,
                      const uint64_t* expected_hash);

/// create_post / follow reply: an 8-byte little-endian follower count
/// within [lo, hi] (the range concurrent follows allow).
Verdict CheckCount(const Result<std::string>& reply, uint64_t lo, uint64_t hi);

/// Read-your-writes probe: a valid timeline (as CheckTimeline) that must
/// contain a post whose message is `message`; without it, kStale.
Verdict CheckProbe(const Result<std::string>& reply, uint64_t limit,
                   std::string_view message);

/// The get_timeline(limit) reply the User type returns for `oid` on the
/// state stored in `db` (the benchmark's own seeded copy).
Result<std::string> ExpectedTimeline(storage::DB* db, const std::string& oid,
                                     uint64_t limit);

}  // namespace lo::lsbench
