// Tests of the benchmark's own logic: the reply checker, seeded images,
// the exact percentile code and span self-time accounting.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "checker.h"
#include "model.h"
#include "retwis/retwis.h"
#include "retwis/workload.h"
#include "runtime/executor.h"
#include "stats.h"
#include "storage/db.h"
#include "storage/env.h"
#include "traced.h"

namespace lo::lsbench {
namespace {

std::string TimelineOf(const std::vector<retwis::Post>& posts) {
  std::string out;
  for (const auto& post : posts) {
    std::string blob = post.Encode();
    out.push_back(static_cast<char>(blob.size() & 0xff));
    out.push_back(static_cast<char>(blob.size() >> 8));
    out += blob;
  }
  return out;
}

retwis::Post MakePost(const std::string& message) {
  retwis::Post post;
  post.author = "account-7";
  post.time_ms = 42;
  post.message = message;
  return post;
}

Result<std::string> Reply(std::string payload) { return payload; }

// ------------------------------------------------------------ checker

TEST(Checker, CorruptPayloadIsAFailure) {
  std::string good = TimelineOf({MakePost("hello")});
  std::string torn = good.substr(0, good.size() - 3);
  Tally tally;
  tally.Add(CheckTimeline(Reply(torn), kTimelineLimit, nullptr));
  tally.Add(CheckProbe(Reply(torn), kTimelineLimit, "hello"));
  tally.Add(CheckCount(Reply("\x01\x02"), 0, 10));
  EXPECT_EQ(tally.attempted, 3u);
  EXPECT_EQ(tally.failed(), 3u);
  EXPECT_EQ(tally.of(Verdict::kUndecodable), 3u);
}

TEST(Checker, WrongTimelineIsAFailure) {
  std::string seeded = TimelineOf({MakePost("seed-post-1"), MakePost("seed-post-0")});
  std::string other = TimelineOf({MakePost("seed-post-1"), MakePost("tampered")});
  uint64_t expected = ReplyHash(seeded);
  EXPECT_EQ(CheckTimeline(Reply(seeded), kTimelineLimit, &expected), Verdict::kOk);
  EXPECT_EQ(CheckTimeline(Reply(other), kTimelineLimit, &expected), Verdict::kWrong);
  // Without a seeded hash a well-formed timeline passes...
  EXPECT_EQ(CheckTimeline(Reply(other), kTimelineLimit, nullptr), Verdict::kOk);
  // ...unless it holds more posts than the limit asked for.
  std::vector<retwis::Post> eleven(11, MakePost("x"));
  EXPECT_EQ(CheckTimeline(Reply(TimelineOf(eleven)), kTimelineLimit, nullptr),
            Verdict::kWrong);
}

TEST(Checker, ProbeMissingItsPostIsStale) {
  std::string without = TimelineOf({MakePost("older"), MakePost("oldest")});
  std::string with = TimelineOf({MakePost("post-123xx"), MakePost("older")});
  Tally tally;
  tally.Add(CheckProbe(Reply(without), kTimelineLimit, "post-123xx"));
  tally.Add(CheckProbe(Reply(with), kTimelineLimit, "post-123xx"));
  EXPECT_EQ(tally.of(Verdict::kStale), 1u);
  EXPECT_EQ(tally.of(Verdict::kOk), 1u);
  EXPECT_EQ(tally.failed(), 1u);
}

TEST(Checker, StatusesAndCounts) {
  EXPECT_EQ(CheckTimeline(Status::Timeout("late"), kTimelineLimit, nullptr),
            Verdict::kTimeout);
  EXPECT_EQ(CheckCount(Status::NotFound("no object"), 0, 1), Verdict::kBadStatus);
  EXPECT_EQ(CheckCount(Reply(retwis::EncodeU64(17)), 17, 17), Verdict::kOk);
  EXPECT_EQ(CheckCount(Reply(retwis::EncodeU64(16)), 17, 19), Verdict::kWrong);
  EXPECT_EQ(CheckCount(Reply(retwis::EncodeU64(20)), 17, 19), Verdict::kWrong);
}

// The checker's expected timeline must be byte-identical to what the
// User type's get_timeline (LambdaVM bytecode) returns on the same DB.
TEST(Checker, ExpectedTimelineMatchesTheVmMethod) {
  storage::MemEnv env;
  storage::Options options;
  options.env = &env;
  options.serialize_access = true;
  auto db = storage::DB::Open(options, "/db");
  ASSERT_TRUE(db.ok());
  retwis::WorkloadConfig config;
  config.num_users = 20;
  config.seed = 9;
  retwis::Workload workload(config);
  ASSERT_TRUE(workload.SeedDb(db->get()).ok());

  runtime::TypeRegistry types;
  ASSERT_TRUE(retwis::RegisterUserType(&types, /*use_vm=*/true).ok());
  runtime::ParallelNode node(db->get(), &types);
  for (uint64_t user : {0u, 7u, 19u}) {
    std::string oid = workload.UserId(user);
    auto expected = ExpectedTimeline(db->get(), oid, kTimelineLimit);
    ASSERT_TRUE(expected.ok());
    uint64_t hash = ReplyHash(*expected);
    auto reply = node.Invoke(oid, "get_timeline",
                             retwis::EncodeU64(kTimelineLimit)).get();
    EXPECT_EQ(CheckTimeline(reply, kTimelineLimit, &hash), Verdict::kOk) << oid;
    auto posts = retwis::DecodeTimeline(*reply);
    ASSERT_TRUE(posts.ok());
    EXPECT_EQ(posts->size(), kTimelineLimit);
  }
}

// ---------------------------------------------------------------- model

// Each image holds one half of the Model and leaves the other empty; both
// must survive model.bin's write and read.
TEST(Model, ImageRoundTripsEitherHalf) {
  std::string data_dir = ::testing::TempDir() + "lsbench_model_test";
  std::filesystem::remove_all(data_dir);
  retwis::WorkloadConfig config;
  config.num_users = 20;
  config.seed = 9;
  for (bool read_only : {true, false}) {
    double built_s = -1;
    auto image = EnsureImage(data_dir, config, read_only, 2, &built_s);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    EXPECT_GT(built_s, 0);
    auto model = LoadModel(*image);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_EQ(model->users, config.num_users);
    EXPECT_EQ(model->timeline_hash.size(), read_only ? config.num_users : 0);
    EXPECT_EQ(model->followers.size(), read_only ? 0 : config.num_users);
  }
  std::filesystem::remove_all(data_dir);
}

// ---------------------------------------------------------- percentiles

TEST(Stats, ExactOrderStatistics) {
  std::vector<double> samples(1000);
  std::iota(samples.begin(), samples.end(), 1.0);  // 1..1000
  std::vector<double> shuffled(samples.rbegin(), samples.rend());
  Quantile p50 = ExactQuantile(shuffled, 0.50);
  Quantile p99 = ExactQuantile(shuffled, 0.99);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p99.value, 990);
  EXPECT_TRUE(p99.exact_q);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(p99.n, 1000u);
  EXPECT_EQ(p99.Label(), "p99");
  EXPECT_EQ(ExactQuantile(shuffled, 1.0).value, 990);  // still 10 beyond
}

TEST(Stats, TooFewSamplesFallBackToTheHighestSupportedPercentile) {
  std::vector<double> samples(100);
  std::iota(samples.begin(), samples.end(), 1.0);
  Quantile p99 = ExactQuantile(samples, 0.99);
  EXPECT_FALSE(p99.exact_q);
  EXPECT_EQ(p99.value, 90);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(p99.Label(), "p90");

  std::vector<double> few = {5, 1, 4, 2, 3};
  Quantile tiny = ExactQuantile(few, 0.99);
  EXPECT_FALSE(tiny.exact_q);
  EXPECT_EQ(tiny.value, 3);  // median: nothing supports a tail percentile
  EXPECT_EQ(ExactQuantile({}, 0.5).n, 0u);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, NoBucketing) {
  // Values a 16-sub-bucket histogram would merge stay distinct.
  std::vector<double> samples;
  for (int i = 0; i < 2000; i++) samples.push_back(1000.0 + i * 0.01);
  EXPECT_DOUBLE_EQ(ExactQuantile(samples, 0.50).value, 1000.0 + 999 * 0.01);
}

// ------------------------------------------------------------ self time

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  auto span = [](uint64_t id, uint64_t parent, int64_t start, int64_t end) {
    obs::SpanRecord s;
    s.trace_id = 1;
    s.span_id = id;
    s.parent_span_id = parent;
    s.name = "x";
    s.start_ns = start;
    s.end_ns = end;
    return s;
  };
  // Root [0,100) with overlapping children [10,40) and [30,50) and a
  // child [90,120) that overruns the root.
  std::vector<obs::SpanRecord> spans = {span(1, 0, 0, 100), span(2, 1, 10, 40),
                                        span(3, 1, 30, 50), span(4, 1, 90, 120)};
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[3], 30);
}

}  // namespace
}  // namespace lo::lsbench
