#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/memory_cloud.h"
#include "common/executor.h"
#include "common/rng.h"
#include "obs/obs.h"
#include "sched/download_scheduler.h"
#include "sched/monitor.h"
#include "sched/plan.h"
#include "sched/rebalance.h"
#include "sched/streaming_driver.h"
#include "sched/upload_scheduler.h"
#include "test_seed.h"
#include "transfer_test_util.h"

UNIDRIVE_REGISTER_SEED_LISTENER()

namespace unidrive::sched {
namespace {

using unidrive::testing::test_seed;

CodeParams paper_params() {
  CodeParams p;  // defaults: N=5, k=3, Ks=2, Kr=3
  return p;
}

std::vector<cloud::CloudId> five_clouds() { return {0, 1, 2, 3, 4}; }

// --- CodeParams ----------------------------------------------------------------

TEST(CodeParamsTest, PaperDefaults) {
  const CodeParams p = paper_params();
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_EQ(p.fair_share(), 1u);       // ceil(3/3)
  EXPECT_EQ(p.max_per_cloud(), 2u);    // ceil(3/1) - 1
  EXPECT_EQ(p.normal_blocks(), 5u);    // 1 * 5
  EXPECT_EQ(p.code_n(), 10u);          // ceil(3/2) * 5
  EXPECT_EQ(p.max_total_blocks(), 10u);
}

TEST(CodeParamsTest, NoSecurityRequirement) {
  CodeParams p;
  p.ks = 1;
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_EQ(p.max_per_cloud(), p.k);  // a single cloud may hold everything
}

TEST(CodeParamsTest, RejectsBadOrdering) {
  CodeParams p;
  p.ks = 4;
  p.kr = 3;  // Ks > Kr
  EXPECT_FALSE(p.validate().is_ok());
  p.ks = 2;
  p.kr = 6;  // Kr > N
  EXPECT_FALSE(p.validate().is_ok());
}

TEST(CodeParamsTest, RejectsInfeasibleSecurity) {
  CodeParams p;
  p.k = 2;
  p.ks = 3;
  p.kr = 3;
  // max_per_cloud = ceil(2/2)-1 = 0 < fair_share -> infeasible.
  EXPECT_FALSE(p.validate().is_ok());
}

TEST(CodeParamsTest, StorageEfficiencyPaperExample) {
  // Paper Section 1: N=3 vendors, tolerate one down (Kr=2): 3x100 GB raw
  // gives 200 GB of data -> efficiency 2/3; replication gives only 150 GB.
  CodeParams p;
  p.num_clouds = 3;
  p.k = 2;
  p.ks = 1;
  p.kr = 2;
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_DOUBLE_EQ(p.storage_efficiency(), 2.0 / 3.0);
  // Replication-based: one full copy must survive any single outage ->
  // every byte stored twice -> 1/2 efficiency. UniDrive wins.
  EXPECT_GT(p.storage_efficiency(), 0.5);
}

// --- ThroughputMonitor -----------------------------------------------------------

TEST(MonitorTest, DefaultEstimateForUnknownClouds) {
  ThroughputMonitor m(1000.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 1000.0);
}

TEST(MonitorTest, RecordsAndRanks) {
  ThroughputMonitor m;
  m.record(0, Direction::kUpload, 1 << 20, 1.0);   // 1 MiB/s
  m.record(1, Direction::kUpload, 8 << 20, 1.0);   // 8 MiB/s
  m.record(2, Direction::kUpload, 4 << 20, 1.0);   // 4 MiB/s
  const auto ranked = m.ranked(Direction::kUpload, {0, 1, 2});
  EXPECT_EQ(ranked, (std::vector<cloud::CloudId>{1, 2, 0}));
}

TEST(MonitorTest, EwmaAdaptsToChange) {
  ThroughputMonitor m;
  for (int i = 0; i < 20; ++i) m.record(0, Direction::kUpload, 1000, 1.0);
  const double before = m.estimate(0, Direction::kUpload);
  for (int i = 0; i < 20; ++i) m.record(0, Direction::kUpload, 100000, 1.0);
  const double after = m.estimate(0, Direction::kUpload);
  EXPECT_GT(after, before * 10);
}

TEST(MonitorTest, DirectionsIndependent) {
  ThroughputMonitor m(500.0);
  m.record(0, Direction::kUpload, 1 << 20, 1.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kDownload), 500.0);
}

TEST(MonitorTest, IgnoresDegenerateSamples) {
  ThroughputMonitor m(500.0);
  m.record(0, Direction::kUpload, 0, 1.0);
  m.record(0, Direction::kUpload, 100, 0.0);
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 500.0);
}

TEST(MonitorTest, UnknownCloudsRankBelowMeasuredOnes) {
  // Critical for hedging: a cloud with NO samples must never outrank a
  // measured one — otherwise stragglers on unmeasured clouds look "fast"
  // and are never hedged (the default estimate is 0 for exactly this).
  ThroughputMonitor m;
  m.record(1, Direction::kDownload, 1000, 1.0);   // slow but measured
  const auto ranked = m.ranked(Direction::kDownload, {0, 1, 2});
  EXPECT_EQ(ranked.front(), 1u);
}

TEST(MonitorTest, ResetForgetsEverything) {
  ThroughputMonitor m(42.0);
  m.record(0, Direction::kUpload, 1e6, 1.0);
  m.reset();
  EXPECT_DOUBLE_EQ(m.estimate(0, Direction::kUpload), 42.0);
}

// --- UploadScheduler --------------------------------------------------------------

UploadFileSpec one_file(const std::string& name, std::uint64_t size = 3000) {
  UploadFileSpec f;
  f.path = "/" + name;
  f.segments.push_back({name + "_seg", size});
  return f;
}

// Drain the scheduler sequentially, simulating instant completions.
// Returns per-cloud block counts for the single segment.
std::map<cloud::CloudId, int> drain_round_robin(UploadScheduler& s) {
  std::map<cloud::CloudId, int> counts;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c);
      if (task.has_value()) {
        s.on_complete(*task, true);
        ++counts[c];
        progress = true;
      }
    }
  }
  return counts;
}

TEST(UploadSchedulerTest, EvenAssignmentWithoutStragglers) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  const auto counts = drain_round_robin(s);
  // All clouds equally fast -> exactly the fair share each, no over-prov.
  for (const cloud::CloudId c : five_clouds()) {
    EXPECT_EQ(counts.at(c), 1) << "cloud " << c;
  }
  EXPECT_TRUE(s.all_available());
  EXPECT_TRUE(s.all_reliable());
  EXPECT_TRUE(s.finished());
}

TEST(UploadSchedulerTest, SecurityCapNeverViolated) {
  // Simulate two dead-slow clouds: they never complete. Fast clouds must
  // over-provision but never exceed max_per_cloud blocks.
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  std::map<cloud::CloudId, int> counts;
  // Clouds 3 and 4 accept tasks but never finish.
  std::vector<BlockTask> stuck;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c);
      if (!task.has_value()) continue;
      progress = true;
      if (c >= 3) {
        stuck.push_back(*task);
      } else {
        s.on_complete(*task, true);
        ++counts[c];
      }
    }
  }
  for (const auto& [c, n] : counts) {
    EXPECT_LE(n, static_cast<int>(paper_params().max_per_cloud()));
  }
  // Availability reached via the three fast clouds (3 fast clouds x up to
  // 2 blocks each >= k = 3).
  EXPECT_TRUE(s.all_available());
}

TEST(UploadSchedulerTest, OverProvisioningKicksInForSlowClouds) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  // Cloud 0 is fast and polls repeatedly; others are asleep.
  int cloud0_blocks = 0;
  while (true) {
    auto task = s.next_task(0);
    if (!task.has_value()) break;
    s.on_complete(*task, true);
    ++cloud0_blocks;
  }
  // Fair share is 1, but cloud 0 may take up to the security cap (2).
  EXPECT_EQ(cloud0_blocks, 2);
  EXPECT_FALSE(s.all_available());  // 2 < k = 3 distinct blocks so far
  const auto ov = s.overprovisioned_blocks();
  EXPECT_EQ(ov.size(), 1u);  // the second block is surplus
}

TEST(UploadSchedulerTest, AvailabilityFirstOrdering) {
  // Two files; all clouds work on file 0 until it is available.
  UploadScheduler s(paper_params(), five_clouds(),
                    {one_file("a"), one_file("b")});
  // First three completions should all belong to file 0.
  for (int i = 0; i < 3; ++i) {
    auto task = s.next_task(static_cast<cloud::CloudId>(i));
    ASSERT_TRUE(task.has_value());
    EXPECT_EQ(task->file_index, 0u);
    s.on_complete(*task, true);
  }
  EXPECT_TRUE(s.file_available(0));
  // Next tasks switch to file 1 even though file 0 is not yet reliable.
  auto task = s.next_task(3);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->file_index, 1u);
  s.on_complete(*task, true);
}

TEST(UploadSchedulerTest, ReliabilityPhaseFillsFairShares) {
  UploadScheduler s(paper_params(), five_clouds(),
                    {one_file("a"), one_file("b")});
  drain_round_robin(s);
  EXPECT_TRUE(s.all_reliable());
  // Each segment must have >= fair_share blocks on every cloud.
  for (const std::string seg : {"a_seg", "b_seg"}) {
    std::map<cloud::CloudId, int> per_cloud;
    for (const auto& loc : s.locations(seg)) ++per_cloud[loc.cloud];
    for (const cloud::CloudId c : five_clouds()) {
      EXPECT_GE(per_cloud[c], 1) << seg << " cloud " << c;
    }
  }
}

TEST(UploadSchedulerTest, FailedUploadRetried) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  auto task = s.next_task(0);
  ASSERT_TRUE(task.has_value());
  s.on_complete(*task, false);  // fail once
  auto retry = s.next_task(0);
  ASSERT_TRUE(retry.has_value());
  EXPECT_EQ(retry->block_index, task->block_index);  // same home block
  s.on_complete(*retry, true);
}

TEST(UploadSchedulerTest, DisabledCloudGetsNoTasks) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  s.set_cloud_enabled(2, false);
  EXPECT_FALSE(s.next_task(2).has_value());
}

TEST(UploadSchedulerTest, DisabledCloudBlocksRehomed) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  s.set_cloud_enabled(2, false);
  const auto counts = drain_round_robin(s);
  EXPECT_EQ(counts.count(2), 0u);
  EXPECT_TRUE(s.all_available());
  // Reliability is evaluated against *enabled* clouds only.
  EXPECT_TRUE(s.all_reliable());
  std::size_t total = 0;
  for (const auto& [c, n] : counts) total += n;
  EXPECT_GE(total, paper_params().k);
}

TEST(UploadSchedulerTest, BlockBytesComputedFromSegmentSize) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a", 3001)});
  auto task = s.next_task(0);
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->bytes, 1001u);  // ceil(3001 / 3)
}

TEST(UploadSchedulerTest, LocationsReflectCompletedOnly) {
  UploadScheduler s(paper_params(), five_clouds(), {one_file("a")});
  auto t0 = s.next_task(0);
  ASSERT_TRUE(t0.has_value());
  EXPECT_TRUE(s.locations("a_seg").empty());  // in flight, not done
  s.on_complete(*t0, true);
  EXPECT_EQ(s.locations("a_seg").size(), 1u);
}

TEST(UploadSchedulerTest, MultiSegmentFile) {
  UploadFileSpec f;
  f.path = "/big";
  f.segments.push_back({"seg1", 3000});
  f.segments.push_back({"seg2", 3000});
  UploadScheduler s(paper_params(), five_clouds(), {f});
  drain_round_robin(s);
  EXPECT_TRUE(s.all_reliable());
  EXPECT_EQ(s.locations("seg1").size(), 5u);
  EXPECT_EQ(s.locations("seg2").size(), 5u);
}

// --- DownloadScheduler -------------------------------------------------------------

DownloadFileSpec downloadable_file(const std::string& name,
                                   std::size_t blocks_per_cloud = 1) {
  DownloadFileSpec f;
  f.path = "/" + name;
  DownloadSegmentSpec seg;
  seg.id = name + "_seg";
  seg.size = 3000;
  std::uint32_t index = 0;
  for (cloud::CloudId c = 0; c < 5; ++c) {
    for (std::size_t b = 0; b < blocks_per_cloud; ++b) {
      seg.locations.push_back({index++, c});
    }
  }
  f.segments.push_back(seg);
  return f;
}

TEST(DownloadSchedulerTest, FetchesExactlyKBlocks) {
  DownloadScheduler s(3, {downloadable_file("a")});
  std::size_t fetched = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (const cloud::CloudId c : five_clouds()) {
      auto task = s.next_task(c);
      if (task.has_value()) {
        s.on_complete(*task, true);
        ++fetched;
        progress = true;
      }
    }
  }
  EXPECT_EQ(fetched, 3u);
  EXPECT_TRUE(s.all_complete());
  EXPECT_TRUE(s.finished());
}

TEST(DownloadSchedulerTest, NeverOverRequests) {
  DownloadScheduler s(3, {downloadable_file("a")});
  // Grab 3 tasks without completing them; a 4th must not be issued.
  std::vector<BlockTask> tasks;
  for (const cloud::CloudId c : five_clouds()) {
    auto task = s.next_task(c);
    if (task.has_value()) tasks.push_back(*task);
  }
  EXPECT_EQ(tasks.size(), 3u);
}

TEST(DownloadSchedulerTest, FailedFetchRetriedThenExhausted) {
  DownloadScheduler s(3, {downloadable_file("a")});
  // Transient failures: the same (block, cloud) source is retried a few
  // times before the scheduler stops considering it.
  for (int attempt = 0; attempt < 3; ++attempt) {
    auto t = s.next_task(0);
    ASSERT_TRUE(t.has_value()) << "attempt " << attempt;
    s.on_complete(*t, false);
  }
  // Source exhausted now; cloud 0 has no other block (1 per cloud).
  EXPECT_FALSE(s.next_task(0).has_value());
  // Other clouds can still complete the job.
  std::size_t fetched = 0;
  for (const cloud::CloudId c : {1, 2, 3, 4}) {
    auto task = s.next_task(c);
    if (task.has_value()) {
      s.on_complete(*task, true);
      ++fetched;
    }
  }
  EXPECT_GE(fetched, 3u);
  EXPECT_TRUE(s.all_complete());
}

TEST(DownloadSchedulerTest, FastCloudWithExtraBlocksServesMore) {
  // Over-provisioned layout: cloud 0 holds 2 blocks, others 1 each.
  DownloadFileSpec f;
  f.path = "/a";
  DownloadSegmentSpec seg;
  seg.id = "s";
  seg.size = 3000;
  seg.locations = {{0, 0}, {5, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  f.segments.push_back(seg);
  DownloadScheduler s(3, {f});
  // Fast cloud 0 polls first (driver polls fastest first): gets both blocks.
  auto a = s.next_task(0);
  auto b = s.next_task(0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  s.on_complete(*a, true);
  s.on_complete(*b, true);
  // One more block from any other cloud completes the segment.
  auto c = s.next_task(3);
  ASSERT_TRUE(c.has_value());
  s.on_complete(*c, true);
  EXPECT_TRUE(s.all_complete());
}

TEST(DownloadSchedulerTest, StuckWhenTooFewBlocksReachable) {
  DownloadFileSpec f = downloadable_file("a");
  DownloadScheduler s(3, {f});
  // Disable 3 of 5 clouds: only 2 distinct blocks reachable < k=3.
  s.set_cloud_enabled(0, false);
  s.set_cloud_enabled(1, false);
  s.set_cloud_enabled(2, false);
  for (const cloud::CloudId c : {3, 4}) {
    auto task = s.next_task(c);
    if (task.has_value()) s.on_complete(*task, true);
  }
  EXPECT_FALSE(s.all_complete());
  EXPECT_TRUE(s.finished());  // stuck, nothing in flight
  EXPECT_TRUE(s.file_failed(0));
}

TEST(DownloadSchedulerTest, FilesCompleteInOrder) {
  DownloadScheduler s(3, {downloadable_file("a"), downloadable_file("b")});
  // File 0 saturates first (k = 3 requests); only then do the remaining
  // idle connections spill over to file 1 — availability-first: later files
  // never steal capacity that file 0 could still use.
  std::vector<BlockTask> tasks;
  for (const cloud::CloudId c : five_clouds()) {
    auto task = s.next_task(c);
    if (task.has_value()) tasks.push_back(*task);
  }
  ASSERT_EQ(tasks.size(), 5u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(tasks[i].file_index, 0u);
  for (std::size_t i = 3; i < 5; ++i) EXPECT_EQ(tasks[i].file_index, 1u);
}

TEST(DownloadSchedulerTest, FetchedBlocksReported) {
  DownloadScheduler s(3, {downloadable_file("a")});
  auto t = s.next_task(1);
  ASSERT_TRUE(t.has_value());
  s.on_complete(*t, true);
  const auto blocks = s.fetched_blocks("a_seg");
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], t->block_index);
}

// --- Streaming drivers ------------------------------------------------------------

TEST(StreamingDriverTest, CompletesUploadJob) {
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  std::atomic<int> transfers{0};
  StreamingUploadDriver driver(
      paper_params(), five_clouds(), DriverConfig{2, 3}, monitor, executor,
      testing::complete_on(*executor, [&](const BlockTask&) {
        ++transfers;
        return Status::ok();
      }));
  for (const char* name : {"a", "b", "c"}) driver.add_file(one_file(name));
  driver.close();
  driver.wait();

  // Reliable: with every cloud healthy, each one ends up holding its fair
  // share of every segment.
  for (const char* name : {"a", "b", "c"}) {
    std::map<cloud::CloudId, std::size_t> per_cloud;
    for (const auto& b : driver.locations(std::string(name) + "_seg")) {
      ++per_cloud[b.cloud];
    }
    for (const cloud::CloudId c : five_clouds()) {
      EXPECT_GE(per_cloud[c], paper_params().fair_share()) << name << c;
    }
  }
  EXPECT_GE(transfers.load(), 15);  // 3 files x 5 normal blocks
}

TEST(StreamingDriverTest, ToleratesFailuresAndStillCompletes) {
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  Rng rng(3);
  std::mutex rng_mutex;
  StreamingUploadDriver driver(
      paper_params(), five_clouds(), DriverConfig{}, monitor, executor,
      testing::complete_on(*executor, [&](const BlockTask&) -> Status {
        std::lock_guard<std::mutex> g(rng_mutex);
        if (rng.bernoulli(0.3)) {
          return make_error(ErrorCode::kUnavailable, "flaky");
        }
        return Status::ok();
      }));
  driver.add_file(one_file("a"));
  driver.close();
  driver.wait();

  // Available: at least k distinct blocks landed despite 30% failures.
  std::set<std::uint32_t> distinct;
  for (const auto& b : driver.locations("a_seg")) {
    distinct.insert(b.block_index);
  }
  EXPECT_GE(distinct.size(), paper_params().k);
}

TEST(StreamingDriverTest, RecordsThroughputSamples) {
  ThroughputMonitor monitor(123.0);
  auto executor = std::make_shared<Executor>(4);
  StreamingUploadDriver driver(
      paper_params(), five_clouds(), DriverConfig{}, monitor, executor,
      testing::complete_on(*executor,
                           [](const BlockTask&) { return Status::ok(); }));
  driver.add_file(one_file("a"));
  driver.close();
  driver.wait();
  // At least one cloud's estimate moved off the default.
  bool moved = false;
  for (const cloud::CloudId c : five_clouds()) {
    if (monitor.estimate(c, Direction::kUpload) != 123.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(StreamingDriverTest, DownloadJobCompletes) {
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(4);
  std::mutex fetched_mutex;
  std::map<std::string, int> fetched;
  std::atomic<int> transfers{0};
  StreamingDownloadDriver driver(
      3, five_clouds(), DriverConfig{}, monitor, executor,
      testing::complete_on(*executor,
                           [&](const BlockTask&) {
                             ++transfers;
                             return Status::ok();
                           }),
      nullptr, nullptr, [&](const std::string& id, bool ok) {
        std::lock_guard<std::mutex> g(fetched_mutex);
        fetched[id] += ok ? 1 : -1;
      });
  driver.add_file(downloadable_file("a"));
  driver.add_file(downloadable_file("b"));
  driver.close();
  driver.wait();

  // Each segment is reported fetched exactly once, after its k blocks.
  EXPECT_EQ(fetched, (std::map<std::string, int>{{"a_seg", 1}, {"b_seg", 1}}));
  EXPECT_GE(transfers.load(), 6);  // 2 segments x k = 3 blocks
  EXPECT_FALSE(driver.cancelled());
}

// Waits for `driver` to drain; on timeout cancels it (which unblocks
// wait()) so a regression fails the test instead of hanging it.
template <typename Driver>
bool drains(Driver& driver) {
  auto done = std::async(std::launch::async, [&] { driver.wait(); });
  if (done.wait_for(std::chrono::seconds(10)) == std::future_status::ready) {
    return true;
  }
  driver.cancel();
  return false;
}

// A zero connection budget used to leave both drivers with no free
// connection, so nothing ever launched and wait() blocked forever. The
// budget is clamped to one connection per cloud.
TEST(StreamingDriverTest, ZeroConnectionBudgetStillDrains) {
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(2);
  const AsyncTransferFn ok = testing::complete_on(
      *executor, [](const BlockTask&) { return Status::ok(); });

  StreamingUploadDriver up(paper_params(), five_clouds(), DriverConfig{0, 3},
                           monitor, executor, ok);
  up.add_file(one_file("a"));
  up.close();
  ASSERT_TRUE(drains(up));
  std::set<std::uint32_t> distinct;
  for (const auto& b : up.locations("a_seg")) distinct.insert(b.block_index);
  EXPECT_GE(distinct.size(), paper_params().k);

  std::atomic<int> fetched{0};
  StreamingDownloadDriver down(
      3, five_clouds(), DriverConfig{0, 3}, monitor, executor, ok, nullptr,
      nullptr, [&](const std::string&, bool success) {
        if (success) ++fetched;
      });
  down.add_file(downloadable_file("a"));
  down.close();
  ASSERT_TRUE(drains(down));
  EXPECT_EQ(fetched.load(), 1);
}

// --- Event-driven settle/decide --------------------------------------------------
//
// The drivers re-check only the segment an event touched, and sweep every
// pending segment only when a cloud is disabled or re-admitted (and on a
// download cancel). The references below are the full-sweep drivers: the
// same pump and cloud-health rules over their own scheduler, sweeping
// every pending segment at every event (the upload one before its pump,
// the download one after it, like the drivers). Run in lockstep with a
// driver whose completions the test fires by hand, they must launch the
// same tasks and fire the same callbacks, in the same order, at the same
// events.

// Launches recorded in order; the test completes them one at a time, from
// its own thread (never on the launching stack).
struct ManualTransfers {
  std::mutex mu;
  std::vector<std::pair<BlockTask, TransferDoneFn>> open;
  std::vector<BlockTask> launched;  // since the last take_launched()

  AsyncTransferFn fn() {
    return [this](const BlockTask& task, TransferDoneFn done) {
      std::lock_guard<std::mutex> g(mu);
      open.emplace_back(task, std::move(done));
      launched.push_back(task);
      return cloud::AsyncHandle{};
    };
  }
  std::vector<BlockTask> take_launched() {
    std::lock_guard<std::mutex> g(mu);
    return std::exchange(launched, {});
  }
  std::size_t open_on(cloud::CloudId c) {
    std::lock_guard<std::mutex> g(mu);
    return static_cast<std::size_t>(
        std::count_if(open.begin(), open.end(),
                      [&](const auto& o) { return o.first.cloud == c; }));
  }
  // Removes the i-th open transfer (or the first one on `only`, when set).
  std::pair<BlockTask, TransferDoneFn> take(std::size_t i,
                                            std::optional<cloud::CloudId>
                                                only = std::nullopt) {
    std::lock_guard<std::mutex> g(mu);
    auto it = open.begin() + static_cast<std::ptrdiff_t>(i % open.size());
    if (only.has_value()) {
      it = std::find_if(open.begin(), open.end(),
                        [&](const auto& o) { return o.first.cloud == *only; });
    }
    auto out = std::move(*it);
    open.erase(it);
    return out;
  }
};

// Shared pump bookkeeping and cloud-health rules of both references.
struct ReferenceBase {
  std::vector<cloud::CloudId> clouds;
  DriverConfig config;
  std::map<cloud::CloudId, std::size_t> free;
  std::map<cloud::CloudId, int> failures;
  std::set<cloud::CloudId> disabled;
  bool cancelled = false;
  std::vector<BlockTask> launched;

  ReferenceBase(std::vector<cloud::CloudId> c, DriverConfig cfg)
      : clouds(std::move(c)), config(cfg) {
    for (const cloud::CloudId id : clouds) {
      free[id] = config.connections_per_cloud;
    }
  }
  template <typename Sched>
  void health(Sched& sched, cloud::CloudId c, bool ok) {
    if (ok) {
      failures[c] = 0;
      if (disabled.erase(c) != 0) sched.set_cloud_enabled(c, true);
    } else if (++failures[c] >= config.max_consecutive_failures &&
               disabled.insert(c).second) {
      sched.set_cloud_enabled(c, false);
    }
    ++free[c];
  }
  template <typename NextFn>
  void fill(NextFn next) {
    for (const cloud::CloudId c : clouds) {
      while (free[c] > 0) {
        const std::optional<BlockTask> task = next(c);
        if (!task.has_value()) break;
        --free[c];
        launched.push_back(*task);
      }
    }
  }
};

struct UploadReference : ReferenceBase {
  UploadScheduler sched;
  std::set<std::string> unsettled;
  std::vector<std::string> settled;

  UploadReference(std::vector<cloud::CloudId> c, DriverConfig cfg)
      : ReferenceBase(c, cfg), sched(paper_params(), c, {}) {}

  void pump() {
    if (cancelled || sched.finished()) return;
    fill([&](cloud::CloudId c) { return sched.next_task(c); });
  }
  void sweep() {
    for (auto it = unsettled.begin(); it != unsettled.end();) {
      if (!sched.segment_settled(*it)) {
        ++it;
        continue;
      }
      sched.abandon_segment(*it);
      settled.push_back(*it);
      it = unsettled.erase(it);
    }
  }
  void add_file(const UploadFileSpec& f) {
    for (const auto& seg : f.segments) unsettled.insert(seg.id);
    sched.add_file(f);
    sweep();
    pump();
  }
  void complete(const BlockTask& task, bool ok) {
    sched.on_complete(task, ok);
    health(sched, task.cloud, ok);
    sweep();
    pump();
  }
};

struct DownloadReference : ReferenceBase {
  DownloadScheduler sched{3, {}};
  ThroughputMonitor& monitor;
  std::set<std::string> pending;
  std::vector<std::pair<std::string, bool>> decided;

  DownloadReference(std::vector<cloud::CloudId> c, DriverConfig cfg,
                    ThroughputMonitor& m)
      : ReferenceBase(c, cfg), monitor(m) {}

  void pump() {
    if (cancelled || sched.finished()) return;
    fill([&](cloud::CloudId c) { return sched.next_task(c); });
    sched.set_speed_order(monitor.ranked(Direction::kDownload, clouds));
    fill([&](cloud::CloudId c) { return sched.next_hedge_task(c); });
  }
  void sweep() {
    for (auto it = pending.begin(); it != pending.end();) {
      const bool ok = sched.segment_complete(*it);
      if (!ok && !cancelled && !sched.segment_failed(*it)) {
        ++it;
        continue;
      }
      decided.emplace_back(*it, ok);
      it = pending.erase(it);
    }
  }
  void add_file(const DownloadFileSpec& f) {
    for (const auto& seg : f.segments) pending.insert(seg.id);
    sched.add_file(f);
    pump();
    sweep();
  }
  void request_extra_block(const std::string& id) {
    if (cancelled) {
      decided.emplace_back(id, false);
      return;
    }
    sched.raise_budget(id, 1);
    pending.insert(id);
    pump();
    sweep();
  }
  void cancel() {
    cancelled = true;
    sweep();
  }
  void complete(const BlockTask& task, bool ok) {
    sched.on_complete(task, ok);
    health(sched, task.cloud, ok);
    pump();
    sweep();
  }
};

// Files of the random jobs: mostly one segment, sometimes two, and now and
// then a segment id an earlier file already used.
std::vector<std::string> random_segment_ids(Rng& rng, std::size_t file) {
  std::vector<std::string> ids{"f" + std::to_string(file)};
  if (rng.next_below(4) == 0) ids.push_back(ids[0] + "b");
  if (file > 0 && rng.next_below(8) == 0) {
    ids.push_back("f" + std::to_string(rng.next_below(file)));
  }
  return ids;
}

// Completion outcome: mostly success. Two consecutive failures disable a
// cloud (DriverConfig{3, 2}), so random failures disable one now and then;
// and the first time after step 10 that a cloud has three transfers open,
// they fail, fail and succeed: the cloud is disabled, then re-admitted.
class Outcomes {
 public:
  explicit Outcomes(Rng& rng) : rng_(rng) {}

  // Picks the next transfer to complete and whether it succeeds.
  std::pair<std::pair<BlockTask, TransferDoneFn>, bool> next(
      ManualTransfers& transfers, std::size_t step) {
    if (!burst_cloud_.has_value() && step > 10) {
      for (const cloud::CloudId c : five_clouds()) {
        if (transfers.open_on(c) >= 3) {
          burst_cloud_ = c;
          burst_left_ = 3;
          break;
        }
      }
    }
    if (burst_left_ > 0) {
      --burst_left_;
      return {transfers.take(0, burst_cloud_), burst_left_ == 0};
    }
    const bool ok = rng_.next_below(100) >= 10;
    return {transfers.take(rng_.next_below(1u << 30)), ok};
  }

 private:
  Rng& rng_;
  std::optional<cloud::CloudId> burst_cloud_;
  int burst_left_ = 0;
};

Status outcome_status(bool ok) {
  return ok ? Status::ok() : make_error(ErrorCode::kUnavailable, "flaky");
}

class DriverEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DriverEquivalence, UploadSettlesWhereAFullSweepWould) {
  Rng rng(test_seed(GetParam()));
  const bool cancel_midway = GetParam() % 2 == 1;
  const DriverConfig config{3, 2};
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(1);
  auto obs = std::make_shared<obs::Observability>();
  ManualTransfers transfers;
  std::vector<std::string> settled;
  StreamingUploadDriver driver(
      paper_params(), five_clouds(), config, monitor, executor,
      transfers.fn(), UploadOptions{}, nullptr, obs,
      [&](const std::string& id) { settled.push_back(id); });
  UploadReference ref(five_clouds(), config);
  Outcomes outcomes(rng);

  const std::size_t files = 40;
  std::size_t added = 0;
  std::map<std::string, int> armed;  // callbacks each segment is owed
  for (std::size_t step = 0;; ++step) {
    const bool can_complete = !transfers.open.empty();
    if (added < files && (!can_complete || rng.next_below(3) == 0)) {
      UploadFileSpec f;
      f.path = "/f" + std::to_string(added);
      for (const std::string& id : random_segment_ids(rng, added)) {
        // Re-feed an id only once its earlier admission settled: two live
        // admissions of one id can deadlock the availability phase (the
        // upload pipeline never feeds an id twice).
        if (ref.unsettled.count(id) != 0) continue;
        f.segments.push_back({id, 1000 + rng.next_below(5000)});
        if (!ref.cancelled && ref.unsettled.count(id) == 0) ++armed[id];
      }
      driver.add_file(f);  // ignored once cancelled
      if (!ref.cancelled) ref.add_file(f);
      ++added;
    } else if (can_complete) {
      auto [open, ok] = outcomes.next(transfers, step);
      open.second(outcome_status(ok));
      ref.complete(open.first, ok);
    } else {
      break;
    }
    if (cancel_midway && added == files / 2 && !ref.cancelled) {
      driver.cancel();
      ref.cancelled = true;
    }
    ASSERT_EQ(transfers.take_launched(), std::exchange(ref.launched, {}))
        << "step " << step;
    ASSERT_EQ(settled, ref.settled) << "step " << step;
  }
  driver.close();
  ASSERT_TRUE(drains(driver));

  EXPECT_GE(obs->metrics.counter("driver.cloud_disabled").value(), 1u);
  EXPECT_GE(obs->metrics.counter("driver.cloud_readmitted").value(), 1u);
  // At most one callback per admission; uncancelled, exactly one (a
  // cancelled job leaves still-assignable segments unsettled).
  std::map<std::string, int> fired;
  for (const std::string& id : settled) ++fired[id];
  for (const auto& [id, n] : fired) EXPECT_LE(n, armed[id]) << id;
  if (!cancel_midway) {
    EXPECT_EQ(fired, armed);
  }
}

TEST_P(DriverEquivalence, DownloadDecidesWhereAFullSweepWould) {
  Rng rng(test_seed(GetParam() * 31 + 7));
  const bool cancel_midway = GetParam() % 2 == 1;
  const DriverConfig config{3, 2};
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(1);
  auto obs = std::make_shared<obs::Observability>();
  ManualTransfers transfers;
  std::vector<std::pair<std::string, bool>> decided;
  StreamingDownloadDriver driver(
      3, five_clouds(), config, monitor, executor, transfers.fn(), nullptr,
      obs, [&](const std::string& id, bool ok) { decided.emplace_back(id, ok); });
  DownloadReference ref(five_clouds(), config, monitor);
  Outcomes outcomes(rng);

  const std::size_t files = 40;
  std::size_t added = 0;
  std::map<std::string, int> armed;  // callbacks each segment is owed
  for (std::size_t step = 0;; ++step) {
    const bool can_complete = !transfers.open.empty();
    const std::size_t roll = rng.next_below(12);
    if (added < files && (!can_complete || roll < 4)) {
      DownloadFileSpec f;
      f.path = "/f" + std::to_string(added);
      for (const std::string& id : random_segment_ids(rng, added)) {
        DownloadFileSpec one = downloadable_file(id, 2);
        one.segments[0].id = id;
        f.segments.push_back(one.segments[0]);
        if (!ref.cancelled && ref.pending.count(id) == 0) ++armed[id];
      }
      driver.add_file(f);  // ignored once cancelled
      if (!ref.cancelled) ref.add_file(f);
      ++added;
    } else if (roll == 4 && !decided.empty()) {
      // Corrupt-shard search on an already decided segment.
      const std::string id =
          decided[rng.next_below(decided.size())].first;
      if (ref.pending.count(id) == 0) ++armed[id];
      driver.request_extra_block(id);
      ref.request_extra_block(id);
    } else if (can_complete) {
      auto [open, ok] = outcomes.next(transfers, step);
      open.second(outcome_status(ok));
      ref.complete(open.first, ok);
    } else {
      break;
    }
    if (cancel_midway && added == files * 3 / 4 && !ref.cancelled) {
      driver.cancel();
      ref.cancel();
    }
    ASSERT_EQ(transfers.take_launched(), std::exchange(ref.launched, {}))
        << "step " << step;
    ASSERT_EQ(decided, ref.decided) << "step " << step;
  }
  driver.close();
  ASSERT_TRUE(drains(driver));

  EXPECT_GE(obs->metrics.counter("driver.cloud_disabled").value(), 1u);
  EXPECT_GE(obs->metrics.counter("driver.cloud_readmitted").value(), 1u);
  // Every arming got exactly one callback.
  std::map<std::string, int> fired;
  for (const auto& [id, ok] : decided) ++fired[id];
  EXPECT_EQ(fired, armed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DriverEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// A segment given up (nothing assignable, never available) used to be
// settled only after the pump that followed its last completion; that pump
// still held the availability phase on it, and with nothing left in flight
// the next file never started and wait() blocked forever.
TEST(StreamingDriverTest, GivingUpASegmentDoesNotStallLaterFiles) {
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(1);
  ManualTransfers transfers;
  std::vector<std::string> settled;
  StreamingUploadDriver driver(
      paper_params(), five_clouds(), DriverConfig{1, 1}, monitor, executor,
      transfers.fn(), UploadOptions{}, nullptr, nullptr,
      [&](const std::string& id) { settled.push_back(id); });
  driver.add_file(one_file("a"));  // one homed block on each cloud
  driver.add_file(one_file("b"));  // waits: every connection is busy
  ASSERT_EQ(transfers.take_launched().size(), 5u);
  // Clouds 0-3 fail and are disabled; cloud 4 alone can hold at most
  // max_per_cloud = 2 < k blocks, so "a" can never become available.
  for (const cloud::CloudId c : {0u, 1u, 2u, 3u}) {
    transfers.take(0, c).second(make_error(ErrorCode::kUnavailable, "down"));
  }
  std::set<std::string> served;
  while (!transfers.open.empty()) {
    auto [task, done] = transfers.take(0);
    served.insert(task.segment_id);
    done(Status::ok());
  }
  driver.close();
  ASSERT_TRUE(drains(driver));
  EXPECT_EQ(settled, (std::vector<std::string>{"a_seg", "b_seg"}));
  EXPECT_EQ(served, (std::set<std::string>{"a_seg", "b_seg"}));
}

// Work per event is bounded: 5,000 one-segment files stream through each
// driver, and the settle/decide checks stay within twice the number of
// segments plus completions (a sweep per completion would cost
// segments x completions).
TEST(StreamingDriverTest, SettleAndDecideChecksStayLinear) {
  constexpr std::size_t kFiles = 5000;
  ThroughputMonitor monitor;
  auto executor = std::make_shared<Executor>(2);
  auto obs = std::make_shared<obs::Observability>();
  std::atomic<std::uint64_t> completions{0};
  const AsyncTransferFn ok = testing::complete_on(
      *executor, [&](const BlockTask&) {
        ++completions;
        return Status::ok();
      });

  StreamingUploadDriver up(paper_params(), five_clouds(), DriverConfig{},
                           monitor, executor, ok, UploadOptions{}, nullptr,
                           obs);
  for (std::size_t i = 0; i < kFiles; ++i) {
    up.add_file(one_file("u" + std::to_string(i)));
  }
  up.close();
  ASSERT_TRUE(drains(up));
  const std::uint64_t up_completions = completions.exchange(0);
  const std::uint64_t settle_checks =
      obs->metrics.counter("driver.up.settle_checks").value();
  EXPECT_GE(settle_checks, kFiles);
  EXPECT_LE(settle_checks, 2 * (kFiles + up_completions));

  std::atomic<std::size_t> fetched{0};
  StreamingDownloadDriver down(
      3, five_clouds(), DriverConfig{}, monitor, executor, ok, nullptr, obs,
      [&](const std::string&, bool success) {
        if (success) ++fetched;
      });
  for (std::size_t i = 0; i < kFiles; ++i) {
    down.add_file(downloadable_file("d" + std::to_string(i)));
  }
  down.close();
  ASSERT_TRUE(drains(down));
  EXPECT_EQ(fetched.load(), kFiles);
  const std::uint64_t decide_checks =
      obs->metrics.counter("driver.down.decide_checks").value();
  EXPECT_GE(decide_checks, kFiles);
  EXPECT_LE(decide_checks, 2 * (kFiles + completions.load()));
}

// --- Rebalancer -------------------------------------------------------------------

metadata::SyncFolderImage image_with_segment() {
  metadata::SyncFolderImage image;
  metadata::SegmentInfo seg;
  seg.id = "s1";
  seg.size = 3000;
  seg.blocks = {{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}};
  image.upsert_segment(seg);
  metadata::FileSnapshot snap;
  snap.path = "/f";
  snap.size = 3000;
  snap.segment_ids = {"s1"};
  image.upsert_file(snap);
  return image;
}

TEST(RebalanceTest, RemoveCloudReHomesItsBlocks) {
  auto image = image_with_segment();
  CodeParams params;
  params.num_clouds = 4;  // after removal
  const auto plan = plan_remove_cloud(image, 4, {0, 1, 2, 3}, params);
  // Everything on cloud 4 must be deleted; a replacement must be planned.
  ASSERT_EQ(plan.deletions.size(), 1u);
  EXPECT_EQ(plan.deletions[0].cloud, 4u);
  ASSERT_GE(plan.moves.size(), 1u);
  EXPECT_NE(plan.moves[0].to_cloud, 4u);

  apply_rebalance(image, plan);
  const auto* seg = image.find_segment("s1");
  std::set<std::uint32_t> distinct;
  for (const auto& b : seg->blocks) {
    EXPECT_NE(b.cloud, 4u);
    distinct.insert(b.block_index);
  }
  EXPECT_GE(distinct.size(), params.k);
}

TEST(RebalanceTest, AddCloudGivesFairShare) {
  auto image = image_with_segment();
  CodeParams params;
  params.num_clouds = 6;  // after addition
  const auto plan = plan_add_cloud(image, 5, {0, 1, 2, 3, 4, 5}, params);
  ASSERT_GE(plan.moves.size(), 1u);
  bool new_cloud_served = false;
  for (const auto& m : plan.moves) {
    if (m.to_cloud == 5) new_cloud_served = true;
  }
  EXPECT_TRUE(new_cloud_served);

  apply_rebalance(image, plan);
  const auto* seg = image.find_segment("s1");
  std::map<cloud::CloudId, int> per_cloud;
  std::set<std::uint32_t> distinct;
  for (const auto& b : seg->blocks) {
    ++per_cloud[b.cloud];
    distinct.insert(b.block_index);
    EXPECT_LE(per_cloud[b.cloud], static_cast<int>(params.max_per_cloud()));
  }
  EXPECT_GE(per_cloud[5], static_cast<int>(params.fair_share()));
  EXPECT_GE(distinct.size(), params.k);
}

TEST(RebalanceTest, EmptyImageEmptyPlan) {
  metadata::SyncFolderImage image;
  CodeParams params;
  EXPECT_TRUE(plan_remove_cloud(image, 0, {1, 2, 3, 4}, params).empty());
  EXPECT_TRUE(plan_add_cloud(image, 5, {0, 1, 2, 3, 4, 5}, params).empty());
}

TEST(RebalanceTest, UnreferencedSegmentsIgnored) {
  metadata::SyncFolderImage image;
  metadata::SegmentInfo seg;
  seg.id = "garbage";
  seg.blocks = {{0, 4}};
  image.upsert_segment(seg);  // refcount 0
  CodeParams params;
  params.num_clouds = 4;
  EXPECT_TRUE(plan_remove_cloud(image, 4, {0, 1, 2, 3}, params).empty());
}

}  // namespace
}  // namespace unidrive::sched
