// Unit tests for the unified resilience layer: the retry policy
// (common/retry.h) as the client's cloud stack executes it
// (cloud::guard_clouds seen through the cloud::BlockingCloud facade,
// cloud/async.h), the CloudHealthRegistry circuit breaker (cloud/health.h),
// the one stack shared by the data and control planes, and the torn-upload
// and hang fault injectors in FaultyCloud.
#include <gtest/gtest.h>

#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cloud/async.h"
#include "cloud/faulty_cloud.h"
#include "cloud/health.h"
#include "cloud/memory_cloud.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/client.h"
#include "core/local_fs.h"
#include "metadata/sharded_store.h"

namespace unidrive {
namespace {

Bytes text(const std::string& s) { return Bytes(s.begin(), s.end()); }

// Deterministic retry environment: the retry layer's injected sleep
// advances a manual clock and is recorded, so tests assert on the exact
// backoff schedule. Calls run on the client's cloud stack — guard_clouds()
// over the provider, called through the BlockingCloud facade.
struct TestEnv {
  ManualClock clock;
  // Appended on the executor; read only after the blocking call returned.
  std::vector<Duration> sleeps;
  Executor io{2};
  Rng rng{42};

  cloud::AsyncContext ctx(obs::ObsPtr obs = nullptr) {
    cloud::AsyncContext c;
    c.io = &io;
    c.clock = &clock;
    c.sleep = [this](Duration d) {
      sleeps.push_back(d);
      clock.advance(d);
    };
    c.obs = std::move(obs);
    return c;
  }

  cloud::BlockingCloud guard(
      const cloud::CloudPtr& raw, const RetryPolicy& policy,
      std::shared_ptr<cloud::CloudHealthRegistry> health = nullptr) {
    return cloud::BlockingCloud(
        cloud::guard_clouds({raw}, policy, std::move(health), rng, ctx())
            .front());
  }
};

// Answers each request with `script(path)` when that is an error, otherwise
// serves it from an in-memory cloud. Counts the requests that reached it.
class ScriptedCloud final : public cloud::CloudProvider {
 public:
  using Script = std::function<Status(const std::string& path)>;

  explicit ScriptedCloud(Script script, cloud::CloudId id = 1,
                         const std::string& name = "m")
      : script_(std::move(script)),
        memory_(std::make_shared<cloud::MemoryCloud>(id, name)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return memory_->id();
  }
  [[nodiscard]] std::string name() const override { return memory_->name(); }

  Status upload(const std::string& path, ByteSpan data) override {
    UNI_RETURN_IF_ERROR(gate(path));
    return memory_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate(path));
    return memory_->download(path);
  }
  Status create_dir(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate(path));
    return memory_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    UNI_RETURN_IF_ERROR(gate(dir));
    return memory_->list(dir);
  }
  Status remove(const std::string& path) override {
    UNI_RETURN_IF_ERROR(gate(path));
    return memory_->remove(path);
  }

  [[nodiscard]] int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  [[nodiscard]] cloud::MemoryCloud& memory() noexcept { return *memory_; }

 private:
  Status gate(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    return script_(path);
  }

  Script script_;
  std::shared_ptr<cloud::MemoryCloud> memory_;
  mutable std::mutex mu_;
  int calls_ = 0;
};

// Fails the first `n` requests with `code`, then lets them through.
ScriptedCloud::Script fail_first(int n,
                                 ErrorCode code = ErrorCode::kUnavailable) {
  return [n, code](const std::string&) mutable -> Status {
    if (n <= 0) return Status::ok();
    --n;
    return make_error(code, "scripted failure");
  };
}

// --- the retry policy on the cloud stack ---------------------------------------

TEST(RetryCallTest, FirstAttemptSuccessDoesNotSleep) {
  TestEnv t;
  auto cloud = std::make_shared<ScriptedCloud>(fail_first(0));
  const Status s = t.guard(cloud, RetryPolicy{}).upload("/f", ByteSpan(text("x")));
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(cloud->calls(), 1);
  EXPECT_TRUE(t.sleeps.empty());
}

TEST(RetryCallTest, TransientFailuresRetriedUntilSuccess) {
  TestEnv t;
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.backoff_base = 0.1;
  policy.backoff_cap = 1.0;
  auto cloud = std::make_shared<ScriptedCloud>(fail_first(2));
  const Status s = t.guard(cloud, policy).upload("/f", ByteSpan(text("x")));
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(cloud->calls(), 3);
  ASSERT_EQ(t.sleeps.size(), 2u);
  for (const Duration d : t.sleeps) {
    EXPECT_GE(d, policy.backoff_base);
    EXPECT_LE(d, policy.backoff_cap);
  }
}

TEST(RetryCallTest, NonTransientErrorSurfacesImmediately) {
  TestEnv t;
  auto cloud =
      std::make_shared<ScriptedCloud>(fail_first(100, ErrorCode::kNotFound));
  const Status s = t.guard(cloud, RetryPolicy{}).remove("/gone");
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(cloud->calls(), 1);
  EXPECT_TRUE(t.sleeps.empty());
}

TEST(RetryCallTest, AttemptBudgetExhaustedReturnsLastError) {
  TestEnv t;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.05;
  auto cloud = std::make_shared<ScriptedCloud>(fail_first(100));
  const Status s = t.guard(cloud, policy).upload("/f", ByteSpan(text("x")));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(cloud->calls(), 3);
  EXPECT_EQ(t.sleeps.size(), 2u);  // no sleep after the final attempt
}

TEST(RetryCallTest, SingleShotNeverRetries) {
  TestEnv t;
  auto cloud = std::make_shared<ScriptedCloud>(fail_first(100));
  const Status s = t.guard(cloud, RetryPolicy::single_shot())
                       .upload("/f", ByteSpan(text("x")));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(cloud->calls(), 1);
}

TEST(RetryCallTest, TotalDeadlineStopsBeforeSleepingPastBudget) {
  TestEnv t;
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.backoff_base = 10.0;  // every pause is at least 10 s
  policy.backoff_cap = 10.0;
  policy.total_deadline = 5.0;
  auto cloud = std::make_shared<ScriptedCloud>(fail_first(100));
  const Status s = t.guard(cloud, policy).upload("/f", ByteSpan(text("x")));
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(cloud->calls(), 1);  // the 10 s pause would overrun the 5 s budget
  EXPECT_TRUE(t.sleeps.empty());
}

TEST(RetryCallTest, SlowSuccessMapsToTimeout) {
  TestEnv t;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.01;
  policy.attempt_deadline = 1.0;
  auto cloud = std::make_shared<ScriptedCloud>([&t](const std::string&) {
    t.clock.advance(5.0);  // the "request" stalls well past the deadline
    return Status::ok();
  });
  const Status s = t.guard(cloud, policy).upload("/f", ByteSpan(text("x")));
  // Both attempts came back OK but too late; the result is a timeout.
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_EQ(cloud->calls(), 2);
}

TEST(RetryCallTest, ResultFlavourReturnsValueOfSuccessfulAttempt) {
  TestEnv t;
  auto cloud =
      std::make_shared<ScriptedCloud>(fail_first(1, ErrorCode::kTimeout));
  ASSERT_TRUE(cloud->memory().upload("/seven", ByteSpan(text("7"))).is_ok());
  const Result<Bytes> r = t.guard(cloud, RetryPolicy{}).download("/seven");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), text("7"));
  EXPECT_EQ(cloud->calls(), 2);
}

TEST(BackoffStateTest, StaysWithinBaseAndCap) {
  RetryPolicy policy;
  policy.backoff_base = 0.2;
  policy.backoff_cap = 3.0;
  BackoffState backoff(policy);
  Rng rng(7);
  Duration prev = 0;
  bool grew = false;
  for (int i = 0; i < 200; ++i) {
    const Duration d = backoff.next(rng);
    EXPECT_GE(d, policy.backoff_base);
    EXPECT_LE(d, policy.backoff_cap);
    if (d > prev) grew = true;
    prev = d;
  }
  EXPECT_TRUE(grew);  // the jittered sequence must actually spread out
}

// --- CloudHealthRegistry ------------------------------------------------------

cloud::BreakerConfig small_breaker() {
  cloud::BreakerConfig cfg;
  cfg.consecutive_failures_to_open = 3;
  cfg.window_failure_ratio_to_open = 0.6;
  cfg.window_size = 8;
  cfg.min_window_samples = 4;
  cfg.open_duration = 30.0;
  cfg.half_open_probes = 2;
  cfg.probe_successes_to_close = 1;
  return cfg;
}

TEST(CloudHealthRegistryTest, OpensAfterConsecutiveFailures) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  EXPECT_TRUE(reg.allow_request(1));
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
  EXPECT_FALSE(reg.allow_request(1));
  EXPECT_FALSE(reg.admissible(1));
  EXPECT_FALSE(reg.all_closed());
}

TEST(CloudHealthRegistryTest, WindowRatioTripsWithoutConsecutiveRun) {
  ManualClock clock;
  cloud::BreakerConfig cfg = small_breaker();
  cfg.consecutive_failures_to_open = 100;  // only the window can trip
  cloud::CloudHealthRegistry reg(cfg, clock);
  // Alternate so no consecutive run forms: S F S F -> 4 samples at ratio
  // 0.5, still closed; one more failure makes 3/5 = 0.6 and trips.
  reg.record_success(1, 0.1);
  reg.record_failure(1, 0.1);
  reg.record_success(1, 0.1);
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
}

TEST(CloudHealthRegistryTest, HalfOpenProbeClosesOnSuccess) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  ASSERT_EQ(reg.state(1), cloud::BreakerState::kOpen);

  clock.advance(29.0);
  EXPECT_FALSE(reg.allow_request(1));  // probe timer not yet expired
  clock.advance(2.0);
  EXPECT_TRUE(reg.admissible(1));
  EXPECT_TRUE(reg.allow_request(1));  // this caller is the probe
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kHalfOpen);
  reg.record_success(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  EXPECT_TRUE(reg.all_closed());
}

TEST(CloudHealthRegistryTest, FailedProbeReopensAndRestartsTimer) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  ASSERT_TRUE(reg.allow_request(1));
  reg.record_failure(1, 0.1);  // probe failed
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kOpen);
  EXPECT_FALSE(reg.allow_request(1));  // timer restarted
  clock.advance(31.0);
  EXPECT_TRUE(reg.allow_request(1));
}

TEST(CloudHealthRegistryTest, HalfOpenAdmitsBoundedProbes) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);  // 2 probes
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  EXPECT_TRUE(reg.allow_request(1));
  EXPECT_TRUE(reg.allow_request(1));
  EXPECT_FALSE(reg.allow_request(1));  // probe quota exhausted
}

TEST(CloudHealthRegistryTest, FreshStartAfterRecoveryDoesNotRetrip) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  for (int i = 0; i < 3; ++i) reg.record_failure(1, 0.1);
  clock.advance(31.0);
  ASSERT_TRUE(reg.allow_request(1));
  reg.record_success(1, 0.1);
  ASSERT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  // The pre-outage window (full of failures) must have been cleared: one
  // new failure alone may not re-trip via the window ratio.
  reg.record_failure(1, 0.1);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
}

TEST(CloudHealthRegistryTest, NonAvailabilityErrorsCountAsHealthy) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  const Status not_found = make_error(ErrorCode::kNotFound, "no such file");
  for (int i = 0; i < 10; ++i) reg.record(1, not_found, 0.05);
  EXPECT_EQ(reg.state(1), cloud::BreakerState::kClosed);
  const cloud::CloudHealthSnapshot s = reg.snapshot(1);
  EXPECT_EQ(s.successes, 10u);
  EXPECT_EQ(s.failures, 0u);
}

TEST(CloudHealthRegistryTest, SnapshotReportsStats) {
  ManualClock clock;
  cloud::CloudHealthRegistry reg(small_breaker(), clock);
  reg.record_success(3, 0.2);
  reg.record_failure(3, 0.4);
  reg.record_failure(5, 0.1);
  const auto all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].id, 3u);
  EXPECT_EQ(all[0].successes, 1u);
  EXPECT_EQ(all[0].failures, 1u);
  EXPECT_EQ(all[0].consecutive_failures, 1);
  EXPECT_NEAR(all[0].window_failure_ratio, 0.5, 1e-9);
  EXPECT_GT(all[0].latency_ewma, 0.0);
  EXPECT_EQ(all[1].id, 5u);
}

// --- breaker and deadlines on the cloud stack ----------------------------------

TEST(RetryingCloudTest, RetriesThroughTransientFailures) {
  TestEnv t;
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base = 0.01;
  policy.backoff_cap = 0.05;
  auto flaky = std::make_shared<ScriptedCloud>(fail_first(2));
  cloud::BlockingCloud guarded = t.guard(flaky, policy);

  EXPECT_TRUE(guarded.upload("/f", ByteSpan(text("hello"))).is_ok());
  EXPECT_EQ(flaky->calls(), 3);  // two failures + the success
  EXPECT_EQ(guarded.download("/f").value(), text("hello"));
}

TEST(RetryingCloudTest, CircuitOpensAndFailsFastWithoutTouchingInner) {
  TestEnv t;
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  auto faulty =
      std::make_shared<cloud::FaultyCloud>(memory, cloud::FaultProfile{}, 9);
  faulty->set_outage(true);
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), t.clock);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.backoff_base = 0.001;
  policy.backoff_cap = 0.002;
  cloud::BlockingCloud guarded = t.guard(faulty, policy, health);

  // Outage responses are kOutage (non-transient): one inner request per
  // call. Three calls trip the breaker (threshold 3).
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  }
  ASSERT_EQ(health->state(1), cloud::BreakerState::kOpen);

  const std::uint64_t before = faulty->requests();
  for (int i = 0; i < 10; ++i) {
    const Status s = guarded.upload("/f", ByteSpan(text("x")));
    EXPECT_EQ(s.code(), ErrorCode::kOutage);
  }
  EXPECT_EQ(faulty->requests(), before);  // fail-fast: inner never called
}

TEST(RetryingCloudTest, RecoveredCloudReadmittedViaProbe) {
  TestEnv t;
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  auto faulty =
      std::make_shared<cloud::FaultyCloud>(memory, cloud::FaultProfile{}, 9);
  faulty->set_outage(true);
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), t.clock);
  cloud::BlockingCloud guarded =
      t.guard(faulty, RetryPolicy::single_shot(), health);

  for (int i = 0; i < 3; ++i) {
    (void)guarded.upload("/f", ByteSpan(text("x")));
  }
  ASSERT_EQ(health->state(1), cloud::BreakerState::kOpen);

  faulty->set_outage(false);
  t.clock.advance(31.0);  // past open_duration
  EXPECT_TRUE(guarded.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_EQ(health->state(1), cloud::BreakerState::kClosed);
  EXPECT_EQ(memory->download("/f").value(), text("x"));
}

TEST(RetryingCloudTest, AttemptDeadlineMapsHangToTimeout) {
  TestEnv t;
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  cloud::FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_seconds = 5.0;
  auto faulty = std::make_shared<cloud::FaultyCloud>(
      memory, profile, 9, [&t](Duration d) { t.clock.advance(d); });
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), t.clock);
  RetryPolicy policy = RetryPolicy::single_shot();
  policy.attempt_deadline = 1.0;
  cloud::BlockingCloud guarded = t.guard(faulty, policy, health);

  const Status s = guarded.upload("/f", ByteSpan(text("x")));
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  EXPECT_GE(faulty->hangs(), 1u);
  // The hang counts against the cloud's health.
  EXPECT_EQ(health->snapshot(1).failures, 1u);
}

// The deadline-only wrapper: one attempt, no breaker, deadline mapping.
TEST(DeadlineCloudTest, MapsOverlongCallToTimeout) {
  TestEnv t;
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  cloud::FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_seconds = 9.0;
  auto faulty = std::make_shared<cloud::FaultyCloud>(
      memory, profile, 9, [&t](Duration d) { t.clock.advance(d); });
  RetryPolicy policy = RetryPolicy::single_shot();
  policy.attempt_deadline = 2.0;
  cloud::BlockingCloud deadline = t.guard(faulty, policy);

  const Status s = deadline.upload("/f", ByteSpan(text("late")));
  EXPECT_EQ(s.code(), ErrorCode::kTimeout);
  // The inner call DID complete (the verb cannot be aborted mid-flight);
  // only the caller's view of it is a timeout.
  EXPECT_EQ(memory->download("/f").value(), text("late"));
}

// --- one stack for the data and control planes ---------------------------------

// Sum of the cloud.<name>.<verb>.<area>.ok|err request counters.
std::uint64_t metered_requests(const obs::MetricsSnapshot& m,
                               const std::string& name) {
  const std::string prefix = "cloud." + name + ".";
  std::uint64_t total = 0;
  for (const auto& [key, value] : m.counters) {
    if (key.rfind(prefix, 0) != 0) continue;
    if (key.ends_with(".ok") || key.ends_with(".err")) total += value;
  }
  return total;
}

TEST(CloudStackTest, DataPlaneBreakerFailsControlPlaneFast) {
  TestEnv t;
  auto obs = std::make_shared<obs::Observability>(t.clock);
  auto health =
      std::make_shared<cloud::CloudHealthRegistry>(small_breaker(), t.clock);
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faulty;
  cloud::MultiCloud raw;
  for (cloud::CloudId i = 0; i < 3; ++i) {
    faulty.push_back(std::make_shared<cloud::FaultyCloud>(
        std::make_shared<cloud::MemoryCloud>(i, "c" + std::to_string(i)),
        cloud::FaultProfile{}, i));
    raw.push_back(faulty.back());
  }
  const cloud::AsyncMultiCloud stacks =
      cloud::guard_clouds(raw, RetryPolicy{}, health, t.rng, t.ctx(obs));
  cloud::MultiCloud control;
  for (const auto& s : stacks) {
    control.push_back(std::make_shared<cloud::BlockingCloud>(s));
  }

  // Data plane: block uploads to c0 fail until its breaker opens.
  faulty[0]->set_outage(true);
  const Bytes block = text("block");
  for (int i = 0; i < 3; ++i) {
    auto done = std::make_shared<std::promise<Status>>();
    stacks[0]->upload_async(
        "/data/b" + std::to_string(i), ByteSpan(block),
        [done](Status s) { done->set_value(std::move(s)); });
    EXPECT_EQ(done->get_future().get().code(), ErrorCode::kOutage);
  }
  ASSERT_EQ(health->state(0), cloud::BreakerState::kOpen);

  // Control plane: the metadata store's version probe over the same stack.
  const obs::MetricsSnapshot before = obs->metrics.snapshot();
  std::vector<std::uint64_t> reached;
  for (const auto& f : faulty) reached.push_back(f->requests());
  metadata::ShardedMetaStore store(control, "pass", metadata::ShardConfig{});
  // Nothing committed yet: c1 and c2 answer kNotFound, c0 is refused.
  EXPECT_EQ(store.fetch_remote_version().code(), ErrorCode::kNotFound);
  const obs::MetricsSnapshot after = obs->metrics.snapshot();

  // c0 failed fast: the breaker refused the attempt before the request
  // reached the cloud or the meter.
  EXPECT_EQ(faulty[0]->requests(), reached[0]);
  EXPECT_EQ(metered_requests(after, "c0"), metered_requests(before, "c0"));
  EXPECT_EQ(after.counter_value("retry.c0.attempts"),
            before.counter_value("retry.c0.attempts") + 1);
  const Result<Bytes> refused = control[0]->download("/meta/root");
  EXPECT_EQ(refused.code(), ErrorCode::kOutage);
  EXPECT_NE(refused.status().message().find("circuit open"),
            std::string::npos);

  // c1/c2: every control-plane attempt reached the cloud and was metered
  // exactly once.
  for (std::size_t i = 1; i < faulty.size(); ++i) {
    const std::string name = "c" + std::to_string(i);
    const std::uint64_t attempts =
        after.counter_value("retry." + name + ".attempts") -
        before.counter_value("retry." + name + ".attempts");
    EXPECT_GE(attempts, 1u);
    EXPECT_EQ(faulty[i]->requests() - reached[i], attempts);
    EXPECT_EQ(metered_requests(after, name) - metered_requests(before, name),
              attempts);
  }
}

// Fails the first /data request with kUnavailable; everything else goes
// through.
ScriptedCloud::Script first_block_flakes() {
  return [flaked = false](const std::string& path) mutable -> Status {
    if (flaked || path.rfind("/data", 0) != 0) return Status::ok();
    flaked = true;
    return make_error(ErrorCode::kUnavailable, "first block flakes");
  };
}

// Each cloud's data-plane retry draws its backoff jitter from the client's
// Rng: two clients seeded differently back off differently on the same
// failure. One connection per cloud makes the flaking upload the first
// retrying op each cloud's stack launches.
TEST(CloudStackTest, ClientRngSeedsDataPlaneBackoffJitter) {
  constexpr int kClouds = 4;
  auto backoffs = [](std::uint64_t seed) {
    cloud::MultiCloud clouds;
    for (int i = 0; i < kClouds; ++i) {
      clouds.push_back(std::make_shared<ScriptedCloud>(
          first_block_flakes(), static_cast<cloud::CloudId>(i),
          "c" + std::to_string(i)));
    }
    auto fs = std::make_shared<core::MemoryLocalFs>();
    EXPECT_TRUE(fs->write("/f", ByteSpan(Bytes(3000, 0x5a))).is_ok());
    core::ClientConfig cfg;
    cfg.theta = 64 << 10;
    cfg.driver.connections_per_cloud = 1;
    cfg.retry.backoff_base = 0.001;
    cfg.retry.backoff_cap = 0.01;
    core::UniDriveClient client(clouds, fs, cfg, RealClock::instance(),
                                Rng(seed));
    auto report = client.sync();
    EXPECT_TRUE(report.is_ok() && report.value().committed);
    const obs::MetricsSnapshot m =
        client.observability()->metrics.snapshot();
    std::vector<double> first;
    for (int i = 0; i < kClouds; ++i) {
      const auto it = m.histograms.find("retry.c" + std::to_string(i) +
                                        ".backoff");
      first.push_back(it == m.histograms.end() || it->second.count == 0
                          ? -1.0
                          : it->second.min);
    }
    return first;
  };
  const std::vector<double> a = backoffs(1);
  const std::vector<double> b = backoffs(2);
  int compared = 0;
  for (int i = 0; i < kClouds; ++i) {
    if (a[i] < 0 || b[i] < 0) continue;
    ++compared;
    EXPECT_NE(a[i], b[i]) << "cloud c" << i;
  }
  EXPECT_GE(compared, 1);
}

// --- FaultyCloud fault injectors ----------------------------------------------

TEST(FaultyCloudTest, TornUploadWritesTruncatedPrefix) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  cloud::FaultProfile profile;
  profile.torn_upload_rate = 1.0;
  cloud::FaultyCloud faulty(memory, profile, 9);

  const Bytes payload = text("0123456789");
  const Status s = faulty.upload("/t", ByteSpan(payload));
  EXPECT_EQ(s.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(faulty.torn_uploads(), 1u);
  // Garbage sits at the path: a strict prefix, not the full payload.
  const Bytes stored = memory->download("/t").value();
  EXPECT_EQ(stored.size(), payload.size() / 2);
  EXPECT_EQ(stored, Bytes(payload.begin(),
                          payload.begin() + static_cast<std::ptrdiff_t>(
                                                payload.size() / 2)));
}

TEST(FaultyCloudTest, HangStallsThroughInjectedSleep) {
  auto memory = std::make_shared<cloud::MemoryCloud>(1, "m");
  ManualClock clock;
  cloud::FaultProfile profile;
  profile.hang_rate = 1.0;
  profile.hang_seconds = 7.0;
  cloud::FaultyCloud faulty(memory, profile, 9,
                            [&clock](Duration d) { clock.advance(d); });

  const TimePoint before = clock.now();
  EXPECT_TRUE(faulty.upload("/f", ByteSpan(text("x"))).is_ok());
  EXPECT_NEAR(clock.now() - before, 7.0, 1e-9);
  EXPECT_EQ(faulty.hangs(), 1u);
}

}  // namespace
}  // namespace unidrive
