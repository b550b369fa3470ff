// AsyncCloud — the completion-based cloud API that decouples in-flight
// RPCs from threads.
//
// Every blocking CloudProvider verb pins its calling thread for the full
// round trip, so the transfer drivers could only keep pool_size RPCs in
// flight. AsyncCloud mirrors the five REST verbs as *_async(…, done):
// each call launches the request, returns a cancellable AsyncHandle
// immediately, and invokes the completion exactly once when the request
// resolves. The drivers launch from the scheduler, re-enter it from the
// completion, and hold no pool slot while the request is in the air.
//
// Invariants every implementation upholds:
//
//   1. Completions are NEVER invoked on the caller's stack — they run on
//      the I/O pool or the timer wheel. Callers may therefore launch while
//      holding their own locks (the streaming drivers launch under lock_).
//      The one exception is BlockingCloud, whose caller holds no locks and
//      waits anyway: its op runs on that thread (the retry layer's first
//      attempt, a SyncAdapter leaf's verb, the step after a wheel delay)
//      and only parks while something has to wait — a latency delay, a
//      backoff, an injected hang.
//   2. After AsyncHandle::cancel() returns, the completion will never be
//      invoked (it either already ran, or never will). cancel() blocks
//      while the completion (or the blocking RPC feeding it, for
//      SyncAdapter ops) is running, unless called from the completion
//      itself — so buffers referenced by the request may be freed as soon
//      as the completion has run or cancel() has returned.
//   3. An upload's ByteSpan must stay valid until the completion runs or
//      cancel() returns. The natural pattern is to let ownership ride in
//      the completion closure (capture a shared_ptr to the bytes).
//
// SyncAdapter is the compatibility layer: it wraps any blocking
// CloudProvider by running the verb on a dedicated I/O pool — correct for
// every provider, thread-bound per RPC. BlockingCloud is its inverse: a
// CloudProvider whose verbs launch the *_async verb and wait on the
// completion, so blocking callers reach the very same async objects.
//
// The client's one cloud stack, built by guard_clouds() per enrolled cloud:
//
//   AsyncRetryingCloud  retry/backoff/deadline/breaker: transient failures
//                       retried per RetryPolicy, every attempt gated by and
//                       recorded in the CloudHealthRegistry, backoff
//                       re-armed on the timer wheel instead of a sleeping
//                       thread (injected virtual-time sleeps are still
//                       honoured).
//   AsyncMeteredCloud   per-attempt request metering (cloud/metered_cloud.h
//                       names the counters), instruments resolved once.
//   to_async(raw)       the provider's own decorators as native async
//                       twins: AsyncFaultyCloud / AsyncQuotaCloud share the
//                       decision RNG, counters and quota accounting with
//                       their blocking halves; AsyncLatentCloud schedules
//                       its latency/bandwidth delays on the wheel, so a
//                       1-thread pool can have hundreds of delayed requests
//                       outstanding. The first provider it does not
//                       recognise becomes a SyncAdapter leaf.
//
// The data plane launches on the async stack directly; the blocking control
// plane (metadata store, lock manager, GC removes) goes through a
// BlockingCloud over the same object, so both planes share one set of
// breakers, meters, fault injectors and quotas, and there is exactly one
// retry implementation.
#pragma once

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/health.h"
#include "cloud/provider.h"
#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/timer_wheel.h"
#include "obs/obs.h"

namespace unidrive::cloud {

namespace detail {

// State machine of one async operation; shared between the AsyncHandle the
// caller holds and the closure that will run the completion.
class AsyncOpState {
 public:
  // Runner side: transition pending -> running right before invoking the
  // completion (or the blocking RPC feeding it). False = cancelled, skip
  // everything.
  bool try_begin();
  // Runner side: running -> done, releases blocked cancellers.
  void finish();

  // Caller side (AsyncHandle::cancel): true = averted (pending ->
  // cancelled; the on_cancel hook ran). False = already begun; blocks
  // until finish() unless called from the runner itself.
  bool cancel();

  // Registers the hook cancel() runs while the op is still pending —
  // composite ops use it to cancel armed timers and inner handles. Returns
  // false when the op was already cancelled (the hook will never run; the
  // caller must clean up itself).
  bool set_on_cancel(std::function<void()> fn);

 private:
  enum class Phase { kPending, kRunning, kDone, kCancelled };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Phase phase_ = Phase::kPending;
  std::thread::id runner_{};
  std::function<void()> on_cancel_;
};

}  // namespace detail

// Value-type handle to one in-flight async operation. Default-constructed
// handles are inert (cancel() returns false).
class AsyncHandle {
 public:
  AsyncHandle() = default;
  explicit AsyncHandle(std::shared_ptr<detail::AsyncOpState> state)
      : state_(std::move(state)) {}

  // True = the completion was averted and will never run. False = the
  // completion ran (or is running — then this blocks until it finished,
  // unless called from the completion itself). Either way, after cancel()
  // returns the completion will never be invoked.
  bool cancel();

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

 private:
  std::shared_ptr<detail::AsyncOpState> state_;
};

using StatusCb = std::function<void(Status)>;
using BytesCb = std::function<void(Result<Bytes>)>;
using ListCb = std::function<void(Result<std::vector<FileInfo>>)>;

// Shared runtime of the async layer: where blocking work runs, where
// delays are parked, how time is read and paused, where metrics land.
//
// All pointers are NON-owning. The owner of the runtime (client, test)
// must keep the pool and wheel alive until every operation launched with
// this context has completed or been cancelled — the drivers guarantee
// that by waiting out all completions. Ops must never keep the pool alive
// themselves: a queued task holding the last reference to its own
// executor would run ~Executor on a worker thread and self-join.
struct AsyncContext {
  Executor* io = nullptr;                    // never null when used
  TimerWheel* wheel = &TimerWheel::shared();
  Clock* clock = &RealClock::instance();
  // Honoured by AsyncRetryingCloud when it is NOT the real sleep: virtual
  // time tests drive retries/breakers by advancing a ManualClock inside it.
  SleepFn sleep = real_sleep();
  obs::ObsPtr obs;                           // may be null
};

class AsyncCloud {
 public:
  virtual ~AsyncCloud() = default;

  [[nodiscard]] virtual CloudId id() const noexcept = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  virtual AsyncHandle upload_async(const std::string& path, ByteSpan data,
                                   StatusCb done) = 0;
  virtual AsyncHandle download_async(const std::string& path,
                                     BytesCb done) = 0;
  virtual AsyncHandle create_dir_async(const std::string& path,
                                       StatusCb done) = 0;
  virtual AsyncHandle list_async(const std::string& dir, ListCb done) = 0;
  virtual AsyncHandle remove_async(const std::string& path,
                                   StatusCb done) = 0;
};

using AsyncCloudPtr = std::shared_ptr<AsyncCloud>;
using AsyncMultiCloud = std::vector<AsyncCloudPtr>;

// Blocking-provider fallback: runs each verb on the I/O pool. One RPC
// still occupies one pool thread for its duration (gauges
// async.io.rpcs_active{,_peak} make that visible), but the caller is
// already free — correctness for arbitrary providers, with the thread
// bound moved from the driver pool to the I/O pool.
class SyncAdapter final : public AsyncCloud {
 public:
  SyncAdapter(CloudPtr inner, AsyncContext ctx);

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override;
  AsyncHandle download_async(const std::string& path, BytesCb done) override;
  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override;
  AsyncHandle list_async(const std::string& dir, ListCb done) override;
  AsyncHandle remove_async(const std::string& path, StatusCb done) override;

 private:
  struct Active {
    std::atomic<std::size_t> n{0};
    std::atomic<std::size_t> peak{0};
  };

  template <typename R>
  AsyncHandle run(std::function<R(CloudProvider&)> op,
                  std::function<void(R)> done);

  CloudPtr inner_;
  AsyncContext ctx_;
  std::shared_ptr<Active> active_ = std::make_shared<Active>();
};

// Async twin of a (possibly decorated) blocking provider. Recognizes the
// fault, quota and latency decorators — FaultyCloud, QuotaCloud,
// LatentCloud — and rebuilds them from native async decorators that share
// state (RNG streams, counters, quotas, link occupancy) with the blocking
// objects; any unrecognized provider becomes a SyncAdapter leaf.
AsyncCloudPtr to_async(const CloudPtr& cloud, const AsyncContext& ctx);

// The client's cloud stack: each cloud becomes
// AsyncRetryingCloud(AsyncMeteredCloud(to_async(raw))). All clouds share
// `policy` and `health` (null = no breaker); each draws its backoff jitter
// from its own fork of `rng`. Metering is skipped when ctx.obs is null.
AsyncMultiCloud guard_clouds(const MultiCloud& clouds,
                             const RetryPolicy& policy,
                             std::shared_ptr<CloudHealthRegistry> health,
                             Rng& rng, const AsyncContext& ctx);

// Blocking facade over an async cloud: each verb launches the matching
// *_async verb and waits on its completion. The op's steps run on the
// calling thread (invariant 1's exception): delays park on the wheel and
// hand the next step back to the waiting caller, so a call costs no pool
// hand-off unless a step itself defers to the pool (an injected hang, a
// virtual-time backoff, a fault or quota refusal). Thread-safe when the
// async cloud is.
//
// The one rule: never call it from a worker of the executor the async
// cloud completes on (AsyncContext::io). The wait pins that worker, so
// with every worker waiting nothing is left to run the completion — on a
// 1-thread pool the first such call deadlocks.
class BlockingCloud final : public CloudProvider {
 public:
  explicit BlockingCloud(AsyncCloudPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  Status upload(const std::string& path, ByteSpan data) override;
  Result<Bytes> download(const std::string& path) override;
  Status create_dir(const std::string& path) override;
  Result<std::vector<FileInfo>> list(const std::string& dir) override;
  Status remove(const std::string& path) override;

 private:
  AsyncCloudPtr inner_;
};

}  // namespace unidrive::cloud
