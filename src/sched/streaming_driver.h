// Streaming transfer drivers — upload and download drivers that accept
// files *incrementally* while transfers are already running, so the CPU
// stages (encode / decode) overlap the network instead of the driver
// draining a frozen plan.
//
// StreamingUploadDriver is the transfer stage of the sync pipeline: the
// encode stage calls
// add_file() as soon as a segment's shards exist, close() when the scan is
// exhausted, and wait() for the drain. The embedded UploadScheduler keeps
// the batch policy intact — files added later rank after earlier ones in
// the availability-first order, over-provisioning and the per-cloud
// security cap apply unchanged — because all policy still lives in the
// scheduler; this class only feeds it and executes its decisions.
//
// Both drivers run the same event-driven pump: under one lock, hand a
// block to every free connection of every cloud that can take one and
// launch it through the AsyncTransferFn; the completion feeds the
// scheduler and the throughput monitor (in-channel probing) and pumps
// again, because a completion can unlock work for any cloud. No thread is
// held while a request is on the wire, so in-flight transfers are bounded
// by the per-cloud connection budget alone.
//
// Fault handling: with a shared CloudHealthRegistry, a cloud whose breaker
// is open starts the job disabled (its blocks reroute to the others), and
// a cloud that trips mid-run is disabled on its next failure. Without a
// registry the driver counts consecutive failures per cloud.
//
// Memory release: when a segment "settles" (nothing in flight and no
// future task can place another block — fully served, or every enabled
// cloud is capped/down), the driver abandons it in the scheduler and fires
// the SegmentSettledFn, letting the pipeline drop the shard bytes early.
// Abandoning first makes the release safe: even if a disabled cloud is
// later re-admitted, the scheduler will never ask for those bytes again.
//
// Cost per event: a segment's verdict (settled here, fetched/failed in the
// download driver) depends only on that segment's own blocks and on which
// clouds are enabled. So a completion re-checks only the segment it
// touched, add_file only the segments it adds, request_extra_block only
// the segment it re-arms; the work per event does not grow with the
// batch. Every pending segment is re-checked (a full sweep) only when a
// cloud is disabled or re-admitted, and, in the download driver, on
// cancel — so a producer blocked on an in-flight-bytes cap is still
// unblocked when clouds go down mid-run. The counters
// driver.up.settle_checks and driver.down.decide_checks count the checks.
// The upload driver settles before it pumps: a segment given up at this
// event must not hold the availability phase through the pump, or a job
// with nothing left in flight would never pump again.
//
// cancel() stops all future assignment; transfers already running finish
// (cloud calls are not interruptible) and are awaited by wait().
#pragma once

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/async.h"
#include "cloud/health.h"
#include "cloud/provider.h"
#include "common/executor.h"
#include "metadata/types.h"
#include "obs/obs.h"
#include "sched/download_scheduler.h"
#include "sched/monitor.h"
#include "sched/plan.h"
#include "sched/upload_scheduler.h"

namespace unidrive::sched {

struct DriverConfig {
  // Concurrent transfers per cloud (the paper uses up to 5 HTTP
  // connections per cloud). 0 is treated as 1.
  std::size_t connections_per_cloud = 5;
  // Consecutive failed transfers before a CLOUD is disabled for this run
  // (per cloud, not per block — a flapping cloud must not livelock a job).
  int max_consecutive_failures = 3;
};

// Invoked under the driver lock when a segment's shard bytes can be
// released. Must not call back into the driver.
using SegmentSettledFn = std::function<void(const std::string& segment_id)>;

// Completion of one async block transfer, invoked exactly once.
using TransferDoneFn = std::function<void(Status)>;

// Async transfer launcher: starts the block transfer and returns
// immediately; `done` fires from the I/O runtime when it resolves. The
// drivers call this UNDER their lock — implementations must follow the
// AsyncCloud contract (cloud/async.h): never invoke `done` on the caller's
// stack. For uploads the callee PUTs the shard; for downloads it GETs and
// stores the shard before `done` fires.
using AsyncTransferFn =
    std::function<cloud::AsyncHandle(const BlockTask&, TransferDoneFn)>;

class StreamingUploadDriver {
 public:
  StreamingUploadDriver(CodeParams params,
                        std::vector<cloud::CloudId> clouds,
                        DriverConfig config, ThroughputMonitor& monitor,
                        std::shared_ptr<Executor> executor,
                        AsyncTransferFn transfer, UploadOptions options = {},
                        std::shared_ptr<cloud::CloudHealthRegistry> health =
                            nullptr,
                        obs::ObsPtr obs = nullptr,
                        SegmentSettledFn on_settled = nullptr);
  // Cancels and waits for in-flight transfers if the job is still open.
  ~StreamingUploadDriver();

  StreamingUploadDriver(const StreamingUploadDriver&) = delete;
  StreamingUploadDriver& operator=(const StreamingUploadDriver&) = delete;

  // Feed one more file into the running job. Ignored after close/cancel.
  void add_file(UploadFileSpec file);

  // No more files will be added; wait() returns once the scheduler drains.
  void close();

  // Stop assigning new blocks. In-flight transfers complete and are
  // reported to the scheduler, then wait() returns.
  void cancel();

  // Blocks until the job is done: nothing in flight AND (cancelled, or
  // closed with the scheduler finished).
  void wait();

  [[nodiscard]] bool cancelled() const;

  // Snapshot accessors; meaningful once the relevant segment settled or
  // after wait().
  [[nodiscard]] std::vector<metadata::BlockLocation> locations(
      const std::string& segment_id) const;
  [[nodiscard]] std::vector<std::pair<std::string, metadata::BlockLocation>>
  overprovisioned_blocks() const;
  [[nodiscard]] const CodeParams& params() const noexcept {
    return scheduler_.params();
  }

 private:
  // All of pump/settle*/sweep_settled/launch/note_inflight require lock_
  // held.
  void pump();
  // Settles `segment_id` if it is unsettled and settled now.
  void settle(const std::string& segment_id);
  // Re-checks every unsettled segment.
  void sweep_settled();
  // One check: true when the segment settled (abandoned, callback fired);
  // the caller drops it from unsettled_.
  bool settle_if_done(const std::string& segment_id);
  [[nodiscard]] bool done() const;
  void launch(cloud::CloudId cloud, const BlockTask& task);
  // Everything that happens once a transfer's Status is known: metering,
  // monitor feedback, scheduler completion, pump. Runs from the transfer's
  // completion and takes lock_ itself.
  void finish_transfer(cloud::CloudId cloud, const BlockTask& task,
                       const Status& status, TimePoint start);
  void note_inflight();

  std::vector<cloud::CloudId> clouds_;
  DriverConfig config_;
  ThroughputMonitor& monitor_;
  std::shared_ptr<Executor> executor_;
  AsyncTransferFn transfer_;
  std::shared_ptr<cloud::CloudHealthRegistry> health_;
  obs::ObsPtr obs_;
  SegmentSettledFn on_settled_;

  mutable std::mutex lock_;
  std::condition_variable cv_;
  UploadScheduler scheduler_;
  std::map<cloud::CloudId, std::size_t> free_conns_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
  bool cancelled_ = false;
  std::map<cloud::CloudId, int> consecutive_failures_;
  std::set<cloud::CloudId> disabled_;
  std::set<std::string> unsettled_;
  obs::Counter* settle_checks_ = nullptr;
  std::map<cloud::CloudId, obs::Counter*> ok_counters_;
  std::map<cloud::CloudId, obs::Counter*> err_counters_;
  obs::Histogram* latency_hist_ = nullptr;
  // "RPCs on the wire" (outstanding_) vs "threads in use"
  // (Executor::active) — the decoupling the completion-based launch buys,
  // made visible.
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* inflight_peak_gauge_ = nullptr;
  obs::Gauge* threads_gauge_ = nullptr;
  std::size_t inflight_peak_ = 0;
};

// StreamingDownloadDriver — the fetch stage of the restore pipeline: a
// single long-lived DownloadScheduler + pump fed all segments of a restore
// batch incrementally, instead of one scheduler/driver pair per segment.
// The per-cloud connection pools therefore stay busy across segment and
// file boundaries, fastest-cloud-first polling and straggler hedging
// (next_hedge_task, refreshed from the throughput monitor before every
// pump) operate over the whole batch, and the consumer is notified the
// moment any segment's k distinct blocks have landed — not when the whole
// job drains.
//
// The transfer launcher GETs the block and stores the shard before its
// completion fires. When a segment reaches its
// distinct-block budget the SegmentFetchedFn fires with ok=true; when the
// scheduler proves the budget unreachable (supply exhausted / clouds down)
// it fires with ok=false. request_extra_block() raises the budget for the
// corrupt-shard search: the segment re-arms and the callback fires again
// when the extra block lands (or supply runs out).
//
// cancel() stops all future assignment; transfers already running finish
// their current request (cloud verbs are not interruptible) and are
// awaited by wait(). Every segment fed is guaranteed a callback: fetched,
// failed, or — after cancel() — cancelled (ok=false).
class StreamingDownloadDriver {
 public:
  // Fired under the driver lock when a segment's fate is decided: ok=true
  // after its budget of distinct blocks was fetched, ok=false when it can
  // never be. Must not call back into the driver (post to an executor for
  // anything heavier than bookkeeping).
  using SegmentFetchedFn =
      std::function<void(const std::string& segment_id, bool ok)>;

  StreamingDownloadDriver(std::size_t k, std::vector<cloud::CloudId> clouds,
                          DriverConfig config, ThroughputMonitor& monitor,
                          std::shared_ptr<Executor> executor,
                          AsyncTransferFn transfer,
                          std::shared_ptr<cloud::CloudHealthRegistry> health =
                              nullptr,
                          obs::ObsPtr obs = nullptr,
                          SegmentFetchedFn on_fetched = nullptr);
  ~StreamingDownloadDriver();

  StreamingDownloadDriver(const StreamingDownloadDriver&) = delete;
  StreamingDownloadDriver& operator=(const StreamingDownloadDriver&) = delete;

  // Feed one more file into the running job. Ignored after close/cancel.
  void add_file(DownloadFileSpec file);

  // Corrupt-shard search: fetch one more distinct block of the segment.
  // The segment becomes pending again and its SegmentFetchedFn re-fires.
  // Allowed after close() (verification outlives the feed phase).
  void request_extra_block(const std::string& segment_id);

  // No more files will be added; wait() returns once the scheduler drains.
  void close();

  // Stop assigning new blocks. In-flight transfers complete and are
  // reported, pending segments get their ok=false callback.
  void cancel();

  // Blocks until nothing is in flight AND (cancelled, or closed with the
  // scheduler finished).
  void wait();

  [[nodiscard]] bool cancelled() const;

 private:
  // pump/decide*/sweep_decided/launch/note_inflight require lock_ held.
  void pump();
  // Reports `segment_id`'s fate if it is pending and decided now.
  void decide(const std::string& segment_id);
  // Re-checks every pending segment.
  void sweep_decided();
  // One check: true when the segment's fate was reported; the caller drops
  // it from pending_.
  bool decide_if_done(const std::string& segment_id);
  [[nodiscard]] bool done() const;
  void launch(cloud::CloudId cloud, const BlockTask& task, bool is_hedge);
  // Post-transfer bookkeeping, run from the transfer's completion. Takes
  // lock_ itself.
  void finish_transfer(cloud::CloudId cloud, const BlockTask& task,
                       const Status& status, TimePoint start);
  void note_inflight();

  std::vector<cloud::CloudId> clouds_;
  DriverConfig config_;
  ThroughputMonitor& monitor_;
  std::shared_ptr<Executor> executor_;
  AsyncTransferFn transfer_;
  std::shared_ptr<cloud::CloudHealthRegistry> health_;
  obs::ObsPtr obs_;
  SegmentFetchedFn on_fetched_;

  mutable std::mutex lock_;
  std::condition_variable cv_;
  DownloadScheduler scheduler_;
  std::map<cloud::CloudId, std::size_t> free_conns_;
  std::size_t outstanding_ = 0;
  bool closed_ = false;
  bool cancelled_ = false;
  std::map<cloud::CloudId, int> consecutive_failures_;
  std::set<cloud::CloudId> disabled_;
  // Segments fed (or re-armed by request_extra_block) whose fate has not
  // been reported yet.
  std::set<std::string> pending_;
  obs::Counter* decide_checks_ = nullptr;
  std::map<cloud::CloudId, obs::Counter*> ok_counters_;
  std::map<cloud::CloudId, obs::Counter*> err_counters_;
  obs::Histogram* latency_hist_ = nullptr;
  // See the upload driver's note on the in-flight gauges.
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* inflight_peak_gauge_ = nullptr;
  obs::Gauge* threads_gauge_ = nullptr;
  std::size_t inflight_peak_ = 0;
};

}  // namespace unidrive::sched
