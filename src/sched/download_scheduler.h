// Download scheduler (Section 6.2): only k distinct blocks are needed per
// segment — normal or over-provisioned, from whichever clouds. The driver
// polls idle connections in fastest-cloud-first order (using the in-channel
// throughput monitor), and this scheduler hands each poll the next needed
// block that the polling cloud can supply. Over-provisioning pays off here:
// fast clouds hold extra blocks, so they can serve more than their share.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/provider.h"
#include "metadata/types.h"
#include "sched/upload_scheduler.h"  // BlockTask

namespace unidrive::sched {

struct DownloadSegmentSpec {
  std::string id;
  std::uint64_t size = 0;  // original segment size
  std::vector<metadata::BlockLocation> locations;
};

struct DownloadFileSpec {
  std::string path;
  std::vector<DownloadSegmentSpec> segments;
};

class DownloadScheduler {
 public:
  DownloadScheduler(std::size_t k, std::vector<DownloadFileSpec> files);

  // Streaming: append a file to the batch while the job is running (the
  // caller must serialize this with next_task/on_complete, like every
  // other mutating call). The new file ranks after all existing files in
  // the fastest-first polling order.
  void add_file(DownloadFileSpec file);

  // Raise a segment's distinct-block budget past k by `extra` blocks (the
  // corrupt-shard search: a decoded-but-unverifiable segment needs more
  // distinct blocks to find a clean k-subset). The segment becomes
  // incomplete again until the extra blocks land or supply runs out.
  void raise_budget(const std::string& segment_id, std::size_t extra);

  // Per-segment progress, for streaming drivers that notify a consumer as
  // soon as each segment's budget of distinct blocks has been fetched.
  [[nodiscard]] bool segment_complete(const std::string& segment_id) const;
  // True when the segment can never reach its budget with the enabled
  // clouds and remaining untried sources (counting in-flight requests as
  // potential successes, so the verdict is final).
  [[nodiscard]] bool segment_failed(const std::string& segment_id) const;

  // Next block an idle connection of `cloud` should fetch, or nullopt.
  std::optional<BlockTask> next_task(cloud::CloudId cloud);

  // Straggler hedging (part of dynamic scheduling): when `cloud` is idle
  // but a segment's k-block budget is pinned by a request on a strictly
  // slower cloud, fetch an EXTRA distinct block from `cloud` — whichever k
  // blocks land first complete the segment; the straggler becomes
  // redundant. Bounded to one hedge per (segment, cloud). Requires a prior
  // set_speed_order() so "slower" is defined; returns nullopt otherwise.
  std::optional<BlockTask> next_hedge_task(cloud::CloudId cloud);

  // Fastest-first cloud ranking from the in-channel throughput monitor;
  // refreshed by the driver before polling.
  void set_speed_order(const std::vector<cloud::CloudId>& fastest_first);

  void on_complete(const BlockTask& task, bool success);

  void set_cloud_enabled(cloud::CloudId cloud, bool enabled);

  // A segment is complete when k distinct blocks are fetched; a file when
  // all its segments are; the job when all files are.
  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }
  [[nodiscard]] bool file_complete(std::size_t file_index) const;
  [[nodiscard]] bool all_complete() const;
  // True when all files are complete OR some file can never complete with
  // the enabled clouds (insufficient reachable blocks) and nothing is in
  // flight.
  [[nodiscard]] bool finished() const;
  [[nodiscard]] bool file_failed(std::size_t file_index) const;
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  // Which block indices were fetched for a segment (driver assembles them).
  [[nodiscard]] std::vector<std::uint32_t> fetched_blocks(
      const std::string& segment_id) const;

 private:
  struct SegmentState {
    std::size_t file_index = 0;
    DownloadSegmentSpec spec;
    std::uint64_t block_bytes = 0;
    // Distinct blocks to fetch: k normally, raised by raise_budget() during
    // a corrupt-shard search.
    std::size_t budget = 0;
    std::set<std::uint32_t> done;
    std::map<std::uint32_t, cloud::CloudId> in_flight;
    std::set<std::uint32_t> failed_everywhere;  // exhausted all holders

    [[nodiscard]] bool complete() const noexcept {
      return done.size() >= budget;
    }
  };

  void append_file(DownloadFileSpec file);
  [[nodiscard]] bool segment_stuck(const SegmentState& seg) const;
  [[nodiscard]] const SegmentState* find_segment(
      const std::string& segment_id) const;

  std::size_t k_;
  std::vector<DownloadFileSpec> files_;
  std::vector<SegmentState> segments_;
  std::vector<std::vector<std::size_t>> file_segments_;
  // Newest admission of each segment id: the one per-id queries track.
  std::unordered_map<std::string, std::size_t> newest_;
  // Segments short of their budget, in batch order — the only ones the
  // polls and finished() have to look at. A segment leaves when its budget
  // is met and comes back when raise_budget() lifts it again.
  std::set<std::size_t> incomplete_;
  std::set<cloud::CloudId> disabled_;
  std::map<cloud::CloudId, std::size_t> speed_rank_;  // 0 = fastest
  // Failures are transient (that's the measured cloud behaviour): each
  // (segment, block, cloud) triple may be retried a few times before the
  // scheduler stops considering that source.
  static constexpr int kMaxAttemptsPerSource = 3;
  std::map<std::tuple<std::size_t, std::uint32_t, cloud::CloudId>, int>
      failure_counts_;
  [[nodiscard]] bool source_exhausted(std::size_t segment,
                                      std::uint32_t block,
                                      cloud::CloudId cloud) const {
    const auto it = failure_counts_.find({segment, block, cloud});
    return it != failure_counts_.end() &&
           it->second >= kMaxAttemptsPerSource;
  }
  std::size_t in_flight_ = 0;
};

}  // namespace unidrive::sched
