// Upload scheduler (Section 6.2): even placement of normal parity blocks,
// data-block over-provisioning, and two-phase (availability-first,
// reliability-second) batch scheduling.
//
// The scheduler is a passive, driver-agnostic decision core: a driver —
// threaded (real clouds) or discrete-event (simulation) — asks
// next_task(cloud) whenever one of that cloud's connections goes idle and
// reports on_complete() when a block transfer finishes. All policy lives
// here so the threaded client and the simulator provably run the same
// algorithm.
//
// Policy recap:
//  * The fair_share * N normal parity blocks of each segment are
//    deterministically homed round-robin across clouds (even assignment).
//  * Phase 1 (availability): files are served strictly in order; a cloud
//    that finished its fair share of the current file keeps receiving
//    over-provisioned parity blocks (respecting the security cap) until the
//    file is available (k distinct blocks in the multi-cloud) — faster
//    clouds therefore carry load proportional to their bandwidth instead of
//    idling behind the slowest cloud.
//  * Phase 2 (reliability): once EVERY file is available, the remaining
//    normal blocks are uploaded so each cloud reaches its fair share.
//  * A block whose home cloud is disabled (outage/quota) is re-homed to the
//    fastest cloud with spare security capacity so availability never waits
//    on a dead cloud.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/provider.h"
#include "metadata/types.h"
#include "sched/plan.h"

namespace unidrive::sched {

// One segment of one file in an upload batch.
struct UploadSegmentSpec {
  std::string id;            // content hash (names the blocks)
  std::uint64_t size = 0;    // plaintext size; block size = ceil(size / k)
};

struct UploadFileSpec {
  std::string path;
  std::vector<UploadSegmentSpec> segments;
};

// A unit of work handed to a driver: upload block `block_index` of
// `segment_id` (shard bytes = RS row block_index) to cloud `cloud`.
struct BlockTask {
  std::size_t file_index = 0;
  std::string segment_id;
  std::uint32_t block_index = 0;
  cloud::CloudId cloud = 0;
  std::uint64_t bytes = 0;  // shard size, for accounting/simulation

  friend bool operator==(const BlockTask& a, const BlockTask& b) noexcept {
    return a.file_index == b.file_index && a.segment_id == b.segment_id &&
           a.block_index == b.block_index && a.cloud == b.cloud;
  }
};

// Policy switches, also the ablation knobs. Defaults are UniDrive; turning
// both off (and static polling in the driver) yields the paper's
// "multi-cloud benchmark" baseline (RACS/DepSky-style: erasure coding and
// parallelism, but no over-provisioning and no dynamic scheduling).
struct UploadOptions {
  bool overprovision = true;      // extra parity to fast clouds
  bool availability_first = true; // two-phase batch ordering
};

class UploadScheduler {
 public:
  UploadScheduler(CodeParams params, std::vector<cloud::CloudId> clouds,
                  std::vector<UploadFileSpec> files,
                  UploadOptions options = {});

  // Streaming: append a file to the batch while the job is running (the
  // caller must serialize this with next_task/on_complete, like every other
  // mutating call). The new file ranks after all existing files in the
  // availability-first order.
  void add_file(UploadFileSpec file);

  // Next block for an idle connection of `cloud`; nullopt = nothing for this
  // cloud right now (it may get work later as other transfers complete).
  std::optional<BlockTask> next_task(cloud::CloudId cloud);

  // Driver callback when a transfer finishes. Failed tasks return to the
  // pool and will be reassigned (possibly to another cloud).
  void on_complete(const BlockTask& task, bool success);

  // Cloud health: disabling removes a cloud from all future assignments and
  // re-homes its pending normal blocks (quota exhausted, outage).
  void set_cloud_enabled(cloud::CloudId cloud, bool enabled);
  [[nodiscard]] bool cloud_enabled(cloud::CloudId cloud) const;

  // Progress.
  [[nodiscard]] std::size_t file_count() const noexcept {
    return files_.size();
  }
  [[nodiscard]] bool file_available(std::size_t file_index) const;
  [[nodiscard]] bool all_available() const;
  [[nodiscard]] bool file_reliable(std::size_t file_index) const;
  [[nodiscard]] bool all_reliable() const;
  // True when no further task will ever be produced and nothing is in
  // flight (success, or as much as the enabled clouds allow).
  [[nodiscard]] bool finished() const;
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }

  // True when no block of `segment_id` is in flight and no future task can
  // place another (fully served, or nothing assignable on any enabled
  // cloud): the segment's shard bytes are no longer needed by this job.
  // The verdict is stable unless a disabled cloud is later re-admitted —
  // callers that free bytes on settle should abandon_segment() first.
  [[nodiscard]] bool segment_settled(const std::string& segment_id) const;

  // Permanently withdraw a segment from scheduling: no further blocks will
  // be assigned for it even if clouds are re-admitted, and it no longer
  // holds up finished() or the availability phase. Blocks already placed
  // stay in locations(). Used by streaming drivers after the segment's
  // shard bytes have been released.
  void abandon_segment(const std::string& segment_id);

  // Final block placement of a segment (for committing metadata).
  [[nodiscard]] std::vector<metadata::BlockLocation> locations(
      const std::string& segment_id) const;

  // Over-provisioned (beyond fair share) block placements, for later cleanup
  // once the file is synced everywhere.
  [[nodiscard]] std::vector<std::pair<std::string, metadata::BlockLocation>>
  overprovisioned_blocks() const;

  [[nodiscard]] const CodeParams& params() const noexcept { return params_; }

 private:
  struct SegmentState {
    std::size_t file_index = 0;
    std::string id;
    std::uint64_t block_bytes = 0;
    bool abandoned = false;  // withdrawn: never assign another block
    std::map<std::uint32_t, cloud::CloudId> done;      // index -> cloud
    std::map<std::uint32_t, cloud::CloudId> in_flight; // index -> cloud
    // Per cloud slot (position in clouds_), kept up to date by next_task
    // and on_complete: blocks done + in flight, and blocks done.
    std::vector<std::size_t> load;
    std::vector<std::size_t> done_on;
  };

  struct FileState {
    UploadFileSpec spec;
    std::vector<std::size_t> segment_indices;  // into segments_
  };

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Position of `cloud` in clouds_, or kNoSlot for a cloud not in the job.
  [[nodiscard]] std::size_t slot_of(cloud::CloudId cloud) const;

  // Home cloud of normal block `index` (round-robin), as currently mapped
  // (re-homing on cloud failure mutates homes_).
  [[nodiscard]] cloud::CloudId home_of(std::uint32_t index) const {
    return homes_[index % homes_.size()];
  }

  [[nodiscard]] std::optional<std::uint32_t> pick_block(
      const SegmentState& seg, cloud::CloudId cloud,
      bool allow_overprov) const;
  // Records block `index` of `seg` as in flight to `cloud`.
  BlockTask assign(SegmentState& seg, std::uint32_t index,
                   cloud::CloudId cloud);
  // True when some enabled cloud can still be handed a block of `seg`.
  [[nodiscard]] bool assignable(const SegmentState& seg,
                                bool allow_overprov) const;
  [[nodiscard]] bool segment_available(const SegmentState& seg) const;
  [[nodiscard]] bool segment_reliable(const SegmentState& seg) const;
  [[nodiscard]] bool segment_fully_served(const SegmentState& seg) const;
  // Segments carrying `segment_id`, in batch order (more than one when a
  // batch repeats a segment).
  [[nodiscard]] const std::vector<std::size_t>& with_id(
      const std::string& segment_id) const;

  CodeParams params_;
  UploadOptions options_;
  std::vector<cloud::CloudId> clouds_;
  std::vector<cloud::CloudId> homes_;  // round-robin home map (mutable copy)
  std::set<cloud::CloudId> disabled_;
  std::vector<FileState> files_;
  std::vector<SegmentState> segments_;
  std::unordered_map<std::string, std::vector<std::size_t>> by_id_;
  // Non-abandoned segments, in batch order: the only ones that can still
  // hold up reliability, finished() or phase 2.
  std::set<std::size_t> live_;
  // Files [0, available_prefix_) are available. Availability only grows
  // (done blocks are never taken back, abandoning only drops segments from
  // the test, new files are appended), so the prefix only moves forward.
  mutable std::size_t available_prefix_ = 0;
  std::size_t in_flight_ = 0;
};

}  // namespace unidrive::sched
