#include "sched/upload_scheduler.h"

#include <algorithm>
#include <cassert>

namespace unidrive::sched {

UploadScheduler::UploadScheduler(CodeParams params,
                                 std::vector<cloud::CloudId> clouds,
                                 std::vector<UploadFileSpec> files,
                                 UploadOptions options)
    : params_(params),
      options_(options),
      clouds_(std::move(clouds)),
      homes_(clouds_) {
  assert(params_.validate().is_ok());
  assert(clouds_.size() == params_.num_clouds);
  files_.reserve(files.size());
  for (UploadFileSpec& file : files) add_file(std::move(file));
}

void UploadScheduler::add_file(UploadFileSpec file) {
  const std::size_t fi = files_.size();
  FileState fs;
  fs.spec = std::move(file);
  for (const UploadSegmentSpec& seg : fs.spec.segments) {
    SegmentState ss;
    ss.file_index = fi;
    ss.id = seg.id;
    ss.block_bytes = (seg.size + params_.k - 1) / params_.k;
    ss.load.assign(clouds_.size(), 0);
    ss.done_on.assign(clouds_.size(), 0);
    const std::size_t si = segments_.size();
    fs.segment_indices.push_back(si);
    by_id_[seg.id].push_back(si);
    live_.insert(live_.end(), si);
    segments_.push_back(std::move(ss));
  }
  files_.push_back(std::move(fs));
}

std::size_t UploadScheduler::slot_of(cloud::CloudId cloud) const {
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    if (clouds_[i] == cloud) return i;
  }
  return kNoSlot;
}

const std::vector<std::size_t>& UploadScheduler::with_id(
    const std::string& segment_id) const {
  static const std::vector<std::size_t> kNone;
  const auto it = by_id_.find(segment_id);
  return it == by_id_.end() ? kNone : it->second;
}

bool UploadScheduler::segment_available(const SegmentState& seg) const {
  return seg.done.size() >= params_.k;
}

bool UploadScheduler::segment_reliable(const SegmentState& seg) const {
  // Every *enabled* cloud holds its fair share (completed, not in-flight).
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    if (disabled_.count(clouds_[i]) != 0) continue;
    if (seg.done_on[i] < params_.fair_share()) return false;
  }
  return true;
}

bool UploadScheduler::segment_fully_served(const SegmentState& seg) const {
  return segment_available(seg) && segment_reliable(seg);
}

bool UploadScheduler::file_available(std::size_t file_index) const {
  // Abandoned segments are as available as they will ever get; counting
  // them would pin the batch in the availability phase forever.
  for (const std::size_t si : files_[file_index].segment_indices) {
    const SegmentState& seg = segments_[si];
    if (!seg.abandoned && !segment_available(seg)) return false;
  }
  return true;
}

bool UploadScheduler::all_available() const {
  while (available_prefix_ < files_.size() &&
         file_available(available_prefix_)) {
    ++available_prefix_;
  }
  return available_prefix_ == files_.size();
}

bool UploadScheduler::file_reliable(std::size_t file_index) const {
  for (const std::size_t si : files_[file_index].segment_indices) {
    const SegmentState& seg = segments_[si];
    if (!seg.abandoned && !segment_reliable(seg)) return false;
  }
  return true;
}

bool UploadScheduler::all_reliable() const {
  for (const std::size_t si : live_) {
    if (!segment_reliable(segments_[si])) return false;
  }
  return true;
}

bool UploadScheduler::assignable(const SegmentState& seg,
                                 bool allow_overprov) const {
  for (const cloud::CloudId c : clouds_) {
    if (disabled_.count(c) != 0) continue;
    if (pick_block(seg, c, allow_overprov).has_value()) return true;
  }
  return false;
}

bool UploadScheduler::finished() const {
  // Goal met = done: a surplus block still in flight after every segment
  // is available and reliable does not hold the job open.
  if (all_available() && all_reliable()) return true;
  if (in_flight_ > 0) return false;
  // Finished when every segment is fully served, or nothing more can be
  // assigned to any enabled cloud (e.g. clouds down / caps reached).
  for (const std::size_t si : live_) {
    const SegmentState& seg = segments_[si];
    if (segment_fully_served(seg)) continue;
    if (assignable(seg, options_.overprovision && !segment_reliable(seg))) {
      return false;
    }
  }
  return true;
}

std::optional<std::uint32_t> UploadScheduler::pick_block(
    const SegmentState& seg, cloud::CloudId cloud,
    bool allow_overprov) const {
  if (seg.abandoned) return std::nullopt;
  const std::size_t slot = slot_of(cloud);
  if (slot == kNoSlot) return std::nullopt;  // never homed, never done
  const std::size_t cap = params_.max_per_cloud();
  if (seg.load[slot] >= cap) return std::nullopt;

  const auto placed = [&](std::uint32_t index) {
    return seg.done.count(index) != 0 || seg.in_flight.count(index) != 0;
  };

  // 1. A normal block homed on this cloud.
  const auto normal_count =
      static_cast<std::uint32_t>(params_.normal_blocks());
  for (std::uint32_t b = 0; b < normal_count; ++b) {
    if (home_of(b) == cloud && !placed(b)) return b;
  }
  if (!allow_overprov) return std::nullopt;

  // Over-provisioning starts only once this cloud has COMPLETED its fair
  // share (the paper: "continuing to send extra parity blocks to faster
  // clouds even if they have received their fair share") — otherwise extra
  // blocks would compete with the cloud's own normal blocks for bandwidth.
  if (seg.done_on[slot] < params_.fair_share()) return std::nullopt;

  // 2. Over-provisioned parity: any unplaced index, preferring the dedicated
  // over-provision range so normal blocks stay available for their homes.
  const auto code_n = static_cast<std::uint32_t>(params_.code_n());
  for (std::uint32_t b = normal_count; b < code_n; ++b) {
    if (!placed(b)) return b;
  }
  // 3. Normal blocks of *other* (slower) clouds, as a last resort when the
  // over-provision range is exhausted: still helps availability; reliability
  // phase will not double-place (the index counts as placed).
  for (std::uint32_t b = 0; b < normal_count; ++b) {
    if (!placed(b) && disabled_.count(home_of(b)) != 0) return b;
  }
  return std::nullopt;
}

BlockTask UploadScheduler::assign(SegmentState& seg, std::uint32_t index,
                                  cloud::CloudId cloud) {
  seg.in_flight[index] = cloud;
  ++seg.load[slot_of(cloud)];
  ++in_flight_;
  return BlockTask{seg.file_index, seg.id, index, cloud, seg.block_bytes};
}

std::optional<BlockTask> UploadScheduler::next_task(cloud::CloudId cloud) {
  if (disabled_.count(cloud) != 0) return std::nullopt;

  if (!options_.availability_first) {
    // No two-phase strategy (multi-cloud benchmark, RACS/DepSky-style):
    // every cloud simply works through ITS statically assigned blocks in
    // file order, independently of the other clouds' progress. Slow clouds
    // fall behind on their own queues; nothing rebalances.
    for (const std::size_t si : live_) {
      SegmentState& seg = segments_[si];
      if (segment_fully_served(seg)) continue;
      const bool allow_overprov =
          options_.overprovision && !segment_available(seg);
      const auto choice = pick_block(seg, cloud, allow_overprov);
      if (choice.has_value()) return assign(seg, *choice, cloud);
    }
    return std::nullopt;
  }

  // Phase 1: first unavailable file, in batch order.
  if (!all_available()) {
    for (std::size_t fi = available_prefix_; fi < files_.size(); ++fi) {
      FileState& file = files_[fi];
      bool file_needs_work = false;
      // Pass A: this cloud's own normal (fair-share) blocks of the
      // segments still missing availability — they serve availability AND
      // reliability and must never be preempted by surplus parity. Homed
      // blocks of already-available segments wait for phase 2
      // (availability-first: resources move to the next pending work).
      bool fair_share_done = true;  // this file's homed work all completed
      for (const std::size_t si : file.segment_indices) {
        SegmentState& seg = segments_[si];
        if (seg.abandoned || segment_available(seg)) continue;
        file_needs_work = true;
        const auto choice =
            pick_block(seg, cloud, /*allow_overprov=*/false);
        if (choice.has_value()) return assign(seg, *choice, cloud);
        // Fair share "received" = completed, not merely in flight.
        for (const auto& [index, c] : seg.in_flight) {
          if (c == cloud) fair_share_done = false;
        }
      }
      // Pass B: over-provisioned parity. Only once this cloud has RECEIVED
      // its fair share of the whole file (the paper's trigger) does it take
      // surplus blocks, aimed at the segments still missing availability —
      // LAST ones foremost: their normal blocks started most recently, so
      // they are the furthest from availability, while surplus for early
      // segments would duplicate normal blocks about to finish anyway.
      // (Surplus for merely not-yet-reliable segments waits for phase 2:
      // availability of the NEXT file outranks extra redundancy here.)
      if (options_.overprovision && fair_share_done) {
        for (auto it = file.segment_indices.rbegin();
             it != file.segment_indices.rend(); ++it) {
          SegmentState& seg = segments_[*it];
          if (seg.abandoned || segment_available(seg)) continue;
          const auto choice =
              pick_block(seg, cloud, /*allow_overprov=*/true);
          if (choice.has_value()) return assign(seg, *choice, cloud);
        }
      }
      // Strict availability-first ordering: while this file still needs
      // work, later files must wait (all connections focus on it).
      if (file_needs_work) return std::nullopt;
    }
    return std::nullopt;
  }

  // Phase 2: reliability fill — remaining normal blocks, in file order;
  // fast clouds that finished their fair shares keep streaming surplus
  // parity until the slow clouds complete (over-provisioning stops only
  // when every segment is reliable).
  for (const bool homed_pass : {true, false}) {
    if (!homed_pass && !options_.overprovision) break;
    for (const std::size_t si : live_) {
      SegmentState& seg = segments_[si];
      if (segment_reliable(seg)) continue;
      const auto choice =
          pick_block(seg, cloud, /*allow_overprov=*/!homed_pass);
      if (choice.has_value()) return assign(seg, *choice, cloud);
    }
  }
  return std::nullopt;
}

void UploadScheduler::on_complete(const BlockTask& task, bool success) {
  // Locate the segment: the first one of the task's file with its id.
  for (const std::size_t si : with_id(task.segment_id)) {
    SegmentState& seg = segments_[si];
    if (seg.file_index != task.file_index) continue;
    const auto it = seg.in_flight.find(task.block_index);
    if (it == seg.in_flight.end() || it->second != task.cloud) return;
    seg.in_flight.erase(it);
    --in_flight_;
    const std::size_t slot = slot_of(task.cloud);
    if (success) {
      seg.done[task.block_index] = task.cloud;
      ++seg.done_on[slot];
    } else if (seg.load[slot] > 0) {
      // Return capacity; the block becomes assignable again (to any cloud).
      --seg.load[slot];
    }
    return;
  }
}

bool UploadScheduler::segment_settled(const std::string& segment_id) const {
  const std::vector<std::size_t>& indices = with_id(segment_id);
  for (const std::size_t si : indices) {
    const SegmentState& seg = segments_[si];
    if (!seg.in_flight.empty()) return false;
    if (seg.abandoned || segment_fully_served(seg)) continue;
    // Same feasibility probe as finished(): can any enabled cloud still be
    // handed a block of this segment? With nothing in flight, the probe's
    // inputs only change through new assignments, so the verdict is stable
    // (modulo cloud re-admission — see header).
    if (assignable(seg, options_.overprovision)) return false;
  }
  return !indices.empty();
}

void UploadScheduler::abandon_segment(const std::string& segment_id) {
  for (const std::size_t si : with_id(segment_id)) {
    segments_[si].abandoned = true;
    live_.erase(si);
  }
}

void UploadScheduler::set_cloud_enabled(cloud::CloudId cloud, bool enabled) {
  if (enabled) {
    disabled_.erase(cloud);
    return;
  }
  disabled_.insert(cloud);
  // Re-home normal blocks of the disabled cloud onto the remaining enabled
  // clouds (round-robin), so availability does not wait on a dead cloud.
  std::vector<cloud::CloudId> alive;
  for (const cloud::CloudId c : clouds_) {
    if (disabled_.count(c) == 0) alive.push_back(c);
  }
  if (alive.empty()) return;
  std::size_t next = 0;
  for (cloud::CloudId& home : homes_) {
    if (disabled_.count(home) != 0) {
      home = alive[next++ % alive.size()];
    }
  }
}

bool UploadScheduler::cloud_enabled(cloud::CloudId cloud) const {
  return disabled_.count(cloud) == 0;
}

std::vector<metadata::BlockLocation> UploadScheduler::locations(
    const std::string& segment_id) const {
  // Merged across duplicate segment ids (dedup within a batch).
  std::vector<metadata::BlockLocation> out;
  for (const std::size_t si : with_id(segment_id)) {
    for (const auto& [index, c] : segments_[si].done) {
      out.push_back({index, c});
    }
  }
  return out;
}

std::vector<std::pair<std::string, metadata::BlockLocation>>
UploadScheduler::overprovisioned_blocks() const {
  std::vector<std::pair<std::string, metadata::BlockLocation>> out;
  for (const SegmentState& seg : segments_) {
    // Count completed blocks per cloud; anything beyond the fair share on a
    // cloud is an over-provisioned placement (reclaimable later). Blocks in
    // the over-provision index range are reported too.
    std::map<cloud::CloudId, std::size_t> seen;
    for (const auto& [index, c] : seg.done) {
      ++seen[c];
      if (index >= params_.normal_blocks() ||
          seen[c] > params_.fair_share()) {
        out.emplace_back(seg.id, metadata::BlockLocation{index, c});
      }
    }
  }
  return out;
}

}  // namespace unidrive::sched
