#include "sched/download_scheduler.h"

#include <algorithm>
#include <cassert>

namespace unidrive::sched {

DownloadScheduler::DownloadScheduler(std::size_t k,
                                     std::vector<DownloadFileSpec> files)
    : k_(k) {
  assert(k_ > 0);
  for (DownloadFileSpec& file : files) append_file(std::move(file));
}

void DownloadScheduler::append_file(DownloadFileSpec file) {
  const std::size_t fi = files_.size();
  file_segments_.emplace_back();
  for (const DownloadSegmentSpec& seg : file.segments) {
    SegmentState ss;
    ss.file_index = fi;
    ss.spec = seg;
    ss.block_bytes = (seg.size + k_ - 1) / k_;
    ss.budget = k_;
    const std::size_t si = segments_.size();
    file_segments_[fi].push_back(si);
    newest_[seg.id] = si;
    incomplete_.insert(incomplete_.end(), si);
    segments_.push_back(std::move(ss));
  }
  files_.push_back(std::move(file));
}

void DownloadScheduler::add_file(DownloadFileSpec file) {
  append_file(std::move(file));
}

void DownloadScheduler::raise_budget(const std::string& segment_id,
                                     std::size_t extra) {
  // Only the most recent admission of a re-fed segment id re-arms (see
  // find_segment).
  const auto it = newest_.find(segment_id);
  if (it == newest_.end()) return;
  SegmentState& seg = segments_[it->second];
  seg.budget += extra;
  if (!seg.complete()) incomplete_.insert(it->second);
}

const DownloadScheduler::SegmentState* DownloadScheduler::find_segment(
    const std::string& segment_id) const {
  // A streaming batch may re-feed a segment id after an earlier admission
  // completed (e.g. the same content appears again once its first copy was
  // written and released); per-id queries track the newest admission.
  const auto it = newest_.find(segment_id);
  return it == newest_.end() ? nullptr : &segments_[it->second];
}

bool DownloadScheduler::segment_complete(const std::string& segment_id) const {
  const SegmentState* seg = find_segment(segment_id);
  return seg != nullptr && seg->complete();
}

bool DownloadScheduler::segment_failed(const std::string& segment_id) const {
  const SegmentState* seg = find_segment(segment_id);
  return seg != nullptr && segment_stuck(*seg);
}

bool DownloadScheduler::file_complete(std::size_t file_index) const {
  for (const std::size_t si : file_segments_[file_index]) {
    if (!segments_[si].complete()) return false;
  }
  return true;
}

bool DownloadScheduler::all_complete() const { return incomplete_.empty(); }

bool DownloadScheduler::segment_stuck(const SegmentState& seg) const {
  if (seg.complete()) return false;
  // Count blocks still obtainable: located on an enabled cloud not yet
  // known-failed for that block, or already done/in-flight.
  std::set<std::uint32_t> reachable(seg.done.begin(), seg.done.end());
  for (const auto& [index, c] : seg.in_flight) reachable.insert(index);
  const std::size_t seg_index =
      static_cast<std::size_t>(&seg - segments_.data());
  for (const metadata::BlockLocation& loc : seg.spec.locations) {
    if (disabled_.count(loc.cloud) != 0) continue;
    if (source_exhausted(seg_index, loc.block_index, loc.cloud)) {
      continue;
    }
    reachable.insert(loc.block_index);
  }
  return reachable.size() < seg.budget;
}

bool DownloadScheduler::file_failed(std::size_t file_index) const {
  for (const std::size_t si : file_segments_[file_index]) {
    if (segment_stuck(segments_[si])) return true;
  }
  return false;
}

bool DownloadScheduler::finished() const {
  // Complete is complete: requests still in flight (e.g. a straggler block
  // on a slow cloud that a hedge made redundant) do not delay the job —
  // a real client simply abandons those connections.
  if (all_complete()) return true;
  if (in_flight_ > 0) return false;
  for (const std::size_t si : incomplete_) {
    if (!segment_stuck(segments_[si])) return false;
  }
  return true;
}

std::optional<BlockTask> DownloadScheduler::next_task(cloud::CloudId cloud) {
  if (disabled_.count(cloud) != 0) return std::nullopt;
  // Files are scanned in order (availability-first: earlier files fill their
  // k-request budgets before later ones see any capacity), but a file this
  // cloud cannot serve NEVER blocks later files — a connection with nothing
  // to contribute to file i is better spent on file i+1, and a stuck file
  // must not deadlock the whole job.
  for (const std::size_t si : incomplete_) {
    SegmentState& seg = segments_[si];
    // Never request more than the still-needed distinct blocks.
    if (seg.done.size() + seg.in_flight.size() >= seg.budget) continue;
    for (const metadata::BlockLocation& loc : seg.spec.locations) {
      if (loc.cloud != cloud) continue;
      if (seg.done.count(loc.block_index) != 0 ||
          seg.in_flight.count(loc.block_index) != 0) {
        continue;
      }
      if (source_exhausted(si, loc.block_index, cloud)) {
        continue;  // this source failed repeatedly; stop retrying it
      }
      seg.in_flight[loc.block_index] = cloud;
      ++in_flight_;
      return BlockTask{seg.file_index, seg.spec.id, loc.block_index, cloud,
                       seg.block_bytes};
    }
  }
  return std::nullopt;
}

void DownloadScheduler::set_speed_order(
    const std::vector<cloud::CloudId>& fastest_first) {
  speed_rank_.clear();
  for (std::size_t i = 0; i < fastest_first.size(); ++i) {
    speed_rank_[fastest_first[i]] = i;
  }
}

std::optional<BlockTask> DownloadScheduler::next_hedge_task(
    cloud::CloudId cloud) {
  if (disabled_.count(cloud) != 0 || speed_rank_.empty()) return std::nullopt;
  const auto my_rank_it = speed_rank_.find(cloud);
  if (my_rank_it == speed_rank_.end()) return std::nullopt;
  const std::size_t my_rank = my_rank_it->second;

  for (const std::size_t si : incomplete_) {
    SegmentState& seg = segments_[si];
    // Hedge only when a needed block is pinned on a strictly slower cloud.
    bool pinned_on_slower = false;
    std::size_t my_in_flight = 0;
    for (const auto& [index, holder] : seg.in_flight) {
      if (holder == cloud) ++my_in_flight;
      const auto rank_it = speed_rank_.find(holder);
      if (rank_it != speed_rank_.end() && rank_it->second > my_rank) {
        pinned_on_slower = true;
      }
    }
    if (!pinned_on_slower || my_in_flight >= 1 + k_ / 2) continue;
    // Fetch an extra distinct block from this cloud.
    for (const metadata::BlockLocation& loc : seg.spec.locations) {
      if (loc.cloud != cloud) continue;
      if (seg.done.count(loc.block_index) != 0 ||
          seg.in_flight.count(loc.block_index) != 0) {
        continue;
      }
      if (source_exhausted(si, loc.block_index, cloud)) {
        continue;
      }
      seg.in_flight[loc.block_index] = cloud;
      ++in_flight_;
      return BlockTask{seg.file_index, seg.spec.id, loc.block_index, cloud,
                       seg.block_bytes};
    }
  }
  return std::nullopt;
}

void DownloadScheduler::on_complete(const BlockTask& task, bool success) {
  for (const std::size_t si : file_segments_[task.file_index]) {
    SegmentState& seg = segments_[si];
    if (seg.spec.id != task.segment_id) continue;
    const auto it = seg.in_flight.find(task.block_index);
    if (it == seg.in_flight.end() || it->second != task.cloud) return;
    seg.in_flight.erase(it);
    --in_flight_;
    if (success) {
      seg.done.insert(task.block_index);
      if (seg.complete()) incomplete_.erase(si);
    } else {
      ++failure_counts_[{si, task.block_index, task.cloud}];
    }
    return;
  }
}

void DownloadScheduler::set_cloud_enabled(cloud::CloudId cloud, bool enabled) {
  if (enabled) {
    disabled_.erase(cloud);
  } else {
    disabled_.insert(cloud);
  }
}

std::vector<std::uint32_t> DownloadScheduler::fetched_blocks(
    const std::string& segment_id) const {
  std::vector<std::uint32_t> out;
  const SegmentState* seg = find_segment(segment_id);
  if (seg != nullptr) out.assign(seg->done.begin(), seg->done.end());
  return out;
}

}  // namespace unidrive::sched
