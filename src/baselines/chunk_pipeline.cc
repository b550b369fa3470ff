#include "baselines/chunk_pipeline.h"

#include <algorithm>
#include <cassert>

namespace unidrive::baselines {

ChunkPipeline::ChunkPipeline(
    sim::SimEnv& env, bool download,
    const std::map<sim::SimCloud*, std::size_t>& connections,
    RetryPolicy retry)
    : env_(env), download_(download), retry_(retry) {
  for (const auto& [cloud, n] : connections) {
    const bool fresh = free_slots_.emplace(cloud->id(), Slots{cloud, n}).second;
    assert(fresh && "cloud ids of one pipeline must be distinct");
    (void)fresh;
  }
}

void ChunkPipeline::add_file(std::size_t file,
                             const std::vector<ChunkTask>& chunks) {
  remaining_chunks_[file] += chunks.size();
  file_ok_.emplace(file, true);
  for (const ChunkTask& c : chunks) queue_.push_back({c, 0});
  if (chunks.empty()) {
    // Degenerate empty file: complete immediately (asynchronously).
    env_.schedule(0, [self = shared_from_this(), file] {
      if (self->remaining_chunks_[file] == 0 && self->on_file_done) {
        self->on_file_done(file, true);
      }
    });
  }
  pump();
}

void ChunkPipeline::pump() {
  bool dispatched = true;
  while (dispatched) {
    dispatched = false;
    for (auto& [id, slots] : free_slots_) {
      if (slots.free == 0) continue;
      // First queued chunk for this cloud (FIFO per cloud).
      const auto it = std::find_if(
          queue_.begin(), queue_.end(),
          [&](const Pending& p) { return p.task.cloud == slots.cloud; });
      if (it == queue_.end()) continue;
      Pending pending = *it;
      queue_.erase(it);
      --slots.free;
      ++in_flight_;
      dispatch(pending);
      dispatched = true;
    }
  }
}

void ChunkPipeline::dispatch(Pending pending) {
  auto completion = [self = shared_from_this(), pending](bool ok) mutable {
    self->complete(pending, ok);
  };
  if (download_) {
    pending.task.cloud->download(pending.task.bytes, std::move(completion));
  } else {
    pending.task.cloud->upload(pending.task.bytes, std::move(completion));
  }
}

void ChunkPipeline::complete(Pending pending, bool ok) {
  ++free_slots_.at(pending.task.cloud->id()).free;
  --in_flight_;
  if (!ok && pending.tries + 1 < retry_.max_attempts) {
    ++pending.tries;
    queue_.push_back(pending);  // retry later
  } else {
    const std::size_t file = pending.task.file;
    if (!ok) file_ok_[file] = false;
    if (--remaining_chunks_[file] == 0 && on_file_done) {
      on_file_done(file, file_ok_[file]);
    }
  }
  pump();
}

}  // namespace unidrive::baselines
