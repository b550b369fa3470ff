// ChunkPipeline — a minimal virtual-time transfer engine for the baseline
// systems: a FIFO of (file, chunk, cloud) transfers served by a bounded
// number of connections per cloud, with per-chunk retries. Used to model
// native CCS apps (all chunks to one cloud) and the intuitive multi-cloud
// (chunks striped over the native apps). No erasure coding, no scheduling
// policy — that is the point of the baselines.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/retry.h"
#include "sim/sim_cloud.h"

namespace unidrive::baselines {

struct ChunkTask {
  std::size_t file = 0;
  sim::SimCloud* cloud = nullptr;
  double bytes = 0;
};

class ChunkPipeline
    : public std::enable_shared_from_this<ChunkPipeline> {
 public:
  // Per-chunk retries follow the unified RetryPolicy's attempt budget (the
  // backoff/deadline fields are ignored: the simulator's virtual-time
  // connection contention already spaces retries out).
  // `connections` gives each cloud's connection budget; clouds are served
  // in id order, so a run does not depend on where they sit in memory.
  ChunkPipeline(sim::SimEnv& env, bool download,
                const std::map<sim::SimCloud*, std::size_t>& connections,
                RetryPolicy retry = {.max_attempts = 7});

  // Fires when the last chunk of a file completed (or was abandoned).
  std::function<void(std::size_t file, bool ok)> on_file_done;

  // Enqueue all chunks of a file; may be called while running.
  void add_file(std::size_t file, const std::vector<ChunkTask>& chunks);

  // Kick the engine (also implicitly kicked by add_file).
  void pump();

  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && in_flight_ == 0;
  }

 private:
  struct Pending {
    ChunkTask task;
    int tries = 0;  // completed (failed) tries so far
  };

  void dispatch(Pending pending);
  void complete(Pending pending, bool ok);

  struct Slots {
    sim::SimCloud* cloud = nullptr;
    std::size_t free = 0;
  };

  sim::SimEnv& env_;
  bool download_;
  std::map<std::uint32_t, Slots> free_slots_;  // by SimCloud::id()
  RetryPolicy retry_;

  std::vector<Pending> queue_;  // FIFO (front = index 0)
  std::size_t in_flight_ = 0;
  std::map<std::size_t, std::size_t> remaining_chunks_;  // file -> count
  std::map<std::size_t, bool> file_ok_;
};

}  // namespace unidrive::baselines
