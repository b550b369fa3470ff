// Per-layer accounting for the traced run, measured from outside the
// library: spans the client's Tracer already records, counters its
// MetricsRegistry already keeps, and the benchmark's AreaCountingCloud.
//
// Every sync() call of the traced run is bracketed by a CallProbe. It
// snapshots the client's counters and the pair's area counters before the
// call; afterwards it drains the tracer (finished() + clear(), so the
// 1024-span ring never wraps) and folds the call into one PhaseLayers:
//
//   core.*   the sync.round span and its direct children (sync.scan,
//            sync.upload_segments, sync.commit, sync.apply_cloud); the
//            round time no child covers is core.unattributed_s, and the
//            sync.commit time no lock/meta span covers is
//            core.commit_self_s.
//   lock.*   root lock.acquire spans inside the round's interval, the
//            lock.rounds counter, and lock-area RPCs.
//   meta.*   root meta.shard.publish + meta.publish (stage + flip) and
//            meta.fetch_latest spans inside the round, meta-area RPCs and
//            the meta-area bytes the counting cloud saw.
//   cloud.*  cloud.<name>.<verb>.<area>.ok|err, retry.<name>.retries and
//            breaker.cloud<id>.opened counters; failures, retries and
//            breaker openings are reported per cycle over all phases.
//   sched.*  driver.up.rpcs_inflight_peak, sched.overprovisioned, and
//            data-area download RPCs per restore.segments.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "area_cloud.h"
#include "core/client.h"
#include "obs/metrics.h"

namespace perfbench {

// The client counters the per-layer metrics are built from.
struct ClientCounters {
  std::array<std::uint64_t, kAreas> ok{};
  std::array<std::uint64_t, kAreas> err{};
  std::uint64_t data_downloads_ok = 0;
  std::uint64_t bytes_up = 0;  // cloud.<name>.bytes_up, all areas
  std::uint64_t retries = 0;
  std::uint64_t breaker_opened = 0;
  std::uint64_t lock_rounds = 0;
  std::uint64_t overprovisioned = 0;
  std::uint64_t restore_segments = 0;

  [[nodiscard]] static ClientCounters read(
      const unidrive::obs::MetricsSnapshot& snap);
  [[nodiscard]] std::uint64_t rpcs() const;  // every attempt, ok or not
  ClientCounters& operator+=(const ClientCounters& o);
  ClientCounters& operator-=(const ClientCounters& o);
};

AreaTotals& operator+=(AreaTotals& a, const AreaTotals& b);
AreaTotals& operator-=(AreaTotals& a, const AreaTotals& b);

// The three kinds of sync() call a cycle makes.
enum Phase : std::size_t { kCommit, kPropagate, kIdle, kPhases };
inline constexpr std::array<const char*, kPhases> kPhaseNames = {
    "commit", "propagate", "idle"};

// Sums over the traced calls of one phase.
struct PhaseLayers {
  std::size_t calls = 0;
  double scan_s = 0;
  double upload_segments_s = 0;
  double commit_s = 0;
  // sync.commit time outside the lock.acquire / meta.* spans it contains:
  // lock releases, freshness checks, merge.
  double commit_self_s = 0;
  double apply_s = 0;
  double unattributed_s = 0;
  double lock_acquire_s = 0;
  std::uint64_t lock_acquires = 0;
  double meta_publish_s = 0;
  double meta_fetch_latest_s = 0;
  ClientCounters counters;
  AreaTotals area;
  double up_inflight_peak = 0;  // max over calls
  std::uint64_t segments_deduped = 0;
  std::uint64_t dedup_bytes_saved = 0;

  void merge(const PhaseLayers& o);
};

// Brackets one traced sync() call. `area` sums the counting clouds the
// client talks to; nothing else may use them during the call.
class CallProbe {
 public:
  CallProbe(unidrive::core::UniDriveClient& client,
            std::function<AreaTotals()> area);

  // Folds the call into `into`. Returns what went wrong, or "" on success:
  // when the tracer dropped spans or the call left no sync.round span the
  // per-layer numbers would undercount, and nothing is folded.
  [[nodiscard]] std::string finish(PhaseLayers& into);

 private:
  unidrive::core::UniDriveClient& client_;
  std::function<AreaTotals()> area_;
  ClientCounters before_;
  AreaTotals area_before_;
};

// Every per-layer metric, in a fixed order, from the merged phases plus the
// kernel throughputs and tracing overhead measured by perfbench.cc. A
// phase-prefixed metric is a mean per call of that phase; commit-phase
// counts are therefore also per cycle.
struct KernelRates {
  double segment_MBps = 0;
  double encode_MBps = 0;
  double decode_MBps = 0;
  double meta_codec_MBps = 0;
};
struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
};
[[nodiscard]] std::vector<LayerMetric> layer_metrics(
    const std::array<PhaseLayers, kPhases>& phases, const KernelRates& rates,
    double trace_overhead_pct);

}  // namespace perfbench
