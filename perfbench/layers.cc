#include "layers.h"

#include <algorithm>

namespace perfbench {

namespace {

using unidrive::obs::SpanRecord;

// Splits "a.b.c" on dots.
std::vector<std::string> split_dots(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (;;) {
    const std::size_t dot = s.find('.', start);
    parts.push_back(s.substr(start, dot - start));
    if (dot == std::string::npos) return parts;
    start = dot + 1;
  }
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

double safe_div(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

ClientCounters ClientCounters::read(
    const unidrive::obs::MetricsSnapshot& snap) {
  ClientCounters c;
  for (const auto& [name, value] : snap.counters) {
    if (starts_with(name, "cloud.")) {
      const std::vector<std::string> p = split_dots(name);
      if (p.size() == 3 && p[2] == "bytes_up") {
        c.bytes_up += value;
      } else if (p.size() == 5 && (p[4] == "ok" || p[4] == "err")) {
        const Area a = area_index(p[3]);
        (p[4] == "ok" ? c.ok : c.err)[a] += value;
        if (p[2] == "download" && a == kData && p[4] == "ok") {
          c.data_downloads_ok += value;
        }
      }
    } else if (starts_with(name, "retry.") && ends_with(name, ".retries")) {
      c.retries += value;
    } else if (starts_with(name, "breaker.") && ends_with(name, ".opened")) {
      c.breaker_opened += value;
    } else if (name == "lock.rounds") {
      c.lock_rounds = value;
    } else if (name == "sched.overprovisioned") {
      c.overprovisioned = value;
    } else if (name == "restore.segments") {
      c.restore_segments = value;
    }
  }
  return c;
}

std::uint64_t ClientCounters::rpcs() const {
  std::uint64_t n = 0;
  for (std::size_t a = 0; a < kAreas; ++a) n += ok[a] + err[a];
  return n;
}

ClientCounters& ClientCounters::operator+=(const ClientCounters& o) {
  for (std::size_t a = 0; a < kAreas; ++a) {
    ok[a] += o.ok[a];
    err[a] += o.err[a];
  }
  data_downloads_ok += o.data_downloads_ok;
  bytes_up += o.bytes_up;
  retries += o.retries;
  breaker_opened += o.breaker_opened;
  lock_rounds += o.lock_rounds;
  overprovisioned += o.overprovisioned;
  restore_segments += o.restore_segments;
  return *this;
}

ClientCounters& ClientCounters::operator-=(const ClientCounters& o) {
  for (std::size_t a = 0; a < kAreas; ++a) {
    ok[a] -= o.ok[a];
    err[a] -= o.err[a];
  }
  data_downloads_ok -= o.data_downloads_ok;
  bytes_up -= o.bytes_up;
  retries -= o.retries;
  breaker_opened -= o.breaker_opened;
  lock_rounds -= o.lock_rounds;
  overprovisioned -= o.overprovisioned;
  restore_segments -= o.restore_segments;
  return *this;
}

AreaTotals& operator+=(AreaTotals& a, const AreaTotals& b) {
  for (std::size_t i = 0; i < kAreas; ++i) {
    a.ok[i] += b.ok[i];
    a.bytes_up[i] += b.bytes_up[i];
    a.bytes_down[i] += b.bytes_down[i];
  }
  return a;
}

AreaTotals& operator-=(AreaTotals& a, const AreaTotals& b) {
  for (std::size_t i = 0; i < kAreas; ++i) {
    a.ok[i] -= b.ok[i];
    a.bytes_up[i] -= b.bytes_up[i];
    a.bytes_down[i] -= b.bytes_down[i];
  }
  return a;
}

void PhaseLayers::merge(const PhaseLayers& o) {
  calls += o.calls;
  scan_s += o.scan_s;
  upload_segments_s += o.upload_segments_s;
  commit_s += o.commit_s;
  commit_self_s += o.commit_self_s;
  apply_s += o.apply_s;
  unattributed_s += o.unattributed_s;
  lock_acquire_s += o.lock_acquire_s;
  lock_acquires += o.lock_acquires;
  meta_publish_s += o.meta_publish_s;
  meta_fetch_latest_s += o.meta_fetch_latest_s;
  counters += o.counters;
  area += o.area;
  up_inflight_peak = std::max(up_inflight_peak, o.up_inflight_peak);
  segments_deduped += o.segments_deduped;
  dedup_bytes_saved += o.dedup_bytes_saved;
}

CallProbe::CallProbe(unidrive::core::UniDriveClient& client,
                     std::function<AreaTotals()> area)
    : client_(client),
      area_(std::move(area)),
      before_(ClientCounters::read(
          client.observability()->metrics.snapshot())),
      area_before_(area_()) {
  // Spans of earlier calls were drained by their own probes; whatever the
  // ring still holds predates tracing (set-up, warm-up).
  client_.observability()->tracer.clear();
}

std::string CallProbe::finish(PhaseLayers& into) {
  auto& obs = *client_.observability();
  const unidrive::obs::MetricsSnapshot snap = obs.metrics.snapshot();
  const std::vector<SpanRecord> spans = obs.tracer.finished();
  const std::uint64_t dropped = obs.tracer.dropped();  // clear() resets it
  obs.tracer.clear();
  if (dropped != 0) {
    return "the tracer dropped " + std::to_string(dropped) + " spans";
  }

  ClientCounters delta = ClientCounters::read(snap);
  delta -= before_;
  AreaTotals area = area_();
  area -= area_before_;

  const SpanRecord* round = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "sync.round" && s.parent == 0) round = &s;
  }
  if (round == nullptr) return "no sync.round span";
  const SpanRecord* commit = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.parent == round->id && s.name == "sync.commit") commit = &s;
  }

  ++into.calls;
  double children = 0;
  double commit_covered = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent == round->id) {
      children += s.duration();
      if (s.name == "sync.scan") into.scan_s += s.duration();
      if (s.name == "sync.upload_segments") {
        into.upload_segments_s += s.duration();
      }
      if (s.name == "sync.commit") into.commit_s += s.duration();
      if (s.name == "sync.apply_cloud") into.apply_s += s.duration();
      continue;
    }
    // Root spans the library does not parent under the round: attribute
    // them by containment in its interval.
    if (s.parent != 0 || s.start < round->start || s.end > round->end) {
      continue;
    }
    if (s.name == "lock.acquire") {
      into.lock_acquire_s += s.duration();
      ++into.lock_acquires;
    } else if (s.name == "meta.shard.publish" || s.name == "meta.publish") {
      into.meta_publish_s += s.duration();
    } else if (s.name == "meta.fetch_latest") {
      into.meta_fetch_latest_s += s.duration();
    } else {
      continue;
    }
    if (commit != nullptr && s.start >= commit->start &&
        s.end <= commit->end) {
      commit_covered += s.duration();
    }
  }
  if (commit != nullptr) {
    into.commit_self_s += std::max(0.0, commit->duration() - commit_covered);
  }
  into.unattributed_s += std::max(0.0, round->duration() - children);
  into.counters += delta;
  into.area += area;
  into.up_inflight_peak =
      std::max(into.up_inflight_peak,
               snap.gauge_value("driver.up.rpcs_inflight_peak"));
  return "";
}

std::vector<LayerMetric> layer_metrics(
    const std::array<PhaseLayers, kPhases>& phases, const KernelRates& rates,
    double trace_overhead_pct) {
  std::vector<LayerMetric> out;
  auto add = [&](const std::string& name, double value, const char* unit) {
    out.push_back({name, value, unit});
  };
  // Per-call means of one phase.
  auto per_call = [&](Phase p, double v) {
    return safe_div(v, static_cast<double>(phases[p].calls));
  };
  auto cloud_rpcs = [](const PhaseLayers& l, Area a) {
    return static_cast<double>(l.counters.ok[a] + l.counters.err[a]);
  };

  const PhaseLayers& c = phases[kCommit];
  add("commit.core.scan_s", per_call(kCommit, c.scan_s), "s");
  add("commit.core.upload_segments_s", per_call(kCommit, c.upload_segments_s),
      "s");
  add("commit.core.commit_s", per_call(kCommit, c.commit_s), "s");
  add("commit.core.commit_self_s", per_call(kCommit, c.commit_self_s), "s");
  add("commit.core.apply_s", per_call(kCommit, c.apply_s), "s");
  add("commit.core.unattributed_s", per_call(kCommit, c.unattributed_s), "s");
  add("commit.lock.acquire_s", per_call(kCommit, c.lock_acquire_s), "s");
  add("commit.lock.acquires", per_call(kCommit, c.lock_acquires), "count");
  add("commit.lock.rounds", per_call(kCommit, c.counters.lock_rounds),
      "count");
  add("commit.lock.rpcs", per_call(kCommit, cloud_rpcs(c, kLock)), "count");
  add("commit.meta.publish_s", per_call(kCommit, c.meta_publish_s), "s");
  add("commit.meta.rpcs", per_call(kCommit, cloud_rpcs(c, kMeta)), "count");
  add("commit.meta.bytes_up", per_call(kCommit, c.area.bytes_up[kMeta]), "B");
  for (std::size_t a = 0; a < kAreas; ++a) {
    add(std::string("commit.cloud.rpcs.") + kAreaNames[a],
        per_call(kCommit, cloud_rpcs(c, static_cast<Area>(a))), "count");
  }
  for (std::size_t a = 0; a < kOther; ++a) {
    add(std::string("commit.cloud.bytes_up.") + kAreaNames[a],
        per_call(kCommit, c.area.bytes_up[a]), "B");
  }

  const PhaseLayers& p = phases[kPropagate];
  add("propagate.core.scan_s", per_call(kPropagate, p.scan_s), "s");
  add("propagate.core.apply_s", per_call(kPropagate, p.apply_s), "s");
  add("propagate.core.unattributed_s", per_call(kPropagate, p.unattributed_s),
      "s");
  add("propagate.meta.fetch_latest_s",
      per_call(kPropagate, p.meta_fetch_latest_s), "s");
  add("propagate.meta.rpcs", per_call(kPropagate, cloud_rpcs(p, kMeta)),
      "count");
  add("propagate.meta.bytes_down",
      per_call(kPropagate, p.area.bytes_down[kMeta]), "B");
  for (std::size_t a = 0; a < kAreas; ++a) {
    add(std::string("propagate.cloud.rpcs.") + kAreaNames[a],
        per_call(kPropagate, cloud_rpcs(p, static_cast<Area>(a))), "count");
  }

  const PhaseLayers& i = phases[kIdle];
  add("idle.core.scan_s", per_call(kIdle, i.scan_s), "s");
  add("idle.core.unattributed_s", per_call(kIdle, i.unattributed_s), "s");
  add("idle.meta.rpcs_per_idle_poll", per_call(kIdle, cloud_rpcs(i, kMeta)),
      "count");

  // Failure handling, summed over every phase: the cloud_down signal.
  std::uint64_t failed = 0, retries = 0, opened = 0;
  for (const PhaseLayers& l : phases) {
    for (std::uint64_t e : l.counters.err) failed += e;
    retries += l.counters.retries;
    opened += l.counters.breaker_opened;
  }
  const double cycles = static_cast<double>(c.calls);
  add("cloud.rpcs_failed", safe_div(failed, cycles), "count");
  add("cloud.retries", safe_div(retries, cycles), "count");
  add("cloud.breaker_open", safe_div(opened, cycles), "count");

  add("sched.up_inflight_peak", c.up_inflight_peak, "count");
  add("sched.overprovisioned", per_call(kCommit, c.counters.overprovisioned),
      "count");
  add("sched.down_blocks_per_segment",
      safe_div(p.counters.data_downloads_ok, p.counters.restore_segments),
      "ratio");
  add("dedup.segments_deduped", per_call(kCommit, c.segments_deduped),
      "count");
  add("dedup.bytes_saved", per_call(kCommit, c.dedup_bytes_saved), "B");

  add("chunker.segment_MBps", rates.segment_MBps, "MB/s");
  add("erasure.encode_MBps", rates.encode_MBps, "MB/s");
  add("erasure.decode_MBps", rates.decode_MBps, "MB/s");
  add("crypto.meta_codec_MBps", rates.meta_codec_MBps, "MB/s");
  add("obs.trace_overhead_pct", trace_overhead_pct, "%");
  return out;
}

}  // namespace perfbench
