// perfbench — end-to-end benchmark of the UniDrive client.
//
// Drives the real core::UniDriveClient in one process. Each of kPairs
// device pairs is a writer "A" and a reader "B" over five
// LatentCloud(MemoryCloud) providers of its own, running a closed loop of
// cycles in its own thread, one client call at a time:
//
//   A writes, A.sync() commits         -> edit_commit sample
//   B.sync() applies the update        -> propagate sample
//                                         (B's folder must now equal A's)
//   B.sync() x idle_polls, no changes  -> idle_poll samples
//
// The first cycle of every pair is a warm-up and is not measured.
//
// Set-up commits each pair's initial folder through an undelayed stack
// (plain MemoryClouds) and hands both devices over to the latency-bearing
// stack through ClientConfig::state_file. Pairs are set up one after
// another; setup_s is the median time of one pair's set-up.
//
// Usage:
//   perfbench --workload bulk|edit_churn|cloud_down --seed N --seconds S
//             --trace 0|1 --workdir DIR [--no-area-count]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (layers.h). --no-area-count drops the benchmark's counting decorator from
// the stack, to check that it does not change the scheduling it measures.
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "area_cloud.h"
#include "chunker/segmenter.h"
#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "common/rng.h"
#include "core/client.h"
#include "erasure/rs.h"
#include "layers.h"
#include "metadata/codec.h"

namespace perfbench {
namespace {

using namespace unidrive;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClouds = 5;
// Concurrent, independent device pairs per workload: four closed loops
// give each run enough samples for steady medians, and four set-ups give
// setup_s its median.
constexpr std::size_t kPairs = 4;
constexpr double kMB = 1e6;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU time of the calling thread: what the benchmark itself spends making
// inputs and checking outputs, kept out of cpu_ms_per_cycle.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::array<double, kClouds> rtt_s{};
  // Uplink per cloud in MB/s, downlink twice that; 0 = unlimited.
  std::array<double, kClouds> up_MBps{};
  // Initial folder, committed during set-up.
  std::size_t init_files = 0;
  std::size_t init_dirs = 1;
  std::size_t init_file_bytes = 0;
  // What A writes each cycle.
  std::size_t edits = 0;  // rewrites of initial-folder files
  std::size_t edit_bytes = 0;
  std::size_t new_files = 0;  // fresh random content
  std::size_t new_file_bytes = 0;
  std::size_t copy_files = 0;  // byte copies of files already committed
  std::size_t idle_polls = 5;
  bool outage = false;  // cloud 0 down for the whole measured phase
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "bulk") {
    // Data plane: 4 x 4 MiB per cycle at the default theta = 4 MiB, one
    // of the four a copy of a committed file; bandwidth-limited links.
    w.rtt_s.fill(0.040);
    w.up_MBps = {1, 1.5, 2, 4, 8};
    w.init_files = 4;
    w.init_file_bytes = 4 << 20;
    w.new_files = 3;
    w.new_file_bytes = 4 << 20;
    w.copy_files = 1;
  } else if (name == "edit_churn" || name == "cloud_down") {
    // Control plane: one 4 KiB edit in a 500-file, 50-directory folder.
    w.rtt_s = {0.020, 0.030, 0.040, 0.060, 0.100};
    w.init_files = 500;
    w.init_dirs = 50;
    w.init_file_bytes = 4 << 10;
    w.edits = 1;
    w.edit_bytes = 4 << 10;
    if (name == "cloud_down") {
      w.rtt_s.fill(0.040);
      w.new_files = 1;
      w.new_file_bytes = 1 << 20;
      w.outage = true;
    }
  } else {
    w.name.clear();
  }
  return w;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(out.data() + i, &v, std::min<std::size_t>(8, n - i));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One device pair

struct Pair {
  std::vector<std::shared_ptr<cloud::MemoryCloud>> memory;
  std::vector<std::shared_ptr<AreaCountingCloud>> counting;
  std::vector<std::shared_ptr<cloud::FaultyCloud>> faulty;
  std::shared_ptr<core::MemoryLocalFs> fs_a, fs_b;
  std::unique_ptr<core::UniDriveClient> a, b;
  std::vector<std::string> committed;  // A's files, in commit order
  std::vector<std::string> editable;   // initial-folder files
  Rng rng;

  [[nodiscard]] AreaTotals area_totals() const {
    AreaTotals t;
    for (const auto& c : counting) t += c->totals();
    return t;
  }
};

core::ClientConfig device_config(const std::string& device,
                                 const std::string& state_file) {
  core::ClientConfig config;
  config.device = device;
  config.state_file = state_file;
  return config;
}

// Builds a pair: initial folder committed by A and restored by B over the
// undelayed stack, then both devices re-created over the measured stack.
// Returns an empty string on success, else what failed.
std::string set_up_pair(const Workload& w, std::uint64_t seed,
                        std::size_t index, const std::string& workdir,
                        bool area_count, Pair& pair) {
  pair.rng = Rng(seed * 0x9E3779B97F4A7C15ULL + index + 1);
  cloud::MultiCloud undelayed;
  for (std::size_t c = 0; c < kClouds; ++c) {
    pair.memory.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(c), "cloud" + std::to_string(c)));
    undelayed.push_back(pair.memory.back());
  }
  pair.fs_a = std::make_shared<core::MemoryLocalFs>();
  pair.fs_b = std::make_shared<core::MemoryLocalFs>();
  const std::string prefix = workdir + "/pair" + std::to_string(index);
  const std::string state_a = prefix + ".A.state";
  const std::string state_b = prefix + ".B.state";
  std::filesystem::remove(state_a);
  std::filesystem::remove(state_b);

  // With nothing to edit, the initial folder is a library the cycles'
  // copies draw from.
  const bool is_library = w.edits == 0;
  for (std::size_t i = 0; i < w.init_files; ++i) {
    const std::string path =
        is_library ? "/lib/f" + std::to_string(i) + ".bin"
                   : "/d" + std::to_string(i % w.init_dirs) + "/f" +
                         std::to_string(i) + ".txt";
    if (!pair.fs_a->write(path, ByteSpan(random_bytes(pair.rng,
                                                      w.init_file_bytes)))
             .is_ok()) {
      return "writing the initial folder";
    }
    pair.committed.push_back(path);
    if (!is_library) pair.editable.push_back(path);
  }
  {
    core::UniDriveClient a(undelayed, pair.fs_a, device_config("A", state_a));
    auto ra = a.sync();
    if (!ra.is_ok() || !ra.value().committed) return "set-up commit by A";
    core::UniDriveClient b(undelayed, pair.fs_b, device_config("B", state_b));
    auto rb = b.sync();
    if (!rb.is_ok() || !rb.value().applied_cloud) return "set-up restore by B";
  }

  cloud::MultiCloud latent;
  for (std::size_t c = 0; c < kClouds; ++c) {
    cloud::CloudPtr p = pair.memory[c];
    if (w.outage) {
      pair.faulty.push_back(std::make_shared<cloud::FaultyCloud>(
          p, cloud::FaultProfile{}, seed + c));
      p = pair.faulty.back();
    }
    if (area_count) {
      pair.counting.push_back(std::make_shared<AreaCountingCloud>(p));
      p = pair.counting.back();
    }
    cloud::LinkProfile link;
    link.request_latency_sec = w.rtt_s[c];
    link.up_bytes_per_sec = w.up_MBps[c] * kMB;
    link.down_bytes_per_sec = 2 * w.up_MBps[c] * kMB;
    latent.push_back(std::make_shared<cloud::LatentCloud>(p, link));
  }
  pair.a = std::make_unique<core::UniDriveClient>(latent, pair.fs_a,
                                                  device_config("A", state_a));
  pair.b = std::make_unique<core::UniDriveClient>(latent, pair.fs_b,
                                                  device_config("B", state_b));
  return "";
}

// ---------------------------------------------------------------------------
// Cycles

struct Samples {
  std::vector<double> commit_s, propagate_s, idle_s;
  std::uint64_t user_bytes = 0;  // A wrote and B applied; copies included
  double commit_wall_s = 0, propagate_wall_s = 0;
  std::size_t cycles = 0;
  double harness_cpu_s = 0;  // input generation and output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  // Traced run only.
  std::array<PhaseLayers, kPhases> layers{};
  double trace_bookkeeping_s = 0;
  double measured_wall_s = 0;
  std::vector<Bytes> last_written;  // for the kernel throughputs

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  void merge(const Samples& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(commit_s, o.commit_s);
    cat(propagate_s, o.propagate_s);
    cat(idle_s, o.idle_s);
    user_bytes += o.user_bytes;
    commit_wall_s += o.commit_wall_s;
    harness_cpu_s += o.harness_cpu_s;
    propagate_wall_s += o.propagate_wall_s;
    cycles += o.cycles;
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
    for (std::size_t p = 0; p < kPhases; ++p) layers[p].merge(o.layers[p]);
    trace_bookkeeping_s += o.trace_bookkeeping_s;
    measured_wall_s += o.measured_wall_s;
    if (!o.last_written.empty()) last_written = o.last_written;
  }
};

bool same_folder(const core::LocalFs& x, const core::LocalFs& y) {
  const std::vector<std::string> files = x.list_files();
  if (files != y.list_files()) return false;
  for (const std::string& f : files) {
    auto a = x.read(f);
    auto b = y.read(f);
    if (!a.is_ok() || !b.is_ok() || a.value() != b.value()) return false;
  }
  return true;
}

// Runs one sync() call, timed; traced runs bracket it with a CallProbe.
struct Call {
  bool ok = false;
  core::SyncReport report;
  double wall_s = 0;
};

Call timed_sync(core::UniDriveClient& client, const Pair& pair, bool trace,
                Phase phase, Samples& s) {
  Call call;
  std::optional<CallProbe> probe;
  if (trace) {
    const auto t0 = Clock::now();
    probe.emplace(client, [&pair] { return pair.area_totals(); });
    s.trace_bookkeeping_s += since(t0);
  }
  const auto t0 = Clock::now();
  auto r = client.sync();
  call.wall_s = since(t0);
  call.ok = r.is_ok() && r.value().materialize.is_ok();
  if (r.is_ok()) call.report = std::move(r).take();
  if (trace) {
    const auto t1 = Clock::now();
    const std::string lost = probe->finish(s.layers[phase]);
    if (!lost.empty()) {
      s.fail(std::string("traced ") + kPhaseNames[phase] + " call: " + lost);
    }
    s.trace_bookkeeping_s += since(t1);
  }
  return call;
}

// One cycle of one pair, checked, timed and (when `traced`) traced into
// `out`.
void cycle_steps(const Workload& w, Pair& pair, std::size_t cycle,
                 bool traced, Samples& out) {
  // --- A writes --------------------------------------------------------------
  const double write_cpu0 = thread_cpu_s();
  std::vector<std::pair<std::string, Bytes>> writes;
  for (std::size_t i = 0; i < w.edits; ++i) {
    const std::string& path =
        pair.editable[pair.rng.next_below(pair.editable.size())];
    writes.emplace_back(path, random_bytes(pair.rng, w.edit_bytes));
  }
  // New files and copies go next to the edited file when there is one, so
  // they add no metadata shard of their own: a commit's lock scopes then
  // vary only with where its segment records land.
  const std::string tag = "c" + std::to_string(cycle);
  const std::string dir =
      writes.empty() ? "/" + tag
                     : writes.front().first.substr(
                           0, writes.front().first.rfind('/'));
  for (std::size_t i = 0; i < w.new_files; ++i) {
    writes.emplace_back(dir + "/" + tag + "new" + std::to_string(i) + ".bin",
                        random_bytes(pair.rng, w.new_file_bytes));
  }
  for (std::size_t i = 0; i < w.copy_files; ++i) {
    const std::string& src =
        pair.committed[pair.rng.next_below(pair.committed.size())];
    auto bytes = pair.fs_a->read(src);
    if (!bytes.is_ok()) {
      out.fail("reading " + src + " to copy it");
      return;
    }
    writes.emplace_back(dir + "/" + tag + "copy" + std::to_string(i) + ".bin",
                        std::move(bytes).take());
  }
  std::uint64_t written = 0;
  std::set<std::string> before_segments;
  if (traced) {
    for (const auto& [id, seg] : pair.a->image().segments()) {
      before_segments.insert(id);
    }
  }
  for (const auto& [path, bytes] : writes) {
    if (!pair.fs_a->write(path, ByteSpan(bytes)).is_ok()) {
      out.fail("writing " + path);
      return;
    }
    written += bytes.size();
  }
  out.harness_cpu_s += thread_cpu_s() - write_cpu0;

  // --- A commits -------------------------------------------------------------
  ++out.attempted;
  const Call commit = timed_sync(*pair.a, pair, traced, kCommit, out);
  if (!commit.ok || !commit.report.committed) {
    out.fail("A's sync did not commit the cycle's writes");
    return;
  }
  for (std::size_t i = w.edits; i < writes.size(); ++i) {
    pair.committed.push_back(writes[i].first);
  }
  if (traced) {
    // Segments of this cycle's files already in the image before the sync
    // were deduplicated by the scanner; SyncReport adds the segment-pool
    // hits (none here: one folder, no shared pool).
    PhaseLayers& l = out.layers[kCommit];
    std::set<std::string> seen;
    for (const auto& [path, bytes] : writes) {
      const auto* file = pair.a->image().find_file(path);
      if (file == nullptr) continue;
      for (const std::string& id : file->segment_ids) {
        if (!before_segments.count(id) || !seen.insert(id).second) continue;
        const auto& segs = pair.a->image().segments();
        ++l.segments_deduped;
        if (auto it = segs.find(id); it != segs.end()) {
          l.dedup_bytes_saved += it->second.size;
        }
      }
    }
    l.segments_deduped += commit.report.segments_deduped;
    l.dedup_bytes_saved += commit.report.dedup_bytes_saved;
    out.last_written.clear();
    for (auto& [path, bytes] : writes) out.last_written.push_back(bytes);
  }

  // --- B applies -------------------------------------------------------------
  ++out.attempted;
  const Call apply = timed_sync(*pair.b, pair, traced, kPropagate, out);
  if (!apply.ok || !apply.report.applied_cloud) {
    out.fail("B's sync did not apply A's commit");
    return;
  }
  ++out.attempted;
  const double check_cpu0 = thread_cpu_s();
  const bool same = same_folder(*pair.fs_a, *pair.fs_b);
  out.harness_cpu_s += thread_cpu_s() - check_cpu0;
  if (!same) {
    out.fail("B's folder differs from A's after the apply");
    return;
  }

  // --- B polls an idle folder ------------------------------------------------
  for (std::size_t i = 0; i < w.idle_polls; ++i) {
    ++out.attempted;
    const Call idle = timed_sync(*pair.b, pair, traced, kIdle, out);
    if (!idle.ok || idle.report.committed || idle.report.applied_cloud) {
      out.fail("B's idle sync was not idle");
      return;
    }
    out.idle_s.push_back(idle.wall_s);
  }

  out.commit_s.push_back(commit.wall_s);
  out.propagate_s.push_back(apply.wall_s);
  out.commit_wall_s += commit.wall_s;
  out.propagate_wall_s += apply.wall_s;
  out.user_bytes += written;
  ++out.cycles;
}

// A warm-up cycle runs the same steps and checks, but only its failures
// reach the samples.
void run_cycle(const Workload& w, Pair& pair, std::size_t cycle, bool measured,
               bool trace, Samples& s) {
  if (measured) {
    cycle_steps(w, pair, cycle, trace, s);
    return;
  }
  Samples warm;
  cycle_steps(w, pair, cycle, false, warm);
  s.attempted += warm.attempted;
  if (warm.failed != 0) s.fail("warm-up: " + warm.failures.front());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Client counters of every measured device, summed.
ClientCounters all_counters(const std::vector<Pair>& pairs) {
  ClientCounters c;
  for (const Pair& p : pairs) {
    c += ClientCounters::read(p.a->observability()->metrics.snapshot());
    c += ClientCounters::read(p.b->observability()->metrics.snapshot());
  }
  return c;
}

// Runs once, when every pair has finished its warm-up and before any is
// released into the measured phase: starts the workload's outage and takes
// the baseline the end-to-end counts are measured from.
struct StartMeasuring {
  const Workload* w;
  std::vector<Pair>* pairs;
  ClientCounters* before;
  double* cpu0;
  void operator()() noexcept {
    for (Pair& p : *pairs) {
      for (auto& f : p.faulty) {
        if (f->id() == 0) f->set_outage(w->outage);
      }
    }
    *before = all_counters(*pairs);
    *cpu0 = cpu_seconds();
  }
};
using StartBarrier = std::barrier<StartMeasuring>;

// The pair's closed loop: one warm-up cycle, then measured cycles while the
// next one is expected to end within `seconds` of the measured start. At
// least one cycle is measured.
void run_pair(const Workload& w, Pair& pair, double seconds, bool trace,
              StartBarrier& start, Samples& s) {
  run_cycle(w, pair, 0, false, false, s);
  start.arrive_and_wait();
  const auto t0 = Clock::now();
  for (std::size_t cycle = 1; s.failed == 0; ++cycle) {
    const auto c0 = Clock::now();
    run_cycle(w, pair, cycle, true, trace, s);
    if (since(t0) + since(c0) > seconds) break;
  }
  s.measured_wall_s = since(t0);
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it (nearest
// rank: the sample of rank n - 10). Below 20 samples that percentile falls
// under the median, so the maximum is reported instead and labelled so.
struct Tail {
  double value = 0;
  std::string label;
};
Tail tail(std::vector<double> v) {
  if (v.empty()) return {0, "none"};
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 20) return {v.back(), "max"};
  const double pct =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  char label[32];
  std::snprintf(label, sizeof label, "p%.0f", std::floor(pct));
  return {v[n - 11], label};
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count / percentile, human output only
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Throughput of `fn` over `bytes` bytes per call, repeated for at least
// 0.2 s so small inputs still time steadily.
template <typename Fn>
double rate_MBps(std::uint64_t bytes, Fn&& fn) {
  if (bytes == 0) return 0;
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  do {
    fn();
    ++reps;
  } while (since(t0) < 0.2);
  return static_cast<double>(bytes) * static_cast<double>(reps) /
         since(t0) / kMB;
}

// The chunker, erasure and metadata-codec kernels timed on the workload's
// own bytes: the last cycle's writes and A's committed image.
KernelRates kernel_rates(const std::vector<Bytes>& written,
                         const core::UniDriveClient& a) {
  KernelRates r;
  const core::ClientConfig& cfg = a.config();
  const chunker::SegmenterParams params{cfg.theta};
  std::uint64_t total = 0;
  std::vector<Bytes> segments;
  for (const Bytes& b : written) {
    total += b.size();
    for (const auto& seg : chunker::segment_file(ByteSpan(b), params)) {
      segments.push_back(chunker::segment_bytes(ByteSpan(b), seg));
    }
  }
  r.segment_MBps = rate_MBps(total, [&] {
    for (const Bytes& b : written) {
      auto segs = chunker::segment_file(ByteSpan(b), params);
      if (segs.empty()) std::abort();
    }
  });
  const erasure::RsCode code = a.codec();
  std::vector<std::vector<erasure::Shard>> shards;
  for (const Bytes& seg : segments) {
    shards.push_back(code.encode(ByteSpan(seg)));
  }
  r.encode_MBps = rate_MBps(total, [&] {
    for (const Bytes& seg : segments) {
      if (code.encode(ByteSpan(seg)).size() != code.n()) std::abort();
    }
  });
  r.decode_MBps = rate_MBps(total, [&] {
    for (std::size_t i = 0; i < segments.size(); ++i) {
      // The last k shards: a decode that cannot take the identity shortcut.
      std::vector<erasure::Shard> some(shards[i].end() - code.k(),
                                       shards[i].end());
      auto out = code.decode(some, segments[i].size());
      if (!out.is_ok() || out.value() != segments[i]) std::abort();
    }
  });
  const metadata::MetadataCodec codec(cfg.passphrase, cfg.cipher);
  const Bytes image = codec.encode_image(a.image());
  r.meta_codec_MBps = rate_MBps(image.size(), [&] {
    auto decoded = codec.decode_image(ByteSpan(codec.encode_image(a.image())));
    if (!decoded.is_ok()) std::abort();
  });
  return r;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  bool area_count = true;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--no-area-count") {
      a.area_count = false;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  if (w.name.empty()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  // --- set-up, one pair after another, each timed
  std::vector<double> setups;
  std::vector<Pair> pairs(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto t0 = Clock::now();
    const std::string err = set_up_pair(w, args.seed, i, args.workdir,
                                        args.area_count, pairs[i]);
    if (!err.empty()) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setups.push_back(since(t0));
  }

  // --- closed loops, one thread per pair -------------------------------------
  std::vector<Samples> per_pair(kPairs);
  ClientCounters before;
  double cpu0 = 0;
  StartBarrier start(static_cast<std::ptrdiff_t>(kPairs),
                     StartMeasuring{&w, &pairs, &before, &cpu0});
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kPairs; ++i) {
    threads.emplace_back([&, i] {
      run_pair(w, pairs[i], args.seconds, args.trace, start, per_pair[i]);
    });
  }
  for (auto& t : threads) t.join();
  const double cpu_s = cpu_seconds() - cpu0;
  ClientCounters measured = all_counters(pairs);
  measured -= before;

  Samples s;
  for (const Samples& p : per_pair) s.merge(p);

  // Delivered-RPC cross-check: every request the counting clouds saw
  // succeed is one the clients' MeteredCloud counted as .ok.
  if (args.area_count) {
    const ClientCounters lifetime = all_counters(pairs);
    AreaTotals delivered;
    for (const Pair& p : pairs) delivered += p.area_totals();
    for (std::size_t a = 0; a < kAreas; ++a) {
      ++s.attempted;
      if (delivered.ok[a] != lifetime.ok[a]) {
        s.fail(std::string("counting cloud saw ") +
               std::to_string(delivered.ok[a]) + " ok " + kAreaNames[a] +
               " RPCs, clients counted " + std::to_string(lifetime.ok[a]));
      }
    }
  }
  if (s.cycles == 0) s.fail("no cycle completed");

  // --- report ----------------------------------------------------------------
  const double cycles = static_cast<double>(std::max<std::size_t>(1, s.cycles));
  std::vector<Metric> metrics;
  auto n_note = [](const std::vector<double>& v) {
    return "n=" + std::to_string(v.size());
  };
  auto timing = [&](const std::string& base, const std::vector<double>& v) {
    const Tail t = tail(v);
    metrics.push_back({base + "_p50_s", median(v), "s", n_note(v)});
    metrics.push_back(
        {base + "_tail_s", t.value, "s", t.label + ", " + n_note(v)});
  };
  const double up_MBps =
      s.commit_wall_s > 0 ? s.user_bytes / kMB / s.commit_wall_s : 0;
  const double down_MBps =
      s.propagate_wall_s > 0 ? s.user_bytes / kMB / s.propagate_wall_s : 0;
  if (!args.trace) {
    char range[64];
    std::snprintf(range, sizeof range, " (%.3f .. %.3f)",
                  *std::min_element(setups.begin(), setups.end()),
                  *std::max_element(setups.begin(), setups.end()));
    metrics.push_back({"setup_s", median(setups), "s",
                       "median of " + std::to_string(setups.size()) + range});
    metrics.push_back(
        {"upload_MBps", up_MBps, "MB/s", n_note(s.commit_s) + " commits"});
    metrics.push_back({"restore_MBps", down_MBps, "MB/s",
                       n_note(s.propagate_s) + " applies"});
    timing("edit_commit", s.commit_s);
    timing("propagate", s.propagate_s);
    timing("idle_poll", s.idle_s);
    metrics.push_back({"rpcs_per_cycle",
                       static_cast<double>(measured.rpcs()) / cycles, "count",
                       "n=" + std::to_string(s.cycles) + " cycles"});
    metrics.push_back(
        {"upload_amplification",
         s.user_bytes > 0
             ? static_cast<double>(measured.bytes_up) / s.user_bytes
             : 0,
         "ratio", "cloud bytes up / user bytes"});
    metrics.push_back({"cpu_ms_per_cycle",
                       1e3 * (cpu_s - s.harness_cpu_s) / cycles, "ms",
                       "n=" + std::to_string(s.cycles) +
                           " cycles, the benchmark's own CPU excluded"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", "process"});
  } else {
    const KernelRates rates =
        s.last_written.empty() ? KernelRates{}
                               : kernel_rates(s.last_written, *pairs[0].a);
    const double overhead =
        s.measured_wall_s > 0
            ? 100.0 * s.trace_bookkeeping_s / s.measured_wall_s
            : 0;
    for (const LayerMetric& m : layer_metrics(s.layers, rates, overhead)) {
      metrics.push_back({m.name, m.value, m.unit, ""});
    }
  }

  std::printf("workload %s  seed %llu  pairs %zu  cycles %zu  trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              kPairs, s.cycles, args.trace ? 1 : 0);
  std::printf("failed_ratio %.6f (%llu of %llu operations)\n",
              s.attempted ? static_cast<double>(s.failed) / s.attempted : 0.0,
              static_cast<unsigned long long>(s.failed),
              static_cast<unsigned long long>(s.attempted));
  for (const std::string& f : s.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  if (args.trace) {
    std::printf("repair: not exercised (the workloads run no maintenance "
                "task)\n");
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  const bool correct = s.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, s.attempted));
  json += ", \"failed\": " + std::to_string(s.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += json_string(metrics[i].name) + ": {\"value\": " +
            json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--no-area-count]\n");
    return 2;
  }
  return perfbench::run(args);
}
