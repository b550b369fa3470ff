// bench_setup — the edit_churn set-up of perfbench, run over and over in
// one process, to show how its time is distributed from run to run.
//
// One run: device A commits a fresh folder of 500 x 4 KiB files in 50
// directories over five undelayed MemoryClouds (its first sync), then
// device B restores it (B's first sync). This is what perfbench's
// edit_churn workload times as setup_s, minus the hand-over to the
// latency-bearing stack. Every run gets fresh clouds, folders and file
// contents.
//
// Per run it prints wall time, process CPU time, voluntary context
// switches, and where A's sync and B's sync spent their time (the
// sync.scan / sync.upload_segments / sync.commit / sync.apply_cloud
// children of each sync.round span). CPU and context switches are for the
// whole process, so they include the client's pool threads.
//
// Emits BENCH_setup.json: every run, plus the median and p90/median of the
// run wall time and CPU. No gate: the ratio p90/median is the number to
// watch, since a run-to-run spread is what this bench exists to expose.
//
// Usage: bench_setup [runs] [seed]   (defaults: 30 runs, seed 1)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/memory_cloud.h"
#include "cloud/provider.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"

namespace unidrive::bench {
namespace {

using WallClock = std::chrono::steady_clock;

constexpr std::size_t kClouds = 5;
constexpr std::size_t kFiles = 500;
constexpr std::size_t kDirs = 50;
constexpr std::size_t kFileBytes = 4 << 10;
const char* const kSpans[] = {"sync.scan", "sync.upload_segments",
                              "sync.commit", "sync.apply_cloud"};

struct Usage {
  double cpu_s = 0;
  long voluntary_switches = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    u.voluntary_switches = ru.ru_nvcsw;
    return u;
  }
};

// One sync() call and the time each sync.* child of its round took.
struct SyncSplit {
  bool ok = false;
  double wall_s = 0;
  std::map<std::string, double> spans;  // name -> seconds
};

SyncSplit timed_sync(core::UniDriveClient& client) {
  SyncSplit out;
  obs::Tracer& tracer = client.observability()->tracer;
  tracer.clear();
  const auto t0 = WallClock::now();
  auto r = client.sync();
  out.wall_s = std::chrono::duration<double>(WallClock::now() - t0).count();
  out.ok = r.is_ok() && r.value().materialize.is_ok();
  const std::vector<obs::SpanRecord> spans = tracer.finished();
  std::uint64_t round = 0;
  for (const obs::SpanRecord& s : spans) {
    if (s.name == "sync.round" && s.parent == 0) round = s.id;
  }
  for (const obs::SpanRecord& s : spans) {
    if (round != 0 && s.parent == round) out.spans[s.name] += s.duration();
  }
  return out;
}

struct Run {
  bool ok = false;
  double wall_s = 0;
  double cpu_s = 0;
  long voluntary_switches = 0;
  SyncSplit commit;   // A's first sync
  SyncSplit restore;  // B's first sync
};

Run run_once(std::uint64_t seed, std::size_t index) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + index + 1);
  cloud::MultiCloud clouds;
  for (std::size_t c = 0; c < kClouds; ++c) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(c), "cloud" + std::to_string(c)));
  }
  auto fs_a = std::make_shared<core::MemoryLocalFs>();
  auto fs_b = std::make_shared<core::MemoryLocalFs>();
  Bytes content(kFileBytes);
  for (std::size_t i = 0; i < kFiles; ++i) {
    for (std::size_t b = 0; b < content.size(); b += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(content.data() + b, &v,
                  std::min<std::size_t>(8, content.size() - b));
    }
    const std::string path = "/d" + std::to_string(i % kDirs) + "/f" +
                             std::to_string(i) + ".txt";
    if (!fs_a->write(path, ByteSpan(content)).is_ok()) return {};
  }

  core::ClientConfig config_a;
  config_a.device = "A";
  core::ClientConfig config_b;
  config_b.device = "B";

  Run run;
  const Usage u0 = Usage::now();
  const auto t0 = WallClock::now();
  {
    core::UniDriveClient a(clouds, fs_a, config_a);
    run.commit = timed_sync(a);
    core::UniDriveClient b(clouds, fs_b, config_b);
    run.restore = timed_sync(b);
  }
  run.wall_s = std::chrono::duration<double>(WallClock::now() - t0).count();
  const Usage u1 = Usage::now();
  run.cpu_s = u1.cpu_s - u0.cpu_s;
  run.voluntary_switches = u1.voluntary_switches - u0.voluntary_switches;
  run.ok = run.commit.ok && run.restore.ok &&
           fs_b->list_files().size() == kFiles;
  return run;
}

// The q-quantile of `v` (nearest rank).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double span_of(const SyncSplit& s, const char* name) {
  const auto it = s.spans.find(name);
  return it == s.spans.end() ? 0.0 : it->second;
}

void print_split(FILE* out, const SyncSplit& s) {
  std::fprintf(out, "{\"wall_s\": %.4f", s.wall_s);
  for (const char* name : kSpans) {
    std::fprintf(out, ", \"%s_s\": %.4f", name, span_of(s, name));
  }
  std::fprintf(out, "}");
}

int run_bench(std::size_t runs, std::uint64_t seed) {
  std::printf("bench_setup: %zu runs of the edit_churn set-up "
              "(%zu x %zu B files, %zu clouds, seed %llu)\n",
              runs, kFiles, kFileBytes, kClouds,
              static_cast<unsigned long long>(seed));
  std::printf("%4s %8s %8s %8s | %8s %8s %8s | %8s %8s\n", "run", "wall_s",
              "cpu_s", "vol_csw", "A_sync", "A_scan", "A_upload", "B_sync",
              "B_apply");
  std::vector<Run> all;
  std::vector<double> walls, cpus;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    Run r = run_once(seed, i);
    if (!r.ok) ++failed;
    std::printf("%4zu %8.3f %8.3f %8ld | %8.3f %8.3f %8.3f | %8.3f %8.3f%s\n",
                i, r.wall_s, r.cpu_s, r.voluntary_switches, r.commit.wall_s,
                span_of(r.commit, "sync.scan"),
                span_of(r.commit, "sync.upload_segments"), r.restore.wall_s,
                span_of(r.restore, "sync.apply_cloud"), r.ok ? "" : "  FAILED");
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    all.push_back(std::move(r));
  }
  const double wall_med = quantile(walls, 0.5);
  const double cpu_med = quantile(cpus, 0.5);
  const double wall_ratio = wall_med > 0 ? quantile(walls, 0.9) / wall_med : 0;
  const double cpu_ratio = cpu_med > 0 ? quantile(cpus, 0.9) / cpu_med : 0;
  std::printf("median wall %.3f s (p90/median %.2f), median CPU %.3f s "
              "(p90/median %.2f), %zu failed\n",
              wall_med, wall_ratio, cpu_med, cpu_ratio, failed);

  if (FILE* json = std::fopen("BENCH_setup.json", "w")) {
    std::fprintf(json,
                 "{\n  \"runs\": %zu,\n  \"seed\": %llu,\n  \"failed\": %zu,\n"
                 "  \"wall_median_s\": %.4f,\n  \"wall_p90_over_median\": "
                 "%.3f,\n  \"cpu_median_s\": %.4f,\n"
                 "  \"cpu_p90_over_median\": %.3f,\n  \"per_run\": [\n",
                 runs, static_cast<unsigned long long>(seed), failed,
                 wall_med, wall_ratio, cpu_med, cpu_ratio);
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Run& r = all[i];
      std::fprintf(json,
                   "    {\"ok\": %s, \"wall_s\": %.4f, \"cpu_s\": %.4f, "
                   "\"voluntary_switches\": %ld, \"commit\": ",
                   r.ok ? "true" : "false", r.wall_s, r.cpu_s,
                   r.voluntary_switches);
      print_split(json, r.commit);
      std::fprintf(json, ", \"restore\": ");
      print_split(json, r.restore);
      std::fprintf(json, "}%s\n", i + 1 < all.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace unidrive::bench

int main(int argc, char** argv) {
  const std::size_t runs =
      argc > 1 ? static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10))
               : 30;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;
  return unidrive::bench::run_bench(runs == 0 ? 30 : runs, seed);
}
