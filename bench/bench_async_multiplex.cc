// bench_async_multiplex — the async completion layer's core claim: a fixed
// small thread pool multiplexes many more in-flight RPCs than it has
// threads, because requests park on the timer wheel / completion chain
// instead of pinning an executor thread for the round trip.
//
// Setup: 8 simulated high-latency clouds (LatentCloud, 40 ms per request,
// unlimited bandwidth — latency-bound on purpose), 16 files x 64 KiB at
// theta = 64 KiB, connections_per_cloud = 4. For each pool width in the
// UNIDRIVE_PIPELINE_THREADS sweep {1, 2, 4} the same sync round runs twice:
// blocking and async. The async round uses the LatentClouds as they are,
// so their delays park on the timer wheel. The blocking round hides each
// LatentCloud behind a pass-through decorator the async layer does not
// recognise, so every block RPC goes through a SyncAdapter and holds one
// pool thread for its whole round trip. Per round we record wall-clock time
// and the driver's peak in-flight RPC gauge. In the blocking rows that
// gauge also counts RPCs queued on the adapter waiting for a thread.
//
// Emits BENCH_async.json (CI artifact). Hard gates, both on the 2-thread
// row: peak in-flight async RPCs must be >= 4x the pool width (the
// multiplexing claim), and the async round must be no slower than 1.10x
// the blocking round (measured at about 1.1x faster: the round is
// dominated by lock and metadata round trips, which are blocking in both
// modes).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cloud/latent_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/provider.h"
#include "common/rng.h"
#include "core/client.h"
#include "core/local_fs.h"

namespace unidrive::bench {
namespace {

constexpr int kClouds = 8;
constexpr int kFiles = 16;
constexpr std::size_t kFileBytes = 64 << 10;
constexpr std::size_t kTheta = 64 << 10;
constexpr double kLatencySec = 0.040;
constexpr std::size_t kConnectionsPerCloud = 4;

// Forwards every verb to the wrapped cloud. cloud::to_async() does not
// recognise this type, so the async twin of a chain containing it ends in
// a SyncAdapter leaf that runs each RPC on a pool thread.
class ThreadBoundCloud final : public cloud::CloudProvider {
 public:
  explicit ThreadBoundCloud(cloud::CloudPtr inner) : inner_(std::move(inner)) {}

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Status upload(const std::string& path, ByteSpan data) override {
    return inner_->upload(path, data);
  }
  Result<Bytes> download(const std::string& path) override {
    return inner_->download(path);
  }
  Status create_dir(const std::string& path) override {
    return inner_->create_dir(path);
  }
  Result<std::vector<cloud::FileInfo>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  Status remove(const std::string& path) override {
    return inner_->remove(path);
  }

 private:
  cloud::CloudPtr inner_;
};

struct RoundResult {
  double seconds = 0;
  std::size_t segments = 0;
  double rpcs_inflight_peak = 0;
};

RoundResult run_round(std::size_t threads, bool async) {
  // The sweep drives the real knob: the environment variable overrides
  // every configured pool width.
  setenv("UNIDRIVE_PIPELINE_THREADS", std::to_string(threads).c_str(), 1);

  cloud::MultiCloud clouds;
  for (int i = 0; i < kClouds; ++i) {
    cloud::LinkProfile link;
    link.request_latency_sec = kLatencySec;
    cloud::CloudPtr latent = std::make_shared<cloud::LatentCloud>(
        std::make_shared<cloud::MemoryCloud>(static_cast<cloud::CloudId>(i),
                                             "cloud" + std::to_string(i)),
        link);
    if (!async) latent = std::make_shared<ThreadBoundCloud>(latent);
    clouds.push_back(std::move(latent));
  }

  auto fs = std::make_shared<core::MemoryLocalFs>();
  core::ClientConfig cfg;
  cfg.device = "bench";
  cfg.theta = kTheta;
  cfg.driver.connections_per_cloud = kConnectionsPerCloud;
  core::UniDriveClient client(clouds, fs, cfg);

  Rng rng(7);
  for (int i = 0; i < kFiles; ++i) {
    const std::string path =
        "/data/file" + std::to_string(i / 10) + std::to_string(i % 10);
    if (!fs->write(path, ByteSpan(rng.bytes(kFileBytes))).is_ok()) {
      std::fprintf(stderr, "local write failed\n");
      std::exit(2);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  const auto report = client.sync();
  const auto stop = std::chrono::steady_clock::now();
  unsetenv("UNIDRIVE_PIPELINE_THREADS");
  if (!report.is_ok() || !report.value().committed) {
    std::fprintf(stderr, "sync round failed: %s\n",
                 report.status().to_string().c_str());
    std::exit(2);
  }

  RoundResult out;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  out.segments = report.value().segments_uploaded;
  out.rpcs_inflight_peak =
      report.value().metrics.gauge_value("driver.up.rpcs_inflight_peak");
  return out;
}

int run() {
  std::printf(
      "bench_async_multiplex: %d clouds @ %.0f ms latency, %d files x "
      "%zu KiB, %zu connections/cloud\n",
      kClouds, kLatencySec * 1e3, kFiles, kFileBytes >> 10,
      kConnectionsPerCloud);
  std::printf("  %-8s %-10s %10s %16s\n", "threads", "mode", "time (s)",
              "peak inflight");

  const std::vector<std::size_t> sweep = {1, 2, 4};
  std::vector<RoundResult> blocking(sweep.size());
  std::vector<RoundResult> async_r(sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    blocking[i] = run_round(sweep[i], /*async=*/false);
    std::printf("  %-8zu %-10s %10.3f %16.0f\n", sweep[i], "blocking",
                blocking[i].seconds, blocking[i].rpcs_inflight_peak);
    async_r[i] = run_round(sweep[i], /*async=*/true);
    std::printf("  %-8zu %-10s %10.3f %16.0f\n", sweep[i], "async",
                async_r[i].seconds, async_r[i].rpcs_inflight_peak);
  }

  FILE* json = std::fopen("BENCH_async.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"clouds\": %d,\n"
                 "  \"latency_ms\": %.0f,\n"
                 "  \"files\": %d,\n"
                 "  \"file_bytes\": %zu,\n"
                 "  \"connections_per_cloud\": %zu,\n"
                 "  \"blocking_inflight_peak_note\": \"counts RPCs queued on "
                 "the SyncAdapter for a pool thread, not only RPCs on the "
                 "wire\",\n"
                 "  \"sweep\": [\n",
                 kClouds, kLatencySec * 1e3, kFiles, kFileBytes,
                 kConnectionsPerCloud);
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(json,
                   "    {\"threads\": %zu, \"blocking_s\": %.4f, "
                   "\"async_s\": %.4f, \"blocking_inflight_peak\": %.0f, "
                   "\"async_inflight_peak\": %.0f, \"speedup\": %.3f}%s\n",
                   sweep[i], blocking[i].seconds, async_r[i].seconds,
                   blocking[i].rpcs_inflight_peak,
                   async_r[i].rpcs_inflight_peak,
                   async_r[i].seconds > 0
                       ? blocking[i].seconds / async_r[i].seconds
                       : 0.0,
                   i + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
  }

  // Hard gates on the 2-thread row (sweep index 1).
  const std::size_t threads = sweep[1];
  const RoundResult& a2 = async_r[1];
  const RoundResult& b2 = blocking[1];
  int failures = 0;
  if (a2.rpcs_inflight_peak < 4.0 * static_cast<double>(threads)) {
    std::fprintf(stderr,
                 "FAIL: async peak in-flight RPCs %.0f < 4x pool width %zu — "
                 "the completion layer is not multiplexing\n",
                 a2.rpcs_inflight_peak, threads);
    ++failures;
  }
  if (a2.seconds > b2.seconds * 1.10) {
    std::fprintf(stderr,
                 "FAIL: async round %.3fs slower than blocking %.3fs x1.10\n",
                 a2.seconds, b2.seconds);
    ++failures;
  }
  if (failures == 0) {
    std::printf(
        "  gates: async peak inflight %.0f >= %zu (4x threads), "
        "async %.3fs <= blocking %.3fs (%.1fx faster)\n",
        a2.rpcs_inflight_peak, 4 * threads, a2.seconds, b2.seconds,
        a2.seconds > 0 ? b2.seconds / a2.seconds : 0.0);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace unidrive::bench

int main() { return unidrive::bench::run(); }
