// AreaCountingCloud — the benchmark's own request counter.
//
// Counts, per path area (/data blocks, /meta metadata, /lock lock files,
// anything else), the requests that reached the provider and succeeded, and
// the payload bytes they moved. The benchmark composes it directly UNDER
// LatentCloud:
//
//   client: Retrying(Metered( Latent( AreaCounting( [Faulty(] Memory [)] ))))
//
// cloud::to_async() rebuilds LatentCloud as a native async decorator that
// parks its delays on the timer wheel, and turns the first provider it does
// not recognise into a thread-bound SyncAdapter leaf. Below LatentCloud
// that leaf already exists (MemoryCloud is not recognised either), so this
// decorator changes nothing about how RPCs are scheduled; above it, every
// delayed RPC would pin a pool thread. It sits above FaultyCloud because a
// FaultyCloud download reads the inner store before it fails the request:
// below it, an outage would look like a served request.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "cloud/metered_cloud.h"
#include "cloud/provider.h"

namespace perfbench {

enum Area : std::size_t { kData, kMeta, kLock, kOther, kAreas };
inline constexpr std::array<const char*, kAreas> kAreaNames = {
    "data", "meta", "lock", "other"};

// The area index of a name cloud::request_area() returns.
[[nodiscard]] inline Area area_index(const std::string& name) {
  for (std::size_t a = 0; a < kAreas; ++a) {
    if (name == kAreaNames[a]) return static_cast<Area>(a);
  }
  return kOther;
}

struct AreaTotals {
  std::array<std::uint64_t, kAreas> ok{};
  std::array<std::uint64_t, kAreas> bytes_up{};
  std::array<std::uint64_t, kAreas> bytes_down{};
};

class AreaCountingCloud final : public unidrive::cloud::CloudProvider {
 public:
  explicit AreaCountingCloud(unidrive::cloud::CloudPtr inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] unidrive::cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  unidrive::Status upload(const std::string& path,
                          unidrive::ByteSpan data) override {
    unidrive::Status s = inner_->upload(path, data);
    count(path, s.is_ok(), data.size(), 0);
    return s;
  }
  unidrive::Result<unidrive::Bytes> download(
      const std::string& path) override {
    auto r = inner_->download(path);
    count(path, r.is_ok(), 0, r.is_ok() ? r.value().size() : 0);
    return r;
  }
  unidrive::Status create_dir(const std::string& path) override {
    unidrive::Status s = inner_->create_dir(path);
    count(path, s.is_ok(), 0, 0);
    return s;
  }
  unidrive::Result<std::vector<unidrive::cloud::FileInfo>> list(
      const std::string& dir) override {
    auto r = inner_->list(dir);
    count(dir, r.is_ok(), 0, 0);
    return r;
  }
  unidrive::Status remove(const std::string& path) override {
    unidrive::Status s = inner_->remove(path);
    count(path, s.is_ok(), 0, 0);
    return s;
  }

  [[nodiscard]] AreaTotals totals() const {
    AreaTotals t;
    for (std::size_t a = 0; a < kAreas; ++a) {
      t.ok[a] = ok_[a].load();
      t.bytes_up[a] = up_[a].load();
      t.bytes_down[a] = down_[a].load();
    }
    return t;
  }

 private:
  void count(const std::string& path, bool ok, std::size_t up,
             std::size_t down) {
    if (!ok) return;
    const Area a = area_index(unidrive::cloud::request_area(path));
    ok_[a].fetch_add(1);
    up_[a].fetch_add(up);
    down_[a].fetch_add(down);
  }

  unidrive::cloud::CloudPtr inner_;
  std::array<std::atomic<std::uint64_t>, kAreas> ok_{};
  std::array<std::atomic<std::uint64_t>, kAreas> up_{};
  std::array<std::atomic<std::uint64_t>, kAreas> down_{};
};

}  // namespace perfbench
