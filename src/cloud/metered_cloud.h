// Request areas — how per-cloud request metering classifies paths.
//
// The client meters every request attempt on its one cloud stack
// (AsyncMeteredCloud, composed by guard_clouds() in cloud/async.h UNDER the
// retry layer, so retries show up as extra requests — exactly the per-cloud
// traffic a provider would bill for and the quantity the paper's Fig. 4
// success rates are measured against). It records, into the client's
// Observability:
//
//   cloud.<name>.<verb>.<area>.ok|err   request outcome counters, where
//                                       verb ∈ {upload, download, list,
//                                       create_dir, remove} and area is
//                                       request_area(path);
//   cloud.<name>.bytes_up|bytes_down    payload bytes actually moved;
//   cloud.<name>.<verb>.latency         per-request latency histogram.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace unidrive::cloud {

// The areas, in request_area_index() order. They mirror the layout the
// client uses on every cloud (metadata/types.h): erasure-coded blocks under
// /data, shard/manifest/root objects under /meta, lock files under /lock.
inline constexpr std::array<const char*, 4> kRequestAreas = {
    "data", "meta", "lock", "other"};

[[nodiscard]] inline std::size_t request_area_index(const std::string& path) {
  if (path.rfind("/data", 0) == 0) return 0;
  if (path.rfind("/meta", 0) == 0) return 1;
  if (path.rfind("/lock", 0) == 0) return 2;
  return 3;
}

// Buckets a request path by what it carries.
[[nodiscard]] inline const char* request_area(const std::string& path) {
  return kRequestAreas[request_area_index(path)];
}

}  // namespace unidrive::cloud
