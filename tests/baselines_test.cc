#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/chunk_pipeline.h"
#include "baselines/e2e_baselines.h"
#include "baselines/intuitive.h"
#include "baselines/native_app.h"
#include "sim/profiles.h"

namespace unidrive::baselines {
namespace {

using sim::CloudKind;
using sim::CloudSet;
using sim::SimEnv;

CloudSet clean_set(SimEnv& env, std::size_t location_index,
                   std::uint64_t seed) {
  return sim::make_cloud_set(env, sim::planetlab_locations()[location_index],
                             seed, /*with_failures=*/false);
}

TEST(NativeAppTest, UploadTimeScalesWithSize) {
  SimEnv env(1);
  CloudSet set = clean_set(env, 0, 1);
  const double t1 =
      native_upload_time(env, *set.clouds[0], CloudKind::kDropbox, 1 << 20);
  const double t8 =
      native_upload_time(env, *set.clouds[0], CloudKind::kDropbox, 8 << 20);
  ASSERT_GT(t1, 0);
  ASSERT_GT(t8, 0);
  EXPECT_GT(t8, t1 * 2);
}

TEST(NativeAppTest, FasterCloudFasterTransfer) {
  SimEnv env(2);
  CloudSet set = clean_set(env, 0, 2);  // Princeton: Dropbox >> DBank
  const double dropbox =
      native_upload_time(env, *set.clouds[0], CloudKind::kDropbox, 4 << 20);
  const double dbank =
      native_upload_time(env, *set.clouds[4], CloudKind::kDBank, 4 << 20);
  EXPECT_LT(dropbox, dbank / 3);
}

TEST(NativeAppTest, BatchCompletesAllFiles) {
  SimEnv env(3);
  CloudSet set = clean_set(env, 0, 3);
  const auto result = native_transfer_batch(
      env, *set.clouds[0], CloudKind::kDropbox,
      std::vector<std::uint64_t>(10, 1 << 20), /*download=*/false);
  EXPECT_TRUE(result.success);
  for (const double t : result.file_done_time) EXPECT_GE(t, 0);
}

TEST(NativeAppTest, MultiChunkFilesSplitAtFourMb) {
  SimEnv env(4);
  CloudSet set = clean_set(env, 0, 4);
  // A 9 MB file (3 chunks) on a 2-connection client must take longer than
  // a pure bandwidth division would if chunks were unlimited-parallel.
  const double t =
      native_upload_time(env, *set.clouds[1], CloudKind::kOneDrive, 9 << 20);
  EXPECT_GT(t, 0);
}

TEST(NativeAppTest, DownloadWorksToo) {
  SimEnv env(5);
  CloudSet set = clean_set(env, 0, 5);
  const double t = native_download_time(env, *set.clouds[0],
                                        CloudKind::kDropbox, 4 << 20);
  EXPECT_GT(t, 0);
}

TEST(NativeAppTest, SurvivesTransientFailures) {
  SimEnv env(6);
  CloudSet set = sim::make_cloud_set(env, sim::planetlab_locations()[0], 6,
                                     /*with_failures=*/true);
  const auto result = native_transfer_batch(
      env, *set.clouds[0], CloudKind::kDropbox,
      std::vector<std::uint64_t>(5, 1 << 20), /*download=*/false);
  EXPECT_TRUE(result.success);
}

TEST(IntuitiveTest, SlowedByTheSlowestCloud) {
  SimEnv env(7);
  CloudSet set = clean_set(env, 0, 7);  // US: DBank is the crawler
  const double intuitive = intuitive_upload_time(env, set, 10 << 20);
  const double native_fast =
      native_upload_time(env, *set.clouds[0], CloudKind::kDropbox, 10 << 20);
  ASSERT_GT(intuitive, 0);
  ASSERT_GT(native_fast, 0);
  // Each cloud moves only 1/5 of the file, but DBank's 1 Mbps on 2 MB still
  // dominates Dropbox's 24 Mbps on the whole 10 MB.
  EXPECT_GT(intuitive, native_fast);
}

TEST(IntuitiveTest, BatchReportsPerFileTimes) {
  SimEnv env(8);
  CloudSet set = clean_set(env, 0, 8);
  const auto result = intuitive_transfer_batch(
      env, set, std::vector<std::uint64_t>(5, 1 << 20), /*download=*/false);
  EXPECT_TRUE(result.success);
  for (const double t : result.file_done_time) EXPECT_GE(t, 0);
}

TEST(IntuitiveTest, DownloadDirection) {
  SimEnv env(9);
  CloudSet set = clean_set(env, 0, 9);
  const double t = intuitive_download_time(env, set, 5 << 20);
  EXPECT_GT(t, 0);
}

// Per-file finish times of a striped batch (every file split over all five
// clouds, like the intuitive baseline) through one ChunkPipeline. The
// clouds are copies of a fresh seeded set, placed in one array either in
// id order or reversed, so the two layouts differ only in the clouds'
// addresses.
std::vector<double> striped_batch_times(bool reversed, bool download) {
  SimEnv env(11);
  CloudSet set =
      sim::make_cloud_set(env, sim::planetlab_locations()[0], 11);
  std::vector<std::optional<sim::SimCloud>> storage(set.clouds.size());
  std::vector<sim::SimCloud*> by_id(set.clouds.size());
  std::map<sim::SimCloud*, std::size_t> connections;
  for (std::size_t c = 0; c < set.clouds.size(); ++c) {
    const std::size_t at = reversed ? set.clouds.size() - 1 - c : c;
    by_id[c] = &storage[at].emplace(*set.clouds[c]);
    connections[by_id[c]] =
        native_app_spec(static_cast<CloudKind>(c)).connections;
  }
  auto pipeline = std::make_shared<ChunkPipeline>(env, download, connections);
  std::vector<double> done_at(20, -1.0);
  std::size_t done = 0;
  pipeline->on_file_done = [&](std::size_t file, bool ok) {
    done_at[file] = ok ? env.now() : -2.0;
    ++done;
  };
  for (std::size_t f = 0; f < done_at.size(); ++f) {
    std::vector<ChunkTask> chunks;
    for (sim::SimCloud* cloud : by_id) chunks.push_back({f, cloud, 300e3});
    pipeline->add_file(f, chunks);
  }
  while (done < done_at.size() && env.step()) {
  }
  return done_at;
}

// The pipeline used to serve clouds in pointer order, so the baselines'
// figures moved with heap layout and build type.
TEST(ChunkPipelineTest, ResultsDoNotDependOnCloudAddresses) {
  for (const bool download : {false, true}) {
    const std::vector<double> forward = striped_batch_times(false, download);
    const std::vector<double> reversed = striped_batch_times(true, download);
    for (const double t : forward) EXPECT_GT(t, 0) << download;
    EXPECT_EQ(forward, reversed) << "download=" << download;
  }
}

// --- end-to-end baselines ------------------------------------------------------

TEST(BaselineE2ETest, NativeSyncReachesAllDownloaders) {
  SimEnv env(20);
  CloudSet up = clean_set(env, 0, 20);
  CloudSet down1 = clean_set(env, 1, 21);
  CloudSet down2 = clean_set(env, 3, 22);

  BaselineE2EConfig config;
  config.num_files = 10;
  config.file_size = 1 << 20;
  const auto result = native_e2e(
      env, *up.clouds[0], {down1.clouds[0].get(), down2.clouds[0].get()},
      CloudKind::kDropbox, config);
  ASSERT_TRUE(result.success);
  EXPECT_GT(result.upload_complete, 0);
  EXPECT_GT(result.batch_sync_time, result.upload_complete * 0.5);
  ASSERT_EQ(result.file_sync_time.size(), 2u);
  for (const auto& device : result.file_sync_time) {
    for (const double t : device) EXPECT_GT(t, 0);
  }
}

TEST(BaselineE2ETest, FilesArriveIncrementally) {
  SimEnv env(23);
  CloudSet up = clean_set(env, 0, 23);
  CloudSet down = clean_set(env, 1, 24);
  BaselineE2EConfig config;
  config.num_files = 20;
  config.file_size = 1 << 20;
  config.poll_interval = 2.0;
  const auto result = native_e2e(env, *up.clouds[0], {down.clouds[0].get()},
                                 CloudKind::kDropbox, config);
  ASSERT_TRUE(result.success);
  auto times = result.file_sync_time[0];
  std::sort(times.begin(), times.end());
  // Streaming: the first file lands well before the last.
  EXPECT_LT(times.front(), times.back() * 0.75);
}

TEST(BaselineE2ETest, IntuitiveSlowerThanFastNative) {
  // The defining weakness: the intuitive multi-cloud batch is bound by the
  // slowest cloud even though each cloud moves only 1/5 of each file.
  BaselineE2EConfig config;
  config.num_files = 15;
  config.file_size = 1 << 20;

  SimEnv env1(25);
  CloudSet up1 = clean_set(env1, 0, 25);
  CloudSet down1 = clean_set(env1, 1, 26);
  std::vector<const CloudSet*> downs = {&down1};
  const auto intuitive = intuitive_e2e(env1, up1, downs, config);
  ASSERT_TRUE(intuitive.success);

  SimEnv env2(25);
  CloudSet up2 = clean_set(env2, 0, 25);
  CloudSet down2 = clean_set(env2, 1, 26);
  const auto native = native_e2e(env2, *up2.clouds[0], {down2.clouds[0].get()},
                                 CloudKind::kDropbox, config);
  ASSERT_TRUE(native.success);

  EXPECT_GT(intuitive.batch_sync_time, native.batch_sync_time);
}

TEST(BaselineE2ETest, SurvivesTransientFailures) {
  SimEnv env(27);
  CloudSet up = sim::make_cloud_set(env, sim::planetlab_locations()[0], 27,
                                    /*with_failures=*/true);
  CloudSet down = sim::make_cloud_set(env, sim::planetlab_locations()[1], 28,
                                      /*with_failures=*/true);
  BaselineE2EConfig config;
  config.num_files = 8;
  config.file_size = 512 << 10;
  const auto result = native_e2e(env, *up.clouds[0], {down.clouds[0].get()},
                                 CloudKind::kDropbox, config);
  EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace unidrive::baselines
