#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "cloud/faulty_cloud.h"
#include "cloud/memory_cloud.h"
#include "cloud/stats_cloud.h"
#include "common/rng.h"
#include "core/change_scanner.h"
#include "core/client.h"
#include "core/sync_daemon.h"
#include "core/local_fs.h"
#include "metadata/shard.h"

namespace unidrive::core {
namespace {

Bytes text(const std::string& s) { return bytes_from_string(s); }

cloud::MultiCloud make_clouds(int n) {
  cloud::MultiCloud clouds;
  for (int i = 0; i < n; ++i) {
    clouds.push_back(std::make_shared<cloud::MemoryCloud>(
        static_cast<cloud::CloudId>(i), "cloud" + std::to_string(i)));
  }
  return clouds;
}

ClientConfig test_config(const std::string& device) {
  ClientConfig cfg;
  cfg.device = device;
  cfg.theta = 64 << 10;  // small segments so tests stay fast
  cfg.lock.retry.backoff_base = 0.001;
  cfg.lock.retry.backoff_cap = 0.01;
  cfg.driver.connections_per_cloud = 2;
  return cfg;
}

// --- LocalFs ------------------------------------------------------------------

TEST(MemoryLocalFsTest, ReadWriteRemove) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a.txt", ByteSpan(text("hi"))).is_ok());
  EXPECT_EQ(fs.read("/a.txt").value(), text("hi"));
  EXPECT_EQ(fs.size("/a.txt").value(), 2u);
  EXPECT_TRUE(fs.remove("/a.txt").is_ok());
  EXPECT_EQ(fs.read("/a.txt").code(), ErrorCode::kNotFound);
}

TEST(MemoryLocalFsTest, MtimeAdvancesOnWrite) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("1"))).is_ok());
  const double t1 = fs.mtime("/a").value();
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("2"))).is_ok());
  EXPECT_GT(fs.mtime("/a").value(), t1);
}

TEST(MemoryLocalFsTest, ListSorted) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/b", ByteSpan(text("1"))).is_ok());
  ASSERT_TRUE(fs.write("/a", ByteSpan(text("2"))).is_ok());
  ASSERT_TRUE(fs.write("/dir/c", ByteSpan(text("3"))).is_ok());
  EXPECT_EQ(fs.list_files(),
            (std::vector<std::string>{"/a", "/b", "/dir/c"}));
}

TEST(DiskLocalFsTest, RoundTripOnRealDirectory) {
  const std::string root =
      (std::filesystem::temp_directory_path() / "unidrive_fs_test").string();
  std::filesystem::remove_all(root);
  DiskLocalFs fs(root);
  ASSERT_TRUE(fs.write("/docs/a.txt", ByteSpan(text("hello"))).is_ok());
  EXPECT_EQ(fs.read("/docs/a.txt").value(), text("hello"));
  EXPECT_EQ(fs.list_files(), std::vector<std::string>{"/docs/a.txt"});
  EXPECT_EQ(fs.size("/docs/a.txt").value(), 5u);
  EXPECT_TRUE(fs.remove("/docs/a.txt").is_ok());
  EXPECT_TRUE(fs.list_files().empty());
  std::filesystem::remove_all(root);
}

// --- change scanner -------------------------------------------------------------

TEST(ChangeScannerTest, DetectsAdditions) {
  MemoryLocalFs fs;
  Rng rng(1);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs.write("/new.bin", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  const ScanResult scan =
      scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10}, "dev");
  ASSERT_EQ(scan.touched.size(), 1u);
  EXPECT_EQ(scan.touched[0].path, "/new.bin");
  EXPECT_FALSE(scan.new_segments.empty());
  // Segment bytes must reassemble the file.
  std::size_t total = 0;
  for (const auto& [id, data] : scan.new_segments) total += data.size();
  EXPECT_EQ(total, content.size());
}

TEST(ChangeScannerTest, UnchangedFileNotReported) {
  MemoryLocalFs fs;
  Rng rng(2);
  const Bytes content = rng.bytes(50000);
  ASSERT_TRUE(fs.write("/f", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  const ScanResult first =
      scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10}, "dev");
  for (const metadata::Change& c : first.changes.changes()) {
    apply_change(image, c);
  }
  for (const auto& [id, data] : first.new_segments) {
    metadata::SegmentInfo seg;
    seg.id = id;
    seg.size = data.size();
    image.upsert_segment(seg);
  }
  const ScanResult second =
      scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10}, "dev");
  EXPECT_TRUE(second.changes.empty());
}

TEST(ChangeScannerTest, DetectsDeletions) {
  MemoryLocalFs fs;
  metadata::SyncFolderImage image;
  metadata::FileSnapshot snap;
  snap.path = "/gone";
  snap.size = 3;
  snap.content_hash = "x";
  image.upsert_file(snap);
  const ScanResult scan =
      scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10}, "dev");
  ASSERT_EQ(scan.changes.size(), 1u);
  EXPECT_EQ(scan.changes.changes()[0].kind, metadata::ChangeKind::kDeleteFile);
}

TEST(ChangeScannerTest, DedupAcrossIdenticalFiles) {
  MemoryLocalFs fs;
  Rng rng(3);
  const Bytes content = rng.bytes(30000);
  ASSERT_TRUE(fs.write("/a", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs.write("/b", ByteSpan(content)).is_ok());
  metadata::SyncFolderImage image;
  const ScanResult scan =
      scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10}, "dev");
  EXPECT_EQ(scan.touched.size(), 2u);
  // Identical content -> shared segments -> uploaded once.
  EXPECT_EQ(scan.new_segments.size(), 1u);
}

// --- end-to-end client -----------------------------------------------------------

class ClientTest : public ::testing::Test {
 protected:
  void SetUp() override { clouds_ = make_clouds(5); }

  std::unique_ptr<UniDriveClient> make_client(const std::string& device,
                                              std::shared_ptr<LocalFs> fs) {
    return std::make_unique<UniDriveClient>(clouds_, std::move(fs),
                                            test_config(device));
  }

  cloud::MultiCloud clouds_;
};

TEST_F(ClientTest, UploadThenSecondDeviceDownloads) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  Rng rng(10);
  const Bytes content = rng.bytes(200000);
  ASSERT_TRUE(fs_a->write("/data.bin", ByteSpan(content)).is_ok());

  auto up = client_a->sync();
  ASSERT_TRUE(up.is_ok()) << up.status().to_string();
  EXPECT_TRUE(up.value().committed);
  EXPECT_EQ(up.value().files_uploaded, 1u);

  auto down = client_b->sync();
  ASSERT_TRUE(down.is_ok()) << down.status().to_string();
  EXPECT_TRUE(down.value().applied_cloud);
  EXPECT_EQ(down.value().files_downloaded, 1u);
  EXPECT_EQ(fs_b->read("/data.bin").value(), content);
}

TEST_F(ClientTest, NoChangesNoCommit) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  auto report = client->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_FALSE(report.value().committed);
  EXPECT_FALSE(report.value().applied_cloud);
}

TEST_F(ClientTest, EditPropagates) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/note.txt", ByteSpan(text("version 1"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/note.txt").value(), text("version 1"));

  ASSERT_TRUE(fs_a->write("/note.txt", ByteSpan(text("version 2 !!"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/note.txt").value(), text("version 2 !!"));
}

TEST_F(ClientTest, DeletePropagates) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/f", ByteSpan(text("x"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());
  ASSERT_TRUE(fs_b->read("/f").is_ok());

  ASSERT_TRUE(fs_a->remove("/f").is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  auto report = client_b->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().files_removed, 1u);
  EXPECT_EQ(fs_b->read("/f").code(), ErrorCode::kNotFound);
}

TEST_F(ClientTest, ConflictKeepsBothVersions) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  auto client_b = make_client("devB", fs_b);

  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  ASSERT_TRUE(client_b->sync().is_ok());

  // Divergent edits on both devices; A commits first, then B.
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("edit from A"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("edit from B"))).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());
  auto report_b = client_b->sync();
  ASSERT_TRUE(report_b.is_ok());
  ASSERT_EQ(report_b.value().conflicts.size(), 1u);

  // B's folder: cloud version (A's edit) at /doc, B's kept as conflict copy.
  EXPECT_EQ(fs_b->read("/doc").value(), text("edit from A"));
  const std::string copy = report_b.value().conflicts[0].conflict_copy;
  ASSERT_FALSE(copy.empty());
  EXPECT_EQ(fs_b->read(copy).value(), text("edit from B"));

  // A picks up both after its next sync.
  ASSERT_TRUE(client_a->sync().is_ok());
  EXPECT_EQ(fs_a->read("/doc").value(), text("edit from A"));
  EXPECT_EQ(fs_a->read(copy).value(), text("edit from B"));
}

TEST_F(ClientTest, ThreeDevicesConverge) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto fs_c = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  auto c = make_client("devC", fs_c);

  Rng rng(20);
  ASSERT_TRUE(fs_a->write("/fa", ByteSpan(rng.bytes(20000))).is_ok());
  ASSERT_TRUE(fs_b->write("/fb", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(fs_c->write("/fc", ByteSpan(rng.bytes(10000))).is_ok());

  // Two full rounds propagate everything everywhere.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a->sync().is_ok());
    ASSERT_TRUE(b->sync().is_ok());
    ASSERT_TRUE(c->sync().is_ok());
  }
  for (const auto& fs : {fs_a, fs_b, fs_c}) {
    EXPECT_EQ(fs->list_files().size(), 3u);
  }
  EXPECT_EQ(fs_a->read("/fb").value(), fs_b->read("/fb").value());
  EXPECT_EQ(fs_c->read("/fa").value(), fs_a->read("/fa").value());
}

TEST_F(ClientTest, SecurityNoSingleCloudCanReconstruct) {
  // With Ks=2, any single cloud must hold < k distinct blocks per segment.
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(30);
  ASSERT_TRUE(fs->write("/secret", ByteSpan(rng.bytes(120000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  const auto& image = client->image();
  for (const auto& [id, seg] : image.segments()) {
    std::map<cloud::CloudId, std::set<std::uint32_t>> per_cloud;
    for (const auto& b : seg.blocks) {
      per_cloud[b.cloud].insert(b.block_index);
    }
    for (const auto& [c, blocks] : per_cloud) {
      EXPECT_LT(blocks.size(), client->config().k)
          << "cloud " << c << " can decode segment " << id;
    }
  }
}

TEST_F(ClientTest, ReliabilityToleratesTwoCloudOutages) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto client_a = make_client("devA", fs_a);
  Rng rng(40);
  const Bytes content = rng.bytes(150000);
  ASSERT_TRUE(fs_a->write("/important", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client_a->sync().is_ok());

  // Wrap clouds 0 and 1 in outage for a fresh downloader (Kr=3: any 3
  // clouds suffice).
  cloud::MultiCloud degraded;
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    auto faulty = std::make_shared<cloud::FaultyCloud>(
        clouds_[i], cloud::FaultProfile{}, i);
    if (i < 2) faulty->set_outage(true);
    degraded.push_back(faulty);
  }
  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_b(degraded, fs_b, test_config("devB"));
  auto report = client_b.sync();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(fs_b->read("/important").value(), content);
}

TEST_F(ClientTest, SyncSurvivesTransientFailures) {
  cloud::MultiCloud flaky;
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    cloud::FaultProfile profile;
    profile.base_failure_rate = 0.1;
    flaky.push_back(
        std::make_shared<cloud::FaultyCloud>(clouds_[i], profile, 55 + i));
  }
  auto fs_a = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_a(flaky, fs_a, test_config("devA"));
  Rng rng(50);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs_a->write("/f", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client_a.sync().is_ok());

  auto fs_b = std::make_shared<MemoryLocalFs>();
  UniDriveClient client_b(flaky, fs_b, test_config("devB"));
  ASSERT_TRUE(client_b.sync().is_ok());
  EXPECT_EQ(fs_b->read("/f").value(), content);
}

TEST_F(ClientTest, DedupUploadsSharedSegmentsOnce) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(60);
  const Bytes content = rng.bytes(100000);
  ASSERT_TRUE(fs->write("/copy1", ByteSpan(content)).is_ok());
  ASSERT_TRUE(fs->write("/copy2", ByteSpan(content)).is_ok());
  auto report = client->sync();
  ASSERT_TRUE(report.is_ok());
  EXPECT_EQ(report.value().files_uploaded, 2u);

  // Segment refcounts must be 2; blocks stored once.
  for (const auto& [id, seg] : client->image().segments()) {
    EXPECT_EQ(seg.refcount, 2u);
  }
}

TEST_F(ClientTest, CleanupOverprovisionedTrimsSurplus) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(70);
  ASSERT_TRUE(fs->write("/f", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(client->cleanup_overprovisioned().is_ok());

  const auto params = client->code_params();
  for (const auto& [id, seg] : client->image().segments()) {
    std::map<cloud::CloudId, std::size_t> per_cloud;
    for (const auto& b : seg.blocks) ++per_cloud[b.cloud];
    for (const auto& [c, n] : per_cloud) {
      EXPECT_LE(n, params.fair_share());
    }
  }
  // File still recoverable afterwards by a fresh device.
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_b = make_client("devB", fs_b);
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_TRUE(fs_b->read("/f").is_ok());
}

TEST_F(ClientTest, EmptyFileSyncs) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/empty", ByteSpan(Bytes{})).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  auto data = fs_b->read("/empty");
  ASSERT_TRUE(data.is_ok());
  EXPECT_TRUE(data.value().empty());
}

TEST_F(ClientTest, ManySmallFilesBatchSync) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(80);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(fs_a->write("/batch/f" + std::to_string(i),
                            ByteSpan(rng.bytes(2000 + i * 100)))
                    .is_ok());
  }
  auto up = a->sync();
  ASSERT_TRUE(up.is_ok());
  EXPECT_EQ(up.value().files_uploaded, 20u);
  auto down = b->sync();
  ASSERT_TRUE(down.is_ok());
  EXPECT_EQ(down.value().files_downloaded, 20u);
  EXPECT_EQ(fs_b->list_files().size(), 20u);
}

TEST_F(ClientTest, RestorePreviousVersionRoundTrip) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(91);
  const Bytes v1 = rng.bytes(60000);
  const Bytes v2 = rng.bytes(50000);
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v2)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  // The superseded snapshot is in the history and restorable.
  const auto history = client->file_history("/doc");
  ASSERT_EQ(history.size(), 1u);
  ASSERT_TRUE(client->restore_previous_version("/doc").is_ok());
  EXPECT_EQ(fs->read("/doc").value(), v1);

  // The restore commits like a normal edit and reaches other devices.
  ASSERT_TRUE(client->sync().is_ok());
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto client_b = make_client("devB", fs_b);
  ASSERT_TRUE(client_b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/doc").value(), v1);
}

TEST_F(ClientTest, RestoreWithoutHistoryFails) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  ASSERT_TRUE(fs->write("/f", ByteSpan(text("only version"))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  EXPECT_EQ(client->restore_previous_version("/f").code(),
            ErrorCode::kNotFound);
}

TEST_F(ClientTest, GarbageCollectionReclaimsDereferencedSegments) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(92);
  const Bytes content = rng.bytes(80000);
  ASSERT_TRUE(fs->write("/junk", ByteSpan(content)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  std::uint64_t stored_before = 0;
  for (const auto& c : clouds_) {
    stored_before +=
        std::static_pointer_cast<cloud::MemoryCloud>(c)->stored_bytes();
  }

  ASSERT_TRUE(fs->remove("/junk").is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  auto collected = client->collect_garbage();
  ASSERT_TRUE(collected.is_ok()) << collected.status().to_string();
  EXPECT_GE(collected.value(), 1u);

  std::uint64_t stored_after = 0;
  for (const auto& c : clouds_) {
    stored_after +=
        std::static_pointer_cast<cloud::MemoryCloud>(c)->stored_bytes();
  }
  // The segment blocks are gone; only (small) metadata remains.
  EXPECT_LT(stored_after, stored_before / 2);
  EXPECT_TRUE(client->image().garbage_segments().empty());

  // A second GC is a no-op.
  auto again = client->collect_garbage();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST_F(ClientTest, GarbageCollectionSparesHistorySegments) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  Rng rng(93);
  const Bytes v1 = rng.bytes(40000);
  ASSERT_TRUE(fs->write("/doc", ByteSpan(v1)).is_ok());
  ASSERT_TRUE(client->sync().is_ok());
  ASSERT_TRUE(fs->write("/doc", ByteSpan(rng.bytes(40000))).is_ok());
  ASSERT_TRUE(client->sync().is_ok());

  ASSERT_TRUE(client->collect_garbage().is_ok());
  // v1's segments survive (held by the history) and remain restorable.
  ASSERT_TRUE(client->restore_previous_version("/doc").is_ok());
  EXPECT_EQ(fs->read("/doc").value(), v1);
}

TEST(ScanCacheTest, SecondScanReadsNothing) {
  MemoryLocalFs fs;
  Rng rng(94);
  ASSERT_TRUE(fs.write("/a", ByteSpan(rng.bytes(50000))).is_ok());
  ASSERT_TRUE(fs.write("/b", ByteSpan(rng.bytes(30000))).is_ok());
  metadata::SyncFolderImage image;
  ScanCache cache;

  auto first = scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10},
                                  "dev", &cache);
  EXPECT_EQ(first.files_hashed, 2u);
  for (const metadata::Change& c : first.changes.changes()) {
    apply_change(image, c);
  }

  auto second = scan_local_changes(fs, image,
                                   chunker::SegmenterParams{64 << 10}, "dev",
                                   &cache);
  EXPECT_TRUE(second.changes.empty());
  EXPECT_EQ(second.files_hashed, 0u);  // pure fingerprint hits
  EXPECT_EQ(second.files_scanned, 2u);
}

TEST(ScanCacheTest, EditInvalidatesFingerprint) {
  MemoryLocalFs fs;
  ASSERT_TRUE(fs.write("/a", ByteSpan(bytes_from_string("v1"))).is_ok());
  metadata::SyncFolderImage image;
  ScanCache cache;
  auto first = scan_local_changes(fs, image, chunker::SegmenterParams{64 << 10},
                                  "dev", &cache);
  for (const metadata::Change& c : first.changes.changes()) {
    apply_change(image, c);
  }
  ASSERT_TRUE(fs.write("/a", ByteSpan(bytes_from_string("v2"))).is_ok());
  auto second = scan_local_changes(fs, image,
                                   chunker::SegmenterParams{64 << 10}, "dev",
                                   &cache);
  EXPECT_EQ(second.files_hashed, 1u);
  ASSERT_EQ(second.touched.size(), 1u);
}

TEST_F(ClientTest, ConflictResolutionKeepMine) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("A's edit"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("B's edit"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto rb = b->sync();
  ASSERT_TRUE(rb.is_ok());
  ASSERT_EQ(rb.value().conflicts.size(), 1u);

  // B decides its version wins.
  ASSERT_TRUE(b->resolve_conflict(rb.value().conflicts[0],
                                  core::UniDriveClient::ConflictChoice::kKeepMine)
                  .is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  EXPECT_EQ(fs_a->read("/doc").value(), text("B's edit"));
  // The conflict copy is gone everywhere.
  EXPECT_EQ(fs_a->list_files().size(), 1u);
  EXPECT_EQ(fs_b->list_files().size(), 1u);
}

TEST_F(ClientTest, ConflictResolutionKeepTheirs) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("base"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(fs_a->write("/doc", ByteSpan(text("A's edit"))).is_ok());
  ASSERT_TRUE(fs_b->write("/doc", ByteSpan(text("B's edit"))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  auto rb = b->sync();
  ASSERT_TRUE(rb.is_ok());
  ASSERT_EQ(rb.value().conflicts.size(), 1u);

  ASSERT_TRUE(b->resolve_conflict(
                   rb.value().conflicts[0],
                   core::UniDriveClient::ConflictChoice::kKeepTheirs)
                  .is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  EXPECT_EQ(fs_b->read("/doc").value(), text("A's edit"));
  EXPECT_EQ(fs_b->list_files().size(), 1u);
}

TEST_F(ClientTest, SyncDaemonPropagatesInBackground) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);

  core::DaemonConfig daemon_config;
  daemon_config.sync_interval = 0.02;
  core::SyncDaemon daemon_a(*a, daemon_config);
  core::SyncDaemon daemon_b(*b, daemon_config);
  daemon_a.start();
  daemon_b.start();
  EXPECT_TRUE(daemon_a.running());

  ASSERT_TRUE(fs_a->write("/bg/file", ByteSpan(text("hello from A"))).is_ok());
  // Wait (bounded) for the change to land on B.
  bool arrived = false;
  for (int i = 0; i < 300 && !arrived; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    arrived = fs_b->read("/bg/file").is_ok();
  }
  daemon_a.stop();
  daemon_b.stop();
  EXPECT_FALSE(daemon_a.running());
  ASSERT_TRUE(arrived);
  EXPECT_EQ(fs_b->read("/bg/file").value(), text("hello from A"));
  EXPECT_GT(daemon_a.stats().rounds, 0u);
  EXPECT_GE(daemon_a.stats().commits, 1u);
  EXPECT_GE(daemon_b.stats().applied, 1u);
}

TEST_F(ClientTest, SyncDaemonStartStopIdempotent) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  core::SyncDaemon daemon(*client, core::DaemonConfig{0.01});
  daemon.start();
  daemon.start();  // no-op
  daemon.stop();
  daemon.stop();  // no-op
  daemon.start();
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST_F(ClientTest, VersionCounterMonotone) {
  auto fs = std::make_shared<MemoryLocalFs>();
  auto client = make_client("devA", fs);
  std::uint64_t last = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        fs->write("/f", ByteSpan(text("v" + std::to_string(i)))).is_ok());
    auto report = client->sync();
    ASSERT_TRUE(report.is_ok());
    EXPECT_GT(report.value().version.counter, last);
    last = report.value().version.counter;
  }
}

// --- commit transaction races ----------------------------------------------------
//
// Each case lands a foreign device's commit at an exact RPC of another
// device's commit transaction: a provider hook runs the foreign sync right
// before the first matching upload reaches the cloud.

// An in-memory cloud that logs upload paths and runs a one-shot hook before
// forwarding the first upload its armed predicate accepts.
class HookCloud final : public cloud::CloudProvider {
 public:
  explicit HookCloud(cloud::CloudId id)
      : inner_(std::make_shared<cloud::MemoryCloud>(
            id, "cloud" + std::to_string(id))) {}

  // `match` is called under the cloud's mutex, once per upload, until it
  // accepts one.
  void arm(std::function<bool(const std::string&)> match,
           std::function<void()> hook) {
    std::lock_guard<std::mutex> guard(mu_);
    match_ = std::move(match);
    hook_ = std::move(hook);
  }
  [[nodiscard]] bool fired() const {
    std::lock_guard<std::mutex> guard(mu_);
    return fired_;
  }
  [[nodiscard]] std::vector<std::string> uploads() const {
    std::lock_guard<std::mutex> guard(mu_);
    return uploads_;
  }

  [[nodiscard]] cloud::CloudId id() const noexcept override {
    return inner_->id();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  Status upload(const std::string& path, ByteSpan data) override {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> guard(mu_);
      uploads_.push_back(path);
      if (hook_ && match_(path)) {
        hook = std::move(hook_);
        hook_ = nullptr;
        fired_ = true;
      }
    }
    if (hook) hook();
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
  std::shared_ptr<cloud::MemoryCloud> inner_;
  mutable std::mutex mu_;
  std::function<bool(const std::string&)> match_;
  std::function<void()> hook_;
  bool fired_ = false;
  std::vector<std::string> uploads_;
};

bool is_lock_of(const std::string& path, const std::string& device) {
  return path.rfind("/lock/", 0) == 0 &&
         path.find("/lock_" + device + "_") != std::string::npos;
}

class CommitRaceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (cloud::CloudId i = 0; i < 5; ++i) {
      hooks_.push_back(std::make_shared<HookCloud>(i));
      clouds_.push_back(hooks_.back());
    }
  }

  std::unique_ptr<UniDriveClient> make_client(const std::string& device,
                                              std::shared_ptr<LocalFs> fs) {
    return std::make_unique<UniDriveClient>(clouds_, std::move(fs),
                                            test_config(device));
  }

  // Every scope is released: no lock file of `device` is left in the root
  // lock dir or any shard scope's dir, on any cloud.
  void expect_no_locks_of(const std::string& device) {
    const std::uint32_t shards = metadata::ShardConfig{}.num_shards;
    for (const cloud::CloudPtr& c : clouds_) {
      std::vector<std::string> dirs{"/lock"};
      for (std::uint32_t s = 0; s < shards; ++s) {
        dirs.push_back("/lock/s" + std::to_string(s));
      }
      for (const std::string& dir : dirs) {
        auto listing = c->list(dir);
        if (!listing.is_ok()) continue;
        for (const cloud::FileInfo& f : listing.value()) {
          EXPECT_NE(f.name.rfind("lock_" + device + "_", 0), 0u)
              << device << " left " << dir << "/" << f.name << " on "
              << c->name();
        }
      }
    }
  }

  std::vector<std::shared_ptr<HookCloud>> hooks_;
  cloud::MultiCloud clouds_;
};

TEST_F(CommitRaceTest, GarbageCollectionKeepsBlocksOfSegmentReusedMidCommit) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(94);
  const Bytes content = rng.bytes(80000);
  ASSERT_TRUE(fs_a->write("/junk", ByteSpan(content)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  // The deletion leaves the content's segments unreferenced (GC's
  // candidates) but still known to both devices' images.
  ASSERT_TRUE(fs_a->remove("/junk").is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_FALSE(a->image().garbage_segments().empty());

  // While GC takes its first lock, B commits a file with the same content:
  // its scanner reuses the known segments and uploads nothing.
  Status b_sync = make_error(ErrorCode::kInternal, "hook never ran");
  hooks_[0]->arm([](const std::string& p) { return is_lock_of(p, "devA"); },
                 [&] {
                   (void)fs_b->write("/copy", ByteSpan(content));
                   auto report = b->sync();
                   b_sync = report.is_ok() ? Status::ok() : report.status();
                 });
  auto collected = a->collect_garbage();
  ASSERT_TRUE(hooks_[0]->fired());
  ASSERT_TRUE(b_sync.is_ok()) << b_sync.to_string();
  ASSERT_TRUE(collected.is_ok()) << collected.status().to_string();
  EXPECT_EQ(collected.value(), 0u);  // the rebuilt commit keeps them all

  // A fresh device restores the new file byte for byte.
  auto fs_c = std::make_shared<MemoryLocalFs>();
  auto c = make_client("devC", fs_c);
  auto restored = c->sync();
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  ASSERT_TRUE(restored.value().materialize.is_ok())
      << restored.value().materialize.to_string();
  ASSERT_TRUE(fs_c->read("/copy").is_ok());
  EXPECT_EQ(fs_c->read("/copy").value(), content);
  ASSERT_TRUE(a->sync().is_ok());
  EXPECT_EQ(fs_a->read("/copy").value(), content);
  expect_no_locks_of("devA");
  expect_no_locks_of("devB");
}

TEST_F(CommitRaceTest, MaintenanceRebuildsWhenMetadataMovedWhileLocking) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(95);
  const Bytes keep = rng.bytes(30000);
  const Bytes fresh = rng.bytes(30000);
  ASSERT_TRUE(fs_a->write("/keep", ByteSpan(keep)).is_ok());
  ASSERT_TRUE(fs_a->write("/junk", ByteSpan(rng.bytes(30000))).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(fs_a->remove("/junk").is_ok());
  ASSERT_TRUE(a->sync().is_ok());

  // B commits an unrelated new file while GC takes its first lock: the
  // fence shows the basis moved and GC re-plans on the fresh image.
  Status b_sync = make_error(ErrorCode::kInternal, "hook never ran");
  hooks_[0]->arm([](const std::string& p) { return is_lock_of(p, "devA"); },
                 [&] {
                   (void)fs_b->write("/docs/new", ByteSpan(fresh));
                   auto report = b->sync();
                   b_sync = report.is_ok() ? Status::ok() : report.status();
                 });
  auto collected = a->collect_garbage();
  ASSERT_TRUE(hooks_[0]->fired());
  ASSERT_TRUE(b_sync.is_ok()) << b_sync.to_string();
  ASSERT_TRUE(collected.is_ok()) << collected.status().to_string();
  EXPECT_GE(collected.value(), 1u);
  // v_o did not jump past B's commit: A still has to apply it.
  EXPECT_TRUE(a->cloud_update_pending());

  // No lost update: both devices converge on both files.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a->sync().is_ok());
    ASSERT_TRUE(b->sync().is_ok());
  }
  for (const auto& fs : {fs_a, fs_b}) {
    ASSERT_TRUE(fs->read("/docs/new").is_ok());
    EXPECT_EQ(fs->read("/docs/new").value(), fresh);
    EXPECT_EQ(fs->read("/keep").value(), keep);
  }
  EXPECT_TRUE(a->image().garbage_segments().empty());
  expect_no_locks_of("devA");
  expect_no_locks_of("devB");
}

TEST_F(CommitRaceTest, SyncRelocksWhenMergeWidensTheDirtyShardSet) {
  // A top-level file whose conflict copy routes to a different shard.
  const std::uint32_t shards = metadata::ShardConfig{}.num_shards;
  std::string path;
  for (char c = 'a'; c <= 'z' && path.empty(); ++c) {
    const std::string candidate = std::string("/") + c;
    if (metadata::shard_of_path(candidate, shards) !=
        metadata::shard_of_path(candidate + ".conflict-devA", shards)) {
      path = candidate;
    }
  }
  ASSERT_FALSE(path.empty());
  const std::string copy = path + ".conflict-devA";
  const std::string copy_scope =
      "/lock/s" + std::to_string(metadata::shard_of_path(copy, shards)) + "/";

  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(96);
  const Bytes other = rng.bytes(20000);
  const Bytes theirs = rng.bytes(20000);
  ASSERT_TRUE(fs_a->write(path, ByteSpan(rng.bytes(20000))).is_ok());
  ASSERT_TRUE(fs_a->write("/other", ByteSpan(other)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  // A's edit reuses /other's segments, so it dirties only the file's shard.
  // B's concurrent edit of the same file lands while A takes that shard.
  ASSERT_TRUE(fs_a->write(path, ByteSpan(other)).is_ok());
  Status b_sync = make_error(ErrorCode::kInternal, "hook never ran");
  hooks_[0]->arm([](const std::string& p) { return is_lock_of(p, "devA"); },
                 [&] {
                   (void)fs_b->write(path, ByteSpan(theirs));
                   auto report = b->sync();
                   b_sync = report.is_ok() ? Status::ok() : report.status();
                 });
  auto report = a->sync();
  ASSERT_TRUE(hooks_[0]->fired());
  ASSERT_TRUE(b_sync.is_ok()) << b_sync.to_string();
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  ASSERT_EQ(report.value().conflicts.size(), 1u);
  EXPECT_EQ(report.value().conflicts.front().conflict_copy, copy);
  // The merge's conflict copy needed a shard A did not hold: A re-locked.
  const std::vector<std::string> uploads = hooks_[0]->uploads();
  EXPECT_TRUE(std::any_of(uploads.begin(), uploads.end(),
                          [&](const std::string& p) {
                            return p.rfind(copy_scope, 0) == 0 &&
                                   is_lock_of(p, "devA");
                          }));

  // No lost update: the cloud version stands, A's edit survives as the
  // copy, on both devices.
  ASSERT_TRUE(b->sync().is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  for (const auto& fs : {fs_a, fs_b}) {
    ASSERT_TRUE(fs->read(path).is_ok());
    EXPECT_EQ(fs->read(path).value(), theirs);
    ASSERT_TRUE(fs->read(copy).is_ok());
    EXPECT_EQ(fs->read(copy).value(), other);
    EXPECT_EQ(fs->read("/other").value(), other);
  }
  expect_no_locks_of("devA");
  expect_no_locks_of("devB");
}

TEST_F(CommitRaceTest, MembershipSplicesForeignCommitFromGuardRebuildWindow) {
  auto fs_a = std::make_shared<MemoryLocalFs>();
  auto fs_b = std::make_shared<MemoryLocalFs>();
  auto a = make_client("devA", fs_a);
  auto b = make_client("devB", fs_b);
  Rng rng(97);
  const Bytes mine = rng.bytes(120000);
  const Bytes theirs = rng.bytes(40000);
  ASSERT_TRUE(fs_a->write("/mine", ByteSpan(mine)).is_ok());
  ASSERT_TRUE(a->sync().is_ok());
  ASSERT_TRUE(b->sync().is_ok());

  // remove_cloud holds every scope of the old membership (root last) while
  // it rebalances, then re-locks on the new one. B commits in between: the
  // hook fires on A's first lock upload after its old-membership root lock.
  Status b_sync = make_error(ErrorCode::kInternal, "hook never ran");
  hooks_[0]->arm(
      [root_seen = false](const std::string& p) mutable {
        if (!is_lock_of(p, "devA")) return false;
        if (p.rfind('/') == std::string("/lock").size()) {
          root_seen = true;
          return false;
        }
        return root_seen;
      },
      [&] {
        (void)fs_b->write("/theirs", ByteSpan(theirs));
        auto report = b->sync();
        b_sync = report.is_ok() ? Status::ok() : report.status();
      });
  ASSERT_TRUE(a->remove_cloud(4).is_ok());
  ASSERT_TRUE(hooks_[0]->fired());
  ASSERT_TRUE(b_sync.is_ok()) << b_sync.to_string();
  EXPECT_EQ(a->clouds().size(), 4u);

  // No lost update: both devices end with both files, and a fresh device on
  // the new membership restores them byte for byte.
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(a->sync().is_ok());
    ASSERT_TRUE(b->sync().is_ok());
  }
  for (const auto& fs : {fs_a, fs_b}) {
    ASSERT_TRUE(fs->read("/theirs").is_ok());
    EXPECT_EQ(fs->read("/theirs").value(), theirs);
    EXPECT_EQ(fs->read("/mine").value(), mine);
  }
  auto fs_c = std::make_shared<MemoryLocalFs>();
  UniDriveClient c(a->clouds(), fs_c, test_config("devC"));
  auto restored = c.sync();
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(fs_c->read("/mine").value(), mine);
  EXPECT_EQ(fs_c->read("/theirs").value(), theirs);
  expect_no_locks_of("devA");
  expect_no_locks_of("devB");
}

}  // namespace
}  // namespace unidrive::core
