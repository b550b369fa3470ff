// UniDriveClient — the complete server-less, client-centric sync engine.
//
// One instance represents one device. sync() runs one round of Algorithm 1:
//
//   if local changes exist:
//       upload new data blocks (data plane, over-provisioned scheduling)
//       acquire the dirty shards' quorum locks
//       if cloud update pending: fetch, 3-way merge (conflicts keep both)
//       stage the shard deltas, take the root lock, flip the manifest
//       release the locks
//   else if cloud update pending:
//       fetch metadata, download needed blocks, apply to the local folder
//
// Content data and metadata are deliberately decoupled: blocks are immutable
// and uploaded before the metadata that references them is committed, so
// concurrent uploaders never corrupt each other — the lock serializes only
// the (small) metadata commit. Every metadata commit (sync, cleanup, GC,
// repair, add/remove cloud) is one transaction through the same
// lock → fence → stage → flip loop (commit()); block deletions run only
// after the flip that stops referencing them.
#pragma once

#include <functional>
#include <memory>

#include "cloud/async.h"
#include "cloud/health.h"
#include "cloud/provider.h"
#include "common/clock.h"
#include "common/executor.h"
#include "common/retry.h"
#include "common/rng.h"
#include "core/change_scanner.h"
#include "core/download_pipeline.h"
#include "core/local_fs.h"
#include "core/upload_pipeline.h"
#include "crypto/cipher.h"
#include "erasure/rs.h"
#include "lock/lock_manager.h"
#include "metadata/diff.h"
#include "metadata/sharded_store.h"
#include "obs/obs.h"
#include "repair/durability.h"
#include "sched/monitor.h"
#include "sched/rebalance.h"
#include "sched/streaming_driver.h"

namespace unidrive::core {

struct ClientConfig {
  std::string device = "device";
  std::string passphrase = "unidrive";
  // Metadata cipher: DES for paper fidelity (default), AES-128-CTR or
  // ChaCha20 for hardware speed. Decrypt is tag-dispatched, so changing
  // this never orphans previously written metadata.
  crypto::CipherKind cipher = crypto::CipherKind::kDes;
  std::size_t k = 3;    // data blocks per segment
  std::size_t ks = 2;   // security requirement
  std::size_t kr = 3;   // reliability requirement
  std::size_t theta = 4 << 20;  // target segment size
  lock::LockConfig lock;
  sched::DriverConfig driver;
  // Staged data plane (both directions): shared executor width, encode
  // stage, bounded in-flight bytes.
  PipelineConfig pipeline;
  metadata::DeltaPolicy delta_policy;
  // Sharded metadata plane: shard count, per-shard compaction bound, cache.
  metadata::ShardConfig meta;
  // Unified resilience layer: every enrolled cloud gets exactly one retry
  // layer (cloud::guard_clouds) combining this retry policy with a circuit
  // breaker shared across sync rounds. Data and control plane both go
  // through it; no other layer retries.
  RetryPolicy retry;
  cloud::BreakerConfig breaker;
  // All blocking pauses (retry backoff, lock contention backoff) go through
  // this; tests and simulations substitute a virtual-time sleep.
  SleepFn sleep = real_sleep();
  // When set, the client persists its last committed state (v_o, the image
  // it has already reconciled with) to this host file and reloads it at
  // construction — without it a restarted process would treat the whole
  // cloud state as "concurrent changes" and manufacture conflicts.
  std::string state_file;
  // Durability floor: a segment counts as under-replicated (and trips
  // SyncReport.degraded) when its surviving distinct blocks drop below
  // k + redundancy_floor. 0 = only decodability (surviving < k) degrades.
  std::size_t redundancy_floor = 1;
  // Content-addressed segment pool (DESIGN.md §13). When set, the upload
  // pipeline probes it before encode — a hit commits only a file→segment
  // reference — and GC keeps blocks that another folder still references.
  // Clients whose data plane lands on the same physical clouds should share
  // one index; `folder_id` keys its cross-folder refcounts, so all devices
  // of one sync folder must use the same id and distinct folders over the
  // same clouds must use distinct ids. Null = no cross-client dedup (the
  // scanner still dedups within the folder's own image).
  //
  // No default id: two folders silently sharing one id would be counted as
  // ONE folder by the refcount index, and each folder's GC could then
  // delete blocks the other still references. When `pool` is set and this
  // is left empty, the client derives a process-unique id at construction
  // (safe — every client then protects its own references — but devices of
  // one folder stop sharing refcounts, so set it explicitly).
  dedup::PoolIndexPtr pool;
  std::string folder_id;
};

struct SyncReport {
  bool committed = false;        // a local update was pushed to the clouds
  bool applied_cloud = false;    // a cloud update was applied locally
  std::size_t files_uploaded = 0;
  std::size_t segments_uploaded = 0;
  // Segments the upload path short-circuited on a segment-pool hit: their
  // references were committed but no encode or block RPC happened, and
  // `dedup_bytes_saved` plaintext bytes never left the device. Counted
  // separately from segments_uploaded so degraded-mode accounting (how much
  // actually moved this round) stays truthful.
  std::size_t segments_deduped = 0;
  std::uint64_t dedup_bytes_saved = 0;
  std::size_t files_downloaded = 0;
  std::size_t files_removed = 0;
  std::vector<metadata::ConflictRecord> conflicts;
  metadata::VersionStamp version;
  // Degraded mode: true when at least one cloud's circuit breaker was not
  // closed at the end of the round, OR when any segment's surviving
  // redundancy is below the configured floor (durability.under_replicated
  // > 0) — reachability and data health both count.
  bool degraded = false;
  std::vector<cloud::CloudHealthSnapshot> cloud_health;
  // Data-health rollup over the committed image at the end of the round:
  // the defect ledger (scrub findings) joined with breaker admissibility.
  repair::DurabilitySummary durability;
  // Folder materialization outcome. `materialize` is non-OK when the local
  // folder could not be brought fully up to the committed image (directory
  // create/remove failures below, or a file that could not be
  // reconstructed); the metadata commit itself still stands.
  Status materialize;
  std::vector<std::string> dir_failures;  // dirs that failed to (un)make
  // Point-in-time copy of the client's metrics registry, taken at the end
  // of the round. Counters are cumulative over the client's lifetime (they
  // are NOT reset per round); see obs/metrics.h for the name families.
  obs::MetricsSnapshot metrics;
};

class UniDriveClient {
 public:
  UniDriveClient(cloud::MultiCloud clouds, std::shared_ptr<LocalFs> fs,
                 ClientConfig config, Clock& clock = RealClock::instance(),
                 Rng rng = Rng(0));

  // One synchronization round. Safe to call repeatedly (e.g. on a timer).
  Result<SyncReport> sync();

  // Cheap cloud-update probe (the version-file check, period tau).
  [[nodiscard]] bool cloud_update_pending();

  // Commits the block map trimmed to every cloud's fair share, then deletes
  // the over-provisioned blocks (run after all devices synced a file).
  Status cleanup_overprovisioned();

  // Drops the segments no snapshot references any more (dereferenced by
  // edits falling off the history, deletions, or conflict resolution) from
  // the pool and, after that commit's flip, deletes their cloud blocks.
  // Returns the number of segments collected.
  Result<std::size_t> collect_garbage();

  // Rolls a file back to its most recent superseded snapshot (the paper
  // keeps per-file snapshot history in the image for exactly this): the
  // restored version becomes a NEW local edit committed by the next sync().
  Status restore_previous_version(const std::string& path);

  // Superseded snapshots of a file, most recent first.
  [[nodiscard]] std::vector<metadata::FileSnapshot> file_history(
      const std::string& path) const {
    return image_.history(path);
  }

  // Resolves a keep-both conflict produced by a previous sync. kKeepTheirs
  // drops the conflict copy (the cloud version at `record.path` stands);
  // kKeepMine promotes the conflict copy's content back to the original
  // path. Either way the copy is removed; the next sync() commits the
  // resolution for all devices.
  enum class ConflictChoice { kKeepTheirs, kKeepMine };
  Status resolve_conflict(const metadata::ConflictRecord& record,
                          ConflictChoice choice);

  // Multi-cloud membership changes (Section 6.2). Both re-plan placement,
  // execute the moves/deletions, and commit the new block map; they differ
  // only in the plan and the new cloud list.
  Status add_cloud(cloud::CloudPtr new_cloud);
  Status remove_cloud(cloud::CloudId cloud);

  [[nodiscard]] const metadata::SyncFolderImage& image() const noexcept {
    return image_;
  }
  [[nodiscard]] const cloud::MultiCloud& clouds() const noexcept {
    return clouds_;
  }
  // Shared per-cloud health/breaker state; outlives individual sync rounds.
  [[nodiscard]] const std::shared_ptr<cloud::CloudHealthRegistry>& health()
      const noexcept {
    return health_;
  }
  [[nodiscard]] sched::CodeParams code_params() const;
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }
  // The shared metrics/tracing sink every layer of this client reports
  // into. Never null; lives as long as the client.
  [[nodiscard]] const obs::ObsPtr& observability() const noexcept {
    return obs_;
  }
  [[nodiscard]] Clock& clock() const noexcept { return clock_; }

  // --- scrub-and-repair surface (src/repair) -------------------------------
  // The defect ledger shared with the scrubber/repair engine. Never null.
  [[nodiscard]] const std::shared_ptr<repair::DurabilityTracker>& durability()
      const noexcept {
    return durability_;
  }
  // The exact code this client encodes/decodes with (pinned codec length —
  // block indices remain stable across membership changes).
  [[nodiscard]] erasure::RsCode codec() const;
  // One enrolled cloud's stack: its blocking facade / the async object.
  [[nodiscard]] cloud::CloudProvider* guarded_cloud(cloud::CloudId id) const {
    return find_cloud(id);
  }
  [[nodiscard]] cloud::AsyncCloud* async_cloud(cloud::CloudId id) const {
    return find_async_cloud(id);
  }
  [[nodiscard]] const cloud::AsyncMultiCloud& async_clouds() const noexcept {
    return async_clouds_;
  }
  // Plaintext of a committed segment for repair: the verified local file
  // slice when one exists, otherwise a hash-verified multi-cloud decode
  // that never trusts any placement in `exclude` (the defective ones).
  Result<Bytes> reconstruct_segment(
      const std::string& segment_id,
      const std::vector<metadata::BlockLocation>& exclude);
  // Commits repaired block placements (re-validating each segment against
  // the freshest committed image) as a maintenance transaction. Like every
  // maintenance commit it advances v_o only when v_o was its basis, so file
  // changes committed by other devices in between are never skipped.
  Status commit_repaired_placements(
      std::vector<metadata::SegmentInfo> repaired);

 private:
  // Data plane: a staged UploadPipeline wired to this client's executor,
  // async cloud twins and observability.
  [[nodiscard]] std::unique_ptr<UploadPipeline> make_pipeline(
      const sched::CodeParams& params);

  // Restores `snapshots` (segments resolved against `image`) through one
  // streaming DownloadPipeline: overlapped fetch → parallel decode →
  // in-order write with a bounded prefetch window, so connection pools and
  // hedging span file boundaries. A failed restore never leaves a partial
  // file behind. Returns the first failure; counts restored files into
  // `restored` when non-null.
  Status restore_files(
      const std::vector<const metadata::FileSnapshot*>& snapshots,
      const metadata::SyncFolderImage& image, std::size_t* restored);

  // Fetches and decodes one segment through the async cloud twins,
  // verifying its content hash; on integrity failure, raises the fetch
  // budget of the long-lived driver one distinct block at a time
  // (placements disjoint from `exclude`) until a verifiable subset exists
  // or supply runs out.
  Result<Bytes> fetch_segment(
      const metadata::SegmentInfo& segment,
      const std::vector<metadata::BlockLocation>& exclude);

  // Hash-verified local-file slice of a segment; kNotFound when no
  // referencing file holds a clean copy.
  Result<Bytes> local_segment_slice(const metadata::SyncFolderImage& image,
                                    const std::string& segment_id);

  // Plaintext of a segment: local-file slice when available (verified by
  // hash), otherwise reconstructed from the multi-cloud.
  Result<Bytes> segment_content(const metadata::SyncFolderImage& image,
                                const std::string& segment_id);

  // Uploads moved blocks (re-encoded) and deletes shed ones per `plan`.
  void execute_rebalance(const metadata::SyncFolderImage& image,
                         const sched::RebalancePlan& plan,
                         const erasure::RsCode& code,
                         cloud::CloudProvider* added);

  // Applies the difference between image_ and `target` to the local folder
  // (downloads, deletions); on success updates image_ and counts the apply
  // into `report`. Directory create/remove failures do not abort the apply
  // (files are still materialized) but land in report.dir_failures and
  // report.materialize instead of being silently dropped.
  Status apply_cloud_image(const metadata::SyncFolderImage& target,
                           SyncReport& report);

  // One metadata commit transaction (DESIGN.md §11b): `next` is the image
  // to publish and `changes` its difference from the committed version
  // `basis`. Every commit of the client runs through commit().
  struct CommitTxn {
    metadata::SyncFolderImage next;
    std::vector<metadata::Change> changes;
    metadata::VersionStamp basis;
    // Held from the first acquire besides the dirty shards: none for sync
    // (root only for the flip), root for maintenance, all for membership.
    std::vector<lock::Scope> scopes;
    // Re-derives next/changes from `fresh`, the committed image the fence
    // moved to. Empty changes end the transaction without a commit.
    std::function<void(metadata::SyncFolderImage fresh, CommitTxn&)> rebuild;
  };

  // The commit loop: lock the scopes → read the fenced manifest → rebuild
  // if the basis moved (re-locking when the rebuilt changes need scopes not
  // held) → stamp, stage the dirty shards → take root, flip, release →
  // absorb foreign shards. On success txn.next is the committed image (or
  // the rebuilt one, when nothing was left to commit).
  Status commit(CommitTxn& txn);

  // Cleanup, GC, repair and membership: a transaction holding `scopes`
  // whose changes `plan` derives from the freshest committed image (and
  // re-derives on a rebuild). After the flip: `after_flip`, then image_
  // (v_o) moves to the commit if v_o was its basis; otherwise only the
  // commit's own changes fold in, so foreign ones still get applied.
  using PlanFn = std::function<std::vector<metadata::Change>(
      const metadata::SyncFolderImage&)>;
  Status commit_fresh(std::vector<lock::Scope> scopes, const PlanFn& plan,
                      const std::function<void()>& after_flip = {});

  // Deletes the segment's listed blocks from their clouds (best effort).
  void remove_blocks(const metadata::SegmentInfo& segment);

  // Folds shards that advanced between `fenced` and `committed` by foreign
  // writers into `next` (our staged shards in `own` are kept as-is). Falls
  // back to advertising the fenced version on fetch failure so the next
  // round reconciles through the normal cloud-update path.
  void absorb_foreign_shards(metadata::SyncFolderImage& next,
                             const metadata::ShardManifest& fenced,
                             const metadata::ShardManifest& committed,
                             const std::vector<metadata::ShardEntry>& own);

  // Every shard scope plus root — the stop-the-world set membership changes
  // take while they rewrite placements across the whole image.
  [[nodiscard]] std::vector<lock::Scope> all_scopes() const;

  // add_cloud (`added` non-null) / remove_cloud: rebalances under every
  // scope of the old membership, swaps the cloud stacks, then commits the
  // new block map on the new membership.
  Status change_membership(cloud::CloudPtr added, cloud::CloudId removed);

  [[nodiscard]] std::vector<cloud::CloudId> cloud_ids() const;
  // Resolves to the BlockingCloud facade over the cloud's stack — all I/O
  // goes through the resilience layer, never the raw cloud.
  [[nodiscard]] cloud::CloudProvider* find_cloud(cloud::CloudId id) const;
  // Resolves to the cloud's stack itself (async all the way down to the
  // SyncAdapter leaf).
  [[nodiscard]] cloud::AsyncCloud* find_async_cloud(cloud::CloudId id) const;

  // The async runtime every cloud stack of this client completes on.
  [[nodiscard]] cloud::AsyncContext async_context() const;
  // Rebuilds the executor, the cloud stacks and store_/locks_ over clouds_
  // after membership changes.
  void rebuild_guards();

  // State persistence (no-ops when config_.state_file is empty).
  void load_state();
  void persist_state() const;

  cloud::MultiCloud clouds_;  // raw providers, as enrolled
  std::shared_ptr<LocalFs> fs_;
  ClientConfig config_;
  Clock& clock_;
  Rng rng_;
  // Declared before health_/async_clouds_/store_/locks_: they all capture
  // it.
  obs::ObsPtr obs_;
  // Defect ledger shared with the repair subsystem; captures obs_.
  std::shared_ptr<repair::DurabilityTracker> durability_;
  std::shared_ptr<cloud::CloudHealthRegistry> health_;
  // Shared thread pool for the pipelines' encode/decode stages and every
  // cloud stack's retry attempts and SyncAdapter RPCs; sized for clouds *
  // connections unless config_.pipeline.threads (or
  // UNIDRIVE_PIPELINE_THREADS) overrides. Rebuilt on membership changes.
  std::shared_ptr<Executor> executor_;
  // The one cloud stack per enrolled cloud (cloud::guard_clouds over
  // clouds_), completing on executor_. The data plane launches on it.
  cloud::AsyncMultiCloud async_clouds_;
  // BlockingCloud facades over async_clouds_: the control plane (store_,
  // locks_, GC/cleanup removes, repair's orphan GC) reaches the same
  // objects through them. Only ever called from threads outside executor_.
  cloud::MultiCloud control_clouds_;

  metadata::SyncFolderImage image_;  // v_o: last known committed state
  metadata::ShardedMetaStore store_;
  lock::LockManager locks_;
  sched::ThroughputMonitor monitor_;
  ScanCache scan_cache_;  // (size, mtime) fingerprints; avoids re-hashing
};

}  // namespace unidrive::core
