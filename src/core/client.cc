#include "core/client.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>

#include "common/logging.h"
#include "core/kernel_gauges.h"
#include "crypto/convergent.h"
#include "crypto/sha1.h"
#include "metadata/delta.h"
#include "sched/rebalance.h"

namespace unidrive::core {

using metadata::Change;
using metadata::FileSnapshot;
using metadata::SegmentInfo;
using metadata::SyncFolderImage;
using metadata::VersionStamp;

namespace {

// The RS codec length is pinned (not derived from the current N) so a block
// index means the same codeword row forever: blocks encoded before an
// add/remove-cloud rebalance stay decodable alongside blocks encoded after.
// The scheduler still bounds *placement* by CodeParams::code_n().
constexpr std::size_t kCodecLength = 64;

erasure::RsCode codec_for(const sched::CodeParams& params) {
  return erasure::RsCode(kCodecLength, params.k);
}

// Shared pool width: explicit config wins, otherwise default_threads()
// (env override, else max(transfer concurrency, hardware)).
std::shared_ptr<Executor> make_executor(const ClientConfig& config,
                                        std::size_t num_clouds) {
  const std::size_t floor =
      std::max<std::size_t>(1, num_clouds * config.driver.connections_per_cloud);
  const std::size_t threads = config.pipeline.threads > 0
                                  ? config.pipeline.threads
                                  : Executor::default_threads(floor);
  return std::make_shared<Executor>(threads);
}

cloud::MultiCloud blocking_facades(const cloud::AsyncMultiCloud& stacks) {
  cloud::MultiCloud facades;
  facades.reserve(stacks.size());
  for (const cloud::AsyncCloudPtr& c : stacks) {
    facades.push_back(std::make_shared<cloud::BlockingCloud>(c));
  }
  return facades;
}

// The changes that turn `cloud` into `merged`, for the shard delta logs of
// a merge commit: segment records `cloud` lacks, then file and directory
// differences.
std::vector<Change> changes_between(const SyncFolderImage& cloud,
                                    const SyncFolderImage& merged) {
  std::vector<Change> changes;
  for (const auto& [id, seg] : merged.segments()) {
    if (cloud.find_segment(id) == nullptr) {
      changes.push_back(Change::upsert_segment(seg));
    }
  }
  const metadata::ImageDiff d = metadata::diff_images(cloud, merged);
  for (const auto& [path, ec] : d.files) {
    changes.push_back(ec.kind == metadata::EntryChangeKind::kDeleted
                          ? Change::delete_file(path)
                          : Change::upsert_file(*ec.snapshot));
  }
  for (const std::string& dir : d.added_dirs) {
    changes.push_back(Change::add_dir(dir));
  }
  for (const std::string& dir : d.removed_dirs) {
    changes.push_back(Change::delete_dir(dir));
  }
  return changes;
}

// The committed manifest a commit is fenced on; before the first commit
// ever, an empty one with the store's shard count.
Result<metadata::ShardManifest> fenced_manifest(
    metadata::ShardedMetaStore& store) {
  auto manifest = store.fetch_manifest();
  if (manifest.code() != ErrorCode::kNotFound) return manifest;
  metadata::ShardManifest first;
  first.num_shards = store.num_shards();
  return first;
}

}  // namespace

UniDriveClient::UniDriveClient(cloud::MultiCloud clouds,
                               std::shared_ptr<LocalFs> fs,
                               ClientConfig config, Clock& clock, Rng rng)
    : clouds_(std::move(clouds)),
      fs_(std::move(fs)),
      config_(std::move(config)),
      clock_(clock),
      rng_(rng),
      obs_(std::make_shared<obs::Observability>(clock_)),
      durability_(std::make_shared<repair::DurabilityTracker>(obs_)),
      health_(std::make_shared<cloud::CloudHealthRegistry>(config_.breaker,
                                                           clock_, obs_)),
      executor_(make_executor(config_, clouds_.size())),
      async_clouds_(cloud::guard_clouds(clouds_, config_.retry, health_, rng_,
                                        async_context())),
      control_clouds_(blocking_facades(async_clouds_)),
      store_(control_clouds_, config_.passphrase, config_.meta, obs_,
             config_.cipher),
      locks_(control_clouds_, config_.device, config_.lock, clock_,
             rng_.fork(), config_.sleep, obs_),
      monitor_() {
  export_kernel_gauges(obs_.get());
  load_state();
  if (config_.pool != nullptr) {
    // The pool's refcounts are keyed by folder id; an empty (unset) id gets
    // a process-unique one so two unrelated clients can never collapse into
    // one folder and GC each other's blocks. Dedup still works (probes are
    // by content), but devices of one folder should share an explicit id.
    if (config_.folder_id.empty()) {
      static std::atomic<std::uint64_t> next_anonymous_folder{0};
      config_.folder_id =
          "folder-auto-" +
          std::to_string(next_anonymous_folder.fetch_add(1)) + "-" +
          config_.device;
      UNI_LOG(kWarn) << "client with a shared segment pool but no folder_id;"
                     << " derived unique id " << config_.folder_id;
    }
    // Register the persisted state's references in the shared segment pool,
    // so other folders' GC protects our segments from the first round on.
    config_.pool->absorb_image(config_.folder_id, image_);
  }
}

cloud::AsyncContext UniDriveClient::async_context() const {
  cloud::AsyncContext ctx;
  ctx.io = executor_.get();
  ctx.clock = &clock_;
  ctx.sleep = config_.sleep;
  ctx.obs = obs_;
  return ctx;
}

void UniDriveClient::rebuild_guards() {
  executor_ = make_executor(config_, clouds_.size());
  async_clouds_ = cloud::guard_clouds(clouds_, config_.retry, health_, rng_,
                                      async_context());
  control_clouds_ = blocking_facades(async_clouds_);
  store_ = metadata::ShardedMetaStore(control_clouds_, config_.passphrase,
                                      config_.meta, obs_, config_.cipher);
  locks_ = lock::LockManager(control_clouds_, config_.device, config_.lock,
                             clock_, rng_.fork(), config_.sleep, obs_);
}

void UniDriveClient::load_state() {
  if (config_.state_file.empty()) return;
  std::ifstream in(config_.state_file, std::ios::binary);
  if (!in) return;  // first run
  const Bytes data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto image = SyncFolderImage::deserialize(ByteSpan(data));
  if (image.is_ok()) {
    image_ = std::move(image).take();
  } else {
    UNI_LOG(kWarn) << "discarding corrupt client state file "
                   << config_.state_file;
  }
}

void UniDriveClient::persist_state() const {
  if (config_.state_file.empty()) return;
  const Bytes data = image_.serialize();
  // Write-then-rename so a crash never leaves a torn state file.
  const std::string tmp = config_.state_file + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      UNI_LOG(kWarn) << "cannot persist client state to " << tmp;
      return;
    }
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, config_.state_file, ec);
  if (ec) {
    UNI_LOG(kWarn) << "state rename failed: " << ec.message();
  }
}

sched::CodeParams UniDriveClient::code_params() const {
  sched::CodeParams p;
  p.num_clouds = clouds_.size();
  p.k = config_.k;
  p.ks = config_.ks;
  p.kr = config_.kr;
  return p;
}

std::vector<cloud::CloudId> UniDriveClient::cloud_ids() const {
  std::vector<cloud::CloudId> ids;
  ids.reserve(clouds_.size());
  for (const cloud::CloudPtr& c : clouds_) ids.push_back(c->id());
  return ids;
}

cloud::CloudProvider* UniDriveClient::find_cloud(cloud::CloudId id) const {
  for (const cloud::CloudPtr& c : control_clouds_) {
    if (c->id() == id) return c.get();
  }
  return nullptr;
}

cloud::AsyncCloud* UniDriveClient::find_async_cloud(cloud::CloudId id) const {
  for (const cloud::AsyncCloudPtr& c : async_clouds_) {
    if (c->id() == id) return c.get();
  }
  return nullptr;
}

bool UniDriveClient::cloud_update_pending() {
  return store_.has_cloud_update(image_.version());
}

// --- data plane -------------------------------------------------------------

std::unique_ptr<UploadPipeline> UniDriveClient::make_pipeline(
    const sched::CodeParams& params) {
  return std::make_unique<UploadPipeline>(
      params, codec_for(params), cloud_ids(), config_.driver, monitor_,
      executor_, [this](cloud::CloudId id) { return find_async_cloud(id); },
      config_.pipeline, health_, obs_, config_.pool, config_.folder_id);
}

Status UniDriveClient::restore_files(
    const std::vector<const FileSnapshot*>& snapshots,
    const SyncFolderImage& image, std::size_t* restored) {
  const sched::CodeParams params = code_params();
  // Invalid CodeParams fail only a restore that has segment data to fetch.
  const bool has_data = std::any_of(
      snapshots.begin(), snapshots.end(),
      [](const FileSnapshot* s) { return !s->segment_ids.empty(); });
  if (has_data) UNI_RETURN_IF_ERROR(params.validate());
  DownloadPipeline pipeline(params.k, codec_for(params), cloud_ids(),
                            config_.driver, monitor_, executor_,
                            [this](cloud::CloudId id) {
                              return find_async_cloud(id);
                            },
                            config_.pipeline, *fs_, health_, obs_);
  for (const FileSnapshot* snapshot : snapshots) {
    pipeline.add_file(*snapshot, image);
  }
  for (const DownloadPipeline::FileResult& r : pipeline.finish()) {
    UNI_RETURN_IF_ERROR(r.status);
    if (restored != nullptr) ++*restored;
  }
  return Status::ok();
}

// Fetches, decodes and integrity-checks one segment. On an integrity
// failure (a cloud served tampered or rotted bytes) the corrupt shard
// cannot be identified directly, so the client fetches additional distinct
// blocks one at a time and searches the k-subsets of everything fetched
// until one decodes to the segment's content hash. One long-lived
// streaming driver serves the whole reconstruction: extra blocks raise the
// budget of the same scheduler instead of standing up a fresh driver per
// attempt.
Result<Bytes> UniDriveClient::fetch_segment(
    const SegmentInfo& segment,
    const std::vector<metadata::BlockLocation>& exclude) {
  const sched::CodeParams params = code_params();
  const erasure::RsCode code = codec_for(params);

  sched::DownloadSegmentSpec seg_spec;
  seg_spec.id = segment.id;
  seg_spec.size = segment.size;
  for (const metadata::BlockLocation& loc : segment.blocks) {
    if (std::find(exclude.begin(), exclude.end(), loc) == exclude.end()) {
      seg_spec.locations.push_back(loc);
    }
  }
  if (seg_spec.locations.empty()) {
    return make_error(ErrorCode::kUnavailable,
                      "could not fetch k blocks for segment " + segment.id);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::vector<erasure::Shard> shards;       // all fetched so far
  std::set<std::uint32_t> fetched_indices;  // distinct block indices held
  std::size_t events = 0;
  bool last_ok = false;

  sched::StreamingDownloadDriver driver(
      params.k, cloud_ids(), config_.driver, monitor_, executor_,
      [&](const sched::BlockTask& task,
          sched::TransferDoneFn done) -> cloud::AsyncHandle {
        cloud::AsyncCloud* provider = find_async_cloud(task.cloud);
        if (provider == nullptr) {
          // Never complete on the launching stack (cloud/async.h).
          executor_->submit([done = std::move(done)] {
            done(make_error(ErrorCode::kInternal, "unknown cloud"));
          });
          return {};
        }
        const std::uint32_t index = task.block_index;
        // The locals captured by reference outlive every completion: the
        // driver is destroyed first, and its destructor waits them out.
        return provider->download_async(
            metadata::block_path(task.segment_id, index),
            [&, index, done = std::move(done)](Result<Bytes> data) {
              if (!data.is_ok()) {
                done(data.status());
                return;
              }
              {
                std::lock_guard<std::mutex> guard(mu);
                // A hedge duplicate may land second; keep the first copy.
                if (fetched_indices.insert(index).second) {
                  shards.push_back({index, std::move(data).take()});
                }
              }
              done(Status::ok());
            });
      },
      health_, obs_,
      [&](const std::string&, bool ok) {
        std::lock_guard<std::mutex> guard(mu);
        ++events;
        last_ok = ok;
        cv.notify_all();
      });

  sched::DownloadFileSpec spec;
  spec.path = segment.id;
  spec.segments.push_back(std::move(seg_spec));
  driver.add_file(std::move(spec));
  driver.close();

  std::size_t consumed = 0;
  while (true) {
    bool ok = false;
    std::vector<erasure::Shard> held;
    {
      std::unique_lock<std::mutex> guard(mu);
      cv.wait(guard, [&] { return events > consumed; });
      ++consumed;
      ok = last_ok;
      held = shards;
    }
    if (!ok) {
      // First event failing means even k blocks never landed; a later one
      // means the corrupt-shard search ran out of supply.
      return consumed == 1
                 ? make_error(ErrorCode::kUnavailable,
                              "could not fetch k blocks for segment " +
                                  segment.id)
                 : make_error(ErrorCode::kCorrupt,
                              "segment " + segment.id +
                                  ": no verifiable block combination exists");
    }
    auto decoded =
        decode_verified(code, held, segment, params.k, executor_.get());
    if (decoded.is_ok()) return decoded;
    UNI_LOG(kWarn) << "segment " << segment.id
                   << " failed integrity check with " << held.size()
                   << " blocks; fetching another";
    driver.request_extra_block(segment.id);
  }
}

Status UniDriveClient::apply_cloud_image(const SyncFolderImage& target,
                                         SyncReport& report) {
  const metadata::ImageDiff diff = metadata::diff_images(image_, target);

  // Directory failures must not be swallowed: a file materialized into a
  // missing directory fails too, and the caller needs to know the folder
  // does not fully reflect the committed image.
  for (const std::string& d : diff.added_dirs) {
    const Status s = fs_->make_dir(d);
    if (!s.is_ok()) {
      report.dir_failures.push_back(d);
      UNI_LOG(kWarn) << "make_dir " << d << " failed: " << s.to_string();
    }
  }

  // First pass: deletions inline, downloads collected so the whole batch
  // streams through ONE restore pipeline (connection pools and hedging
  // span file boundaries; the prefetch window bounds memory).
  std::vector<const FileSnapshot*> to_download;
  for (const auto& [path, change] : diff.files) {
    switch (change.kind) {
      case metadata::EntryChangeKind::kAdded:
      case metadata::EntryChangeKind::kModified: {
        // Skip if the local file already matches (e.g. we produced it).
        auto local = fs_->read(path);
        if (local.is_ok() &&
            crypto::Sha1::hex(ByteSpan(local.value())) ==
                change.snapshot->content_hash) {
          break;
        }
        to_download.push_back(&*change.snapshot);
        break;
      }
      case metadata::EntryChangeKind::kDeleted:
        if (fs_->remove(path).is_ok()) ++report.files_removed;
        break;
    }
  }

  if (!to_download.empty()) {
    UNI_RETURN_IF_ERROR(
        restore_files(to_download, target, &report.files_downloaded));
  }

  for (const std::string& d : diff.removed_dirs) {
    const Status s = fs_->remove_dir(d);
    // Already gone is the desired end state, not a failure.
    if (!s.is_ok() && s.code() != ErrorCode::kNotFound) {
      report.dir_failures.push_back(d);
      UNI_LOG(kWarn) << "remove_dir " << d << " failed: " << s.to_string();
    }
  }

  image_ = target;
  if (!report.dir_failures.empty()) {
    report.materialize = Status(
        ErrorCode::kUnavailable,
        "folder materialization incomplete: " +
            std::to_string(report.dir_failures.size()) +
            " directory operation(s) failed");
  }
  return Status::ok();
}

// --- control plane ----------------------------------------------------------

std::vector<lock::Scope> UniDriveClient::all_scopes() const {
  std::vector<lock::Scope> scopes;
  for (std::uint32_t s = 0; s < store_.num_shards(); ++s) {
    scopes.push_back(lock::Scope::of_shard(s));
  }
  scopes.push_back(lock::Scope::root());
  return scopes;
}

void UniDriveClient::absorb_foreign_shards(
    SyncFolderImage& next, const metadata::ShardManifest& fenced,
    const metadata::ShardManifest& committed,
    const std::vector<metadata::ShardEntry>& own) {
  std::set<metadata::ShardId> foreign;
  for (const metadata::ShardEntry& e : committed.entries) {
    const metadata::ShardEntry* was = fenced.find(e.id);
    if (was == nullptr || was->version < e.version) foreign.insert(e.id);
  }
  for (const metadata::ShardEntry& o : own) foreign.erase(o.id);
  if (foreign.empty()) return;

  // Rebuild the image as (our shards, untouched) + (foreign shards, as
  // committed). Everything routed to a foreign shard is dropped first so a
  // concurrent deletion in that shard does not resurrect through us.
  const std::uint32_t n = committed.num_shards;
  SyncFolderImage merged = next.extract(
      [&](const std::string& path) {
        return foreign.count(metadata::shard_of_path(path, n)) == 0;
      },
      [&](const std::string& seg) {
        return foreign.count(metadata::shard_of_segment(seg, n)) == 0;
      });
  for (const metadata::ShardId id : foreign) {
    const metadata::ShardEntry* e = committed.find(id);
    if (e == nullptr) continue;
    auto shard = store_.fetch_shard(*e);
    if (!shard.is_ok()) {
      // The foreign writer's objects are not visible right now: keep our
      // own content but advertise the fenced basis, so the next round sees
      // a cloud update and reconciles through the normal merge path.
      obs::add_counter(obs_.get(), "meta.shard.absorb.err");
      next.set_version(fenced.version);
      return;
    }
    merged.absorb(shard.value());
  }
  merged.rebuild_refcounts();
  merged.prune_segment_stubs();
  merged.set_version(committed.version);
  obs::add_counter(obs_.get(), "meta.shard.absorb.ok", foreign.size());
  next = std::move(merged);
}

Status UniDriveClient::commit(CommitTxn& txn) {
  constexpr int kMaxAttempts = 4;
  Status last = make_error(ErrorCode::kLockContention,
                           "commit retry budget exhausted");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (txn.changes.empty()) return Status::ok();
    const std::uint32_t n = store_.num_shards();
    auto slices = metadata::split_changes_by_shard(txn.changes, n);
    std::vector<lock::Scope> scopes = txn.scopes;
    for (const metadata::ShardSlice& s : slices) {
      scopes.push_back(lock::Scope::of_shard(s.shard));
    }
    lock::LockManager::Hold hold(locks_);
    UNI_RETURN_IF_ERROR(hold.acquire(std::move(scopes)));

    UNI_ASSIGN_OR_RETURN(const metadata::ShardManifest fenced,
                         fenced_manifest(store_));
    // The published manifest was created with a different shard count
    // (that choice is authoritative): re-route and re-lock.
    if (store_.num_shards() != n) continue;

    if (txn.basis < fenced.version) {
      // A foreign commit landed since the basis: rebuild on the fresh image.
      UNI_ASSIGN_OR_RETURN(metadata::FetchedMetadata fresh,
                           store_.fetch_latest());
      txn.basis = fresh.version;
      txn.rebuild(std::move(fresh.image), txn);
      if (txn.changes.empty()) return Status::ok();
      // The rebuilt changes may route into shards we do not hold (merge
      // conflict copies in other subtrees): re-lock with the full set.
      slices = metadata::split_changes_by_shard(txn.changes, n);
      const bool covered = std::all_of(
          slices.begin(), slices.end(), [&](const metadata::ShardSlice& s) {
            return locks_.held(lock::Scope::of_shard(s.shard));
          });
      if (!covered) {
        last = make_error(ErrorCode::kLockContention,
                          "rebuild widened the dirty shard set");
        continue;
      }
    }

    const VersionStamp stamp{
        config_.device,
        std::max(fenced.version.counter, image_.version().counter) + 1,
        clock_.now()};
    txn.next.set_version(stamp);

    // Stage every dirty shard; unless the caller holds root, the heavy
    // object uploads run concurrently with other writers' disjoint commits.
    std::vector<metadata::ShardEntry> dirty;
    dirty.reserve(slices.size());
    for (const metadata::ShardSlice& slice : slices) {
      UNI_ASSIGN_OR_RETURN(
          metadata::ShardEntry entry,
          store_.publish_shard(slice.shard, fenced.find(slice.shard),
                               slice.changes, txn.next, stamp,
                               config_.delta_policy));
      dirty.push_back(std::move(entry));
    }

    // Root scope only for the manifest flip (a no-op when already held) —
    // the global choke point stays as narrow as the protocol allows.
    UNI_RETURN_IF_ERROR(hold.acquire({lock::Scope::root()}));
    auto flipped = store_.commit_manifest(dirty, fenced, stamp);
    hold.release();
    if (!flipped.is_ok()) {
      if (flipped.code() != ErrorCode::kConflict) return flipped.status();
      last = flipped.status();
      continue;  // restage from fresh state
    }
    txn.next.set_version(flipped.value().version);
    absorb_foreign_shards(txn.next, fenced, flipped.value(), dirty);
    return Status::ok();
  }
  return last;
}

Status UniDriveClient::commit_fresh(std::vector<lock::Scope> scopes,
                                    const PlanFn& plan,
                                    const std::function<void()>& after_flip) {
  CommitTxn txn;
  txn.scopes = std::move(scopes);
  txn.rebuild = [&plan](SyncFolderImage fresh, CommitTxn& t) {
    t.changes = plan(fresh);
    for (const Change& c : t.changes) apply_change(fresh, c);
    t.next = std::move(fresh);
  };
  auto fetched = store_.fetch_latest();
  if (!fetched.is_ok() && fetched.code() != ErrorCode::kNotFound) {
    return fetched.status();
  }
  SyncFolderImage base =
      fetched.is_ok() ? std::move(fetched).take().image : image_;
  txn.basis = base.version();
  txn.rebuild(std::move(base), txn);
  UNI_RETURN_IF_ERROR(commit(txn));
  if (txn.changes.empty()) return Status::ok();
  if (after_flip) after_flip();
  // v_o advances to the commit only when the commit was built on it.
  // Otherwise only the commit's own changes fold into v_o: jumping past
  // foreign commits would skip their materialization in the local folder
  // (and the next scan would read their files as local deletions).
  if (txn.basis == image_.version()) {
    image_ = std::move(txn.next);
  } else {
    for (const Change& c : txn.changes) apply_change(image_, c);
  }
  if (config_.pool != nullptr) {
    config_.pool->absorb_image(config_.folder_id, image_);
  }
  return Status::ok();
}

void UniDriveClient::remove_blocks(const SegmentInfo& segment) {
  for (const metadata::BlockLocation& b : segment.blocks) {
    cloud::CloudProvider* provider = find_cloud(b.cloud);
    if (provider != nullptr) {
      (void)provider->remove(metadata::block_path(segment.id, b.block_index));
    }
  }
}

Result<SyncReport> UniDriveClient::sync() {
  SyncReport report;
  obs::add_counter(obs_.get(), "sync.rounds");
  obs::Span round_span = obs::start_span(obs_.get(), "sync.round");

  const chunker::SegmenterParams seg_params{config_.theta};
  const sched::CodeParams params = code_params();
  const bool params_ok = params.validate().is_ok();

  // Stand the pipeline up BEFORE the scan so CDC output streams straight
  // into encode/transfer while the scanner is still walking files. With
  // invalid CodeParams there is no pipeline: the scan collects new
  // segments instead, and the validation error surfaces only if there is
  // data to upload. The pipeline lives until the end of the round so its
  // segment-pool pins survive the metadata commit.
  std::unique_ptr<UploadPipeline> pipeline;
  if (params_ok) pipeline = make_pipeline(params);

  ScanResult scan;
  {
    obs::Span scan_span = round_span.child("sync.scan");
    if (pipeline != nullptr) {
      scan = scan_local_changes(*fs_, image_, seg_params, config_.device,
                                &scan_cache_,
                                [&](const std::string& id, Bytes bytes) {
                                  pipeline->feed(id, std::move(bytes));
                                });
    } else {
      scan = scan_local_changes(*fs_, image_, seg_params, config_.device,
                                &scan_cache_);
    }
  }

  if (!scan.changes.empty()) {
    // --- local update path (Algorithm 1, lines 2-14) ---
    // Data plane first: blocks must hit the clouds before metadata does.
    std::vector<SegmentInfo> uploaded;
    {
      obs::Span upload_span = round_span.child("sync.upload_segments");
      if (pipeline == nullptr) {
        if (!scan.new_segments.empty()) return params.validate();
      } else {
        UNI_ASSIGN_OR_RETURN(uploaded, pipeline->finish());
        const UploadPipeline::DedupStats dedup = pipeline->dedup_stats();
        report.segments_deduped = dedup.segments;
        report.dedup_bytes_saved = dedup.bytes_saved;
        // `uploaded` carries one record per fed segment, dedup hits
        // included; clamp so a result subset can never underflow size_t.
        report.segments_uploaded = uploaded.size() >= dedup.segments
                                       ? uploaded.size() - dedup.segments
                                       : 0;
      }
    }

    // Build v_l = v_o + epsilon (+ fresh segment records).
    SyncFolderImage local = image_;
    CommitTxn txn;
    for (const SegmentInfo& seg : uploaded) {
      Change c = Change::upsert_segment(seg);
      apply_change(local, c);
      txn.changes.push_back(std::move(c));
    }
    for (const Change& c : scan.changes.aggregated()) {
      apply_change(local, c);
      txn.changes.push_back(c);
      if (c.kind == metadata::ChangeKind::kUpsertFile) ++report.files_uploaded;
    }
    txn.next = local;
    txn.basis = image_.version();
    // Behind the cloud: 3-way merge v_o, v_l and the fresh image (conflicts
    // keep both copies) and commit the merge's difference to the cloud.
    txn.rebuild = [&](SyncFolderImage fresh, CommitTxn& t) {
      obs::Span merge_span = obs::start_span(obs_.get(), "sync.merge");
      metadata::MergeResult merged =
          metadata::merge_images(image_, local, fresh, config_.device);
      merge_span.end();
      report.conflicts = merged.conflicts;
      obs::add_counter(obs_.get(), "sync.conflicts", merged.conflicts.size());
      t.changes = changes_between(fresh, merged.merged);
      t.next = std::move(merged.merged);
      t.next.set_version(fresh.version());  // adopted as is if no changes
    };

    {
      // Locks only the dirty shard scopes, stages one delta object per
      // dirty shard and flips the root manifest under the root scope.
      obs::Span commit_span = round_span.child("sync.commit");
      UNI_RETURN_IF_ERROR(commit(txn));
    }
    report.committed = true;

    // Bring the local folder up to the committed state (conflict copies,
    // concurrently added files from other devices). The local folder
    // currently reflects v_l, so diff from there.
    SyncFolderImage committed = std::move(txn.next);
    image_ = std::move(local);
    obs::Span apply_span = round_span.child("sync.apply_cloud");
    const Status applied = apply_cloud_image(committed, report);
    apply_span.end();
    if (!applied.is_ok()) {
      image_ = std::move(committed);  // folder lags; metadata is authoritative
      report.materialize = applied;
    } else {
      report.applied_cloud = report.files_downloaded + report.files_removed > 0;
    }
  } else if (store_.has_cloud_update(image_.version())) {
    // --- cloud update path (Algorithm 1, lines 15-18) ---
    UNI_ASSIGN_OR_RETURN(const metadata::FetchedMetadata fetched,
                         store_.fetch_latest());
    obs::Span apply_span = round_span.child("sync.apply_cloud");
    UNI_RETURN_IF_ERROR(apply_cloud_image(fetched.image, report));
    apply_span.end();
    report.applied_cloud = true;
  }

  // Reconcile the shared segment pool with the round's final committed
  // state: newly committed segments become dedupable for everyone, dropped
  // ones shed our reference. Runs while the pipeline (and its probe pins)
  // is still alive, so there is no unprotected window.
  if (config_.pool != nullptr) {
    config_.pool->absorb_image(config_.folder_id, image_);
  }

  report.version = image_.version();
  report.cloud_health = health_->snapshot_all();
  report.durability = durability_->summarize(
      image_, config_.k, config_.redundancy_floor,
      [this](cloud::CloudId id) { return health_->admissible(id); });
  repair::publish_durability_gauges(report.durability, obs_.get());
  // Degraded = reduced reachability OR eroded durability: an open breaker,
  // or any segment whose surviving redundancy fell below the floor.
  report.degraded =
      !health_->all_closed() || report.durability.under_replicated > 0;
  persist_state();
  round_span.end();
  report.metrics = obs_->metrics.snapshot();
  return report;
}

// --- maintenance -------------------------------------------------------------

Status UniDriveClient::cleanup_overprovisioned() {
  const std::size_t fair_share = code_params().fair_share();
  std::vector<SegmentInfo> surplus;  // per segment, the blocks to delete
  return commit_fresh(
      {lock::Scope::root()},
      [&](const SyncFolderImage& image) {
        surplus.clear();
        std::vector<Change> changes;
        for (const auto& [id, seg] : image.segments()) {
          std::map<cloud::CloudId, std::size_t> per_cloud;
          SegmentInfo trimmed = seg;
          SegmentInfo shed{.id = id, .blocks = {}};
          trimmed.blocks.clear();
          for (const metadata::BlockLocation& b : seg.blocks) {
            (per_cloud[b.cloud]++ < fair_share ? trimmed : shed)
                .blocks.push_back(b);
          }
          if (!shed.blocks.empty()) {
            changes.push_back(Change::upsert_segment(trimmed));
            surplus.push_back(std::move(shed));
          }
        }
        return changes;
      },
      [&] {
        for (const SegmentInfo& s : surplus) remove_blocks(s);
      });
}

Result<std::size_t> UniDriveClient::collect_garbage() {
  std::vector<SegmentInfo> dropped;
  const Status status = commit_fresh(
      {lock::Scope::root()},
      [&](const SyncFolderImage& image) {
        dropped.clear();
        std::vector<Change> changes;
        for (const std::string& id : image.garbage_segments()) {
          dropped.push_back(*image.find_segment(id));
          changes.push_back(Change::drop_segment(id));
        }
        return changes;
      },
      [&] {
        // Blocks go only after the flip: until then a device may commit a
        // file reusing a dropped segment (the scanner reuses any known
        // one), and the rebuilt commit keeps it.
        for (const SegmentInfo& seg : dropped) {
          // Cross-folder guard: blocks live in a shared content-addressed
          // namespace, so a segment another folder still references keeps
          // them. The grant comes before image_ stops pinning the pool
          // entry, and its tombstone holds off probes (which would hand
          // out, or re-upload to, the paths) until finish_gc.
          if (config_.pool != nullptr &&
              !config_.pool->try_begin_gc(config_.folder_id, seg.id)) {
            obs::add_counter(obs_.get(), "dedup.gc.shared_keep");
            continue;
          }
          remove_blocks(seg);
          if (config_.pool != nullptr) config_.pool->finish_gc(seg.id);
        }
      });
  if (!status.is_ok()) return status;
  return dropped.size();
}

Status UniDriveClient::resolve_conflict(const metadata::ConflictRecord& record,
                                        ConflictChoice choice) {
  if (record.conflict_copy.empty()) {
    // Nothing was copied (e.g. delete-vs-edit); the cloud version already
    // stands — only kKeepTheirs is meaningful and it is a no-op.
    return choice == ConflictChoice::kKeepTheirs
               ? Status::ok()
               : make_error(ErrorCode::kInvalidArgument,
                            "conflict has no local copy to promote");
  }
  if (choice == ConflictChoice::kKeepMine) {
    UNI_ASSIGN_OR_RETURN(const Bytes mine, fs_->read(record.conflict_copy));
    UNI_RETURN_IF_ERROR(fs_->write(record.path, ByteSpan(mine)));
  }
  UNI_RETURN_IF_ERROR(fs_->remove(record.conflict_copy));
  return Status::ok();
}

Status UniDriveClient::restore_previous_version(const std::string& path) {
  const std::vector<FileSnapshot> history = image_.history(path);
  if (history.empty()) {
    return make_error(ErrorCode::kNotFound,
                      "no superseded snapshot for " + path);
  }
  // Materialize the old content locally; the next sync() scans it as a
  // fresh local edit and commits it through the normal pipeline (so other
  // devices receive it like any other change). Segments are still in the
  // pool — history snapshots keep them referenced.
  return restore_files({&history.front()}, image_, nullptr);
}

// Hash-verified slice of a segment out of a local file (the client keeps a
// full copy of everything). kNotFound when no referencing file holds a
// clean copy.
Result<Bytes> UniDriveClient::local_segment_slice(
    const SyncFolderImage& image, const std::string& segment_id) {
  for (const auto& [path, snapshot] : image.files()) {
    std::size_t offset = 0;
    for (const std::string& sid : snapshot.segment_ids) {
      const metadata::SegmentInfo* seg = image.find_segment(sid);
      const std::size_t len = seg ? seg->size : 0;
      if (sid == segment_id) {
        auto content = fs_->read(path);
        if (content.is_ok() && offset + len <= content.value().size()) {
          const ByteSpan view(content.value());
          const Bytes piece(view.begin() + offset,
                            view.begin() + offset + len);
          // Trust but verify: the local file may have been edited since.
          // Dispatches on the id's hash family (SHA-256, legacy SHA-1).
          if (crypto::verify_segment_id(segment_id, ByteSpan(piece))) {
            return piece;
          }
        }
        break;  // local copy unusable; try the next referencing file
      }
      offset += len;
    }
  }
  return make_error(ErrorCode::kNotFound,
                    "no verified local copy of segment " + segment_id);
}

// Plaintext bytes of a segment, for re-encoding blocks during rebalances.
// Fast path: the local slice. Fallback: fetch + decode k blocks from the
// multi-cloud — membership changes must work even when the local copy is
// missing (e.g. a freshly joined device administering the multi-cloud).
Result<Bytes> UniDriveClient::segment_content(
    const SyncFolderImage& image, const std::string& segment_id) {
  auto local = local_segment_slice(image, segment_id);
  if (local.is_ok()) return local;
  // Repair path: reconstruct from the clouds. fetch_segment resolves
  // block placements from the record itself — no image adoption needed.
  const metadata::SegmentInfo* seg = image.find_segment(segment_id);
  if (seg == nullptr) {
    return make_error(ErrorCode::kNotFound, "unknown segment " + segment_id);
  }
  return fetch_segment(*seg, {});
}

erasure::RsCode UniDriveClient::codec() const {
  return codec_for(code_params());
}

Result<Bytes> UniDriveClient::reconstruct_segment(
    const std::string& segment_id,
    const std::vector<metadata::BlockLocation>& exclude) {
  auto local = local_segment_slice(image_, segment_id);
  if (local.is_ok()) return local;
  const metadata::SegmentInfo* seg = image_.find_segment(segment_id);
  if (seg == nullptr) {
    return make_error(ErrorCode::kNotFound, "unknown segment " + segment_id);
  }
  // No clean local copy: decode from the clouds WITHOUT the defective
  // placements — a corrupt block must never poison its own repair.
  return fetch_segment(*seg, exclude);
}

Status UniDriveClient::commit_repaired_placements(
    std::vector<SegmentInfo> repaired) {
  if (repaired.empty()) return Status::ok();
  return commit_fresh(
      {lock::Scope::root()},
      [&](const SyncFolderImage& image) {
        std::vector<Change> changes;
        for (const SegmentInfo& seg : repaired) {
          const SegmentInfo* current = image.find_segment(seg.id);
          // Vanished (GC'd) or already identical: repair is moot/duplicate.
          if (current == nullptr || current->blocks == seg.blocks) continue;
          SegmentInfo updated = *current;  // keep commit-side refcount/size
          updated.blocks = seg.blocks;
          changes.push_back(Change::upsert_segment(std::move(updated)));
        }
        return changes;
      },
      [&] { obs::add_counter(obs_.get(), "repair.placement_commits"); });
}

// Executes a rebalance plan: re-encode + upload moved blocks, delete shed
// ones. Best effort per block (unreachable clouds are skipped; the plan is
// re-derivable later).
void UniDriveClient::execute_rebalance(const SyncFolderImage& image,
                                       const sched::RebalancePlan& plan,
                                       const erasure::RsCode& code,
                                       cloud::CloudProvider* added) {
  for (const sched::BlockMove& move : plan.moves) {
    auto content = segment_content(image, move.segment_id);
    if (!content.is_ok()) {
      UNI_LOG(kWarn) << "rebalance: cannot reconstruct segment "
                     << move.segment_id << ": "
                     << content.status().to_string();
      continue;
    }
    // segment_content returns plaintext; stored blocks are coded over the
    // convergent-sealed payload (identity for legacy SHA-1 ids).
    const Bytes sealed =
        crypto::convergent_seal(move.segment_id, ByteSpan(content.value()));
    const auto shards = code.encode_shards(ByteSpan(sealed), {move.block_index});
    cloud::CloudProvider* target =
        added != nullptr && added->id() == move.to_cloud ? added
                                                         : find_cloud(move.to_cloud);
    if (target != nullptr) {
      (void)target->upload(
          metadata::block_path(move.segment_id, move.block_index),
          ByteSpan(shards.front().data));
    }
  }
  for (const sched::BlockDeletion& del : plan.deletions) {
    remove_blocks({.id = del.segment_id,
                   .blocks = {{del.block_index, del.cloud}}});
  }
}

Status UniDriveClient::add_cloud(cloud::CloudPtr new_cloud) {
  return change_membership(std::move(new_cloud), 0);
}

Status UniDriveClient::remove_cloud(cloud::CloudId removed) {
  return change_membership(nullptr, removed);
}

Status UniDriveClient::change_membership(cloud::CloudPtr added,
                                         cloud::CloudId removed) {
  std::vector<cloud::CloudId> ids;
  for (const cloud::CloudPtr& c : clouds_) {
    if (added != nullptr || c->id() != removed) ids.push_back(c->id());
  }
  if (added != nullptr) {
    ids.push_back(added->id());
  } else if (ids.size() == clouds_.size()) {
    return make_error(ErrorCode::kInvalidArgument, "cloud not enrolled");
  }
  sched::CodeParams params = code_params();
  params.num_clouds = ids.size();
  UNI_RETURN_IF_ERROR(params.validate());

  std::vector<SegmentInfo> placed;  // the rebalanced block map
  {
    // Membership changes rewrite placements across every shard: hold every
    // scope of the OLD membership while the rebalance moves blocks. Its
    // deletions must reach a removed cloud before the guards drop it.
    lock::LockManager::Hold hold(locks_);
    UNI_RETURN_IF_ERROR(hold.acquire(all_scopes()));
    auto fetched = store_.fetch_latest();
    SyncFolderImage image =
        fetched.is_ok() ? std::move(fetched).take().image : image_;
    const sched::RebalancePlan plan =
        added != nullptr
            ? sched::plan_add_cloud(image, added->id(), ids, params)
            : sched::plan_remove_cloud(image, removed, ids, params);
    // The joining cloud gets the same stack as enrolled ones for the
    // rebalance uploads.
    const cloud::CloudPtr added_guard =
        added == nullptr
            ? nullptr
            : blocking_facades(cloud::guard_clouds({added}, config_.retry,
                                                   health_, rng_,
                                                   async_context()))
                  .front();
    execute_rebalance(image, plan, codec_for(params), added_guard.get());
    sched::apply_rebalance(image, plan);
    for (const auto& [id, seg] : image.segments()) placed.push_back(seg);
  }

  std::erase_if(clouds_, [&](const cloud::CloudPtr& c) {
    return std::find(ids.begin(), ids.end(), c->id()) == ids.end();
  });
  if (added != nullptr) clouds_.push_back(std::move(added));
  rebuild_guards();
  // Splice the rebalanced block map onto the freshest committed state
  // under every scope of the NEW membership: a writer may have committed
  // in the guard-rebuild window, and upsert_segment keeps its references.
  return commit_fresh(all_scopes(),
                      [&](const SyncFolderImage& image) {
                        std::vector<Change> changes;
                        for (const SegmentInfo& seg : placed) {
                          if (image.find_segment(seg.id) != nullptr) {
                            changes.push_back(Change::upsert_segment(seg));
                          }
                        }
                        return changes;
                      });
}

}  // namespace unidrive::core
