#include "cloud/async.h"

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <type_traits>
#include <utility>

#include "cloud/faulty_cloud.h"
#include "cloud/latent_cloud.h"
#include "cloud/metered_cloud.h"
#include "cloud/path.h"
#include "cloud/quota_cloud.h"

namespace unidrive::cloud {

// --- AsyncOpState / AsyncHandle ---------------------------------------------

namespace detail {

bool AsyncOpState::try_begin() {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ != Phase::kPending) return false;
  phase_ = Phase::kRunning;
  runner_ = std::this_thread::get_id();
  on_cancel_ = nullptr;  // can no longer be needed; drop captured refs
  return true;
}

void AsyncOpState::finish() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = Phase::kDone;
  }
  cv_.notify_all();
}

bool AsyncOpState::cancel() {
  std::unique_lock<std::mutex> lock(mu_);
  if (phase_ == Phase::kPending) {
    phase_ = Phase::kCancelled;
    std::function<void()> hook = std::move(on_cancel_);
    on_cancel_ = nullptr;
    lock.unlock();
    if (hook) hook();
    return true;
  }
  if (phase_ == Phase::kRunning && runner_ != std::this_thread::get_id()) {
    cv_.wait(lock, [this] { return phase_ != Phase::kRunning; });
  }
  return false;
}

bool AsyncOpState::set_on_cancel(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (phase_ == Phase::kCancelled) return false;
  on_cancel_ = std::move(fn);
  return true;
}

}  // namespace detail

bool AsyncHandle::cancel() {
  if (!state_) return false;
  return state_->cancel();
}

// --- shared op plumbing -----------------------------------------------------

namespace {

// A thread blocked in a BlockingCloud call. Until its result arrives it
// runs the continuations its own op hands back after a wheel delay, so the
// op never needs a pool thread just to carry on after waiting.
struct Waiter : std::enable_shared_from_this<Waiter> {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> ready;
  bool done = false;

  void post(std::function<void()> fn) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ready.push_back(std::move(fn));
    }
    cv.notify_one();
  }
};

// The Waiter of the BlockingCloud call running on this thread, if any.
thread_local Waiter* t_waiter = nullptr;

using detail::AsyncOpState;
using OpStatePtr = std::shared_ptr<AsyncOpState>;

// Invokes `done(value)` under the op-state guard: a no-op when the op was
// cancelled, and cancellers block while it runs.
template <typename Cb, typename V>
void complete(const OpStatePtr& state, const Cb& done, V value) {
  if (!state->try_begin()) return;
  done(std::move(value));
  state->finish();
}

// Defers an already-known outcome onto the I/O pool so the completion never
// runs on the caller's stack (invariant 1 in async.h).
template <typename Cb, typename V>
AsyncHandle defer_result(const AsyncContext& ctx, Cb done, V value) {
  auto state = std::make_shared<AsyncOpState>();
  ctx.io->submit(
      [state, done = std::move(done), value = std::move(value)]() mutable {
        complete(state, done, std::move(value));
      });
  return AsyncHandle(state);
}

// Links a composite op (retry chain, latency chain, fault chain) to its
// cancel hook: cancelling the outer handle cancels whatever inner step —
// wheel timer or inner-cloud handle — is currently armed, and stops further
// steps from being armed.
struct OpChain {
  // Recursive: under a BlockingCloud launch a step may complete, and arm
  // the next one, before the launching chain_step has returned.
  std::recursive_mutex mu;
  bool cancelled = false;
  AsyncHandle inner;
  TimerWheel::TimerId timer = 0;
};

using ChainPtr = std::shared_ptr<OpChain>;

ChainPtr make_chain(const OpStatePtr& state, TimerWheel* wheel) {
  auto chain = std::make_shared<OpChain>();
  state->set_on_cancel([chain, wheel] {
    AsyncHandle inner;
    TimerWheel::TimerId timer = 0;
    {
      std::lock_guard<std::recursive_mutex> lock(chain->mu);
      chain->cancelled = true;
      inner = std::move(chain->inner);
      chain->inner = AsyncHandle();
      timer = chain->timer;
      chain->timer = 0;
    }
    // Outside the chain lock: either cancel may block while the step it is
    // cancelling runs, and that step takes the chain lock itself.
    if (timer != 0 && wheel != nullptr) wheel->cancel(timer);
    inner.cancel();
  });
  return chain;
}

// Arms an inner-cloud step. False = the op was cancelled first; the step was
// not launched.
template <typename Launch>
bool chain_step(const ChainPtr& chain, Launch&& launch) {
  std::lock_guard<std::recursive_mutex> lock(chain->mu);
  if (chain->cancelled) return false;
  chain->timer = 0;
  chain->inner = launch();
  return true;
}

// Runs `fn` after `delay` on the wheel (immediately, in place, when the
// delay is zero). False = the op was cancelled first.
template <typename Fn>
bool chain_delay(const ChainPtr& chain, TimerWheel* wheel, Duration delay,
                 Fn&& fn) {
  {
    std::lock_guard<std::recursive_mutex> lock(chain->mu);
    if (chain->cancelled) return false;
    if (delay > 0) {
      // A BlockingCloud's op resumes on its waiting thread, not the wheel's.
      std::shared_ptr<Waiter> waiter;
      if (t_waiter != nullptr) waiter = t_waiter->shared_from_this();
      chain->timer = wheel->schedule(
          delay, [chain, waiter, fn = std::forward<Fn>(fn)]() mutable {
            {
              std::lock_guard<std::recursive_mutex> lock(chain->mu);
              if (chain->cancelled) return;
              chain->timer = 0;
            }
            if (waiter) {
              waiter->post(std::move(fn));
            } else {
              fn();
            }
          });
      return true;
    }
  }
  fn();
  return true;
}

const Status& status_of(const Status& s) { return s; }
template <typename T>
Status status_of(const Result<T>& r) {
  return r.status();
}

template <typename R>
R error_result(Status s) {
  if constexpr (std::is_same_v<R, Status>) {
    return s;
  } else {
    return R(std::move(s));
  }
}

}  // namespace

// --- SyncAdapter ------------------------------------------------------------

SyncAdapter::SyncAdapter(CloudPtr inner, AsyncContext ctx)
    : inner_(std::move(inner)), ctx_(std::move(ctx)) {}

template <typename R>
AsyncHandle SyncAdapter::run(std::function<R(CloudProvider&)> op,
                             std::function<void(R)> done) {
  auto state = std::make_shared<AsyncOpState>();
  auto task = [state, inner = inner_, active = active_, obs = ctx_.obs,
               op = std::move(op), done = std::move(done)] {
    if (!state->try_begin()) return;  // cancelled while queued
    const auto now_active = active->n.fetch_add(1) + 1;
    auto peak = active->peak.load();
    while (now_active > peak &&
           !active->peak.compare_exchange_weak(peak, now_active)) {
    }
    obs::set_gauge(obs.get(), "async.io.rpcs_active",
                   static_cast<double>(now_active));
    obs::set_gauge(obs.get(), "async.io.rpcs_active_peak",
                   static_cast<double>(active->peak.load()));
    R result = op(*inner);
    obs::set_gauge(obs.get(), "async.io.rpcs_active",
                   static_cast<double>(active->n.fetch_sub(1) - 1));
    done(std::move(result));
    state->finish();
  };
  if (t_waiter != nullptr) {
    // A BlockingCloud's waiting thread would only sleep while a pool thread
    // ran the verb: run it here instead.
    task();
  } else {
    ctx_.io->submit(std::move(task));
  }
  return AsyncHandle(state);
}

AsyncHandle SyncAdapter::upload_async(const std::string& path, ByteSpan data,
                                      StatusCb done) {
  return run<Status>(
      [path, data](CloudProvider& c) { return c.upload(path, data); },
      std::move(done));
}

AsyncHandle SyncAdapter::download_async(const std::string& path,
                                        BytesCb done) {
  return run<Result<Bytes>>(
      [path](CloudProvider& c) { return c.download(path); }, std::move(done));
}

AsyncHandle SyncAdapter::create_dir_async(const std::string& path,
                                          StatusCb done) {
  return run<Status>([path](CloudProvider& c) { return c.create_dir(path); },
                     std::move(done));
}

AsyncHandle SyncAdapter::list_async(const std::string& dir, ListCb done) {
  return run<Result<std::vector<FileInfo>>>(
      [dir](CloudProvider& c) { return c.list(dir); }, std::move(done));
}

AsyncHandle SyncAdapter::remove_async(const std::string& path, StatusCb done) {
  return run<Status>([path](CloudProvider& c) { return c.remove(path); },
                     std::move(done));
}

// --- native async decorators ------------------------------------------------

namespace {

enum Verb : std::size_t { kUpload, kDownload, kCreateDir, kList, kRemove };
constexpr std::array<const char*, 5> kVerbNames = {"upload", "download",
                                                   "create_dir", "list",
                                                   "remove"};

// One cloud's metering instruments (the names in cloud/metered_cloud.h).
// Each is resolved once, on first use — a verb/area pair that never carries
// traffic never shows up in snapshots — and an RPC afterwards only loads a
// pointer and bumps atomics.
class CloudMeters {
 public:
  CloudMeters(obs::ObsPtr obs, const std::string& cloud_name)
      : obs_(std::move(obs)), prefix_("cloud." + cloud_name + ".") {}

  [[nodiscard]] TimePoint now() const { return obs_->clock().now(); }

  void account(Verb verb, std::size_t area, const Status& status,
               TimePoint t0) const {
    const bool ok = status.is_ok();
    resolve(outcome_[verb][area][ok], [&] {
      return &obs_->metrics.counter(prefix_ + kVerbNames[verb] + "." +
                                    kRequestAreas[area] +
                                    (ok ? ".ok" : ".err"));
    })->add();
    resolve(latency_[verb], [&] {
      return &obs_->metrics.histogram(prefix_ + kVerbNames[verb] +
                                      ".latency");
    })->observe(now() - t0);
  }

  void bytes_up(std::size_t n) const {
    resolve(bytes_up_, [&] {
      return &obs_->metrics.counter(prefix_ + "bytes_up");
    })->add(n);
  }
  void bytes_down(std::size_t n) const {
    resolve(bytes_down_, [&] {
      return &obs_->metrics.counter(prefix_ + "bytes_down");
    })->add(n);
  }

 private:
  // Racing first uses both look the name up; the registry hands them the
  // same instrument.
  template <typename T, typename Lookup>
  static T* resolve(std::atomic<T*>& slot, Lookup lookup) {
    T* instrument = slot.load(std::memory_order_acquire);
    if (instrument == nullptr) {
      instrument = lookup();
      slot.store(instrument, std::memory_order_release);
    }
    return instrument;
  }

  obs::ObsPtr obs_;  // owns the instruments
  std::string prefix_;
  // [verb][area][ok]
  mutable std::array<
      std::array<std::array<std::atomic<obs::Counter*>, 2>,
                 kRequestAreas.size()>,
      kVerbNames.size()>
      outcome_{};
  mutable std::array<std::atomic<obs::Histogram*>, kVerbNames.size()>
      latency_{};
  mutable std::atomic<obs::Counter*> bytes_up_{nullptr};
  mutable std::atomic<obs::Counter*> bytes_down_{nullptr};
};

// Meters every request that passes through it, recorded from the
// completion. The closures hold the meters, not the decorator, so in-flight
// ops never dangle even if the decorator is destroyed first.
class AsyncMeteredCloud final : public AsyncCloud {
 public:
  AsyncMeteredCloud(AsyncCloudPtr inner, const obs::ObsPtr& obs)
      : inner_(std::move(inner)),
        meters_(std::make_shared<const CloudMeters>(obs, inner_->name())) {}

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    return inner_->upload_async(
        path, data,
        [m = meters_, area = request_area_index(path), t0 = meters_->now(),
         size = data.size(), done = std::move(done)](Status s) {
          m->account(kUpload, area, s, t0);
          if (s.is_ok()) m->bytes_up(size);
          done(std::move(s));
        });
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    return inner_->download_async(
        path, [m = meters_, area = request_area_index(path),
               t0 = meters_->now(), done = std::move(done)](Result<Bytes> r) {
          m->account(kDownload, area, r.status(), t0);
          if (r.is_ok()) m->bytes_down(r.value().size());
          done(std::move(r));
        });
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return inner_->create_dir_async(path,
                                    metered(kCreateDir, path, std::move(done)));
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    return inner_->list_async(
        dir, [m = meters_, area = request_area_index(dir), t0 = meters_->now(),
              done = std::move(done)](Result<std::vector<FileInfo>> r) {
          m->account(kList, area, r.status(), t0);
          done(std::move(r));
        });
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return inner_->remove_async(path, metered(kRemove, path, std::move(done)));
  }

 private:
  StatusCb metered(Verb verb, const std::string& path, StatusCb done) const {
    return [m = meters_, verb, area = request_area_index(path),
            t0 = meters_->now(), done = std::move(done)](Status s) {
      m->account(verb, area, s, t0);
      done(std::move(s));
    };
  }

  AsyncCloudPtr inner_;
  std::shared_ptr<const CloudMeters> meters_;
};

// Shares quota accounting with the blocking QuotaCloud, so both surfaces
// charge the same budget.
class AsyncQuotaCloud final : public AsyncCloud {
 public:
  AsyncQuotaCloud(std::shared_ptr<QuotaCloud> quota, AsyncCloudPtr inner,
                  AsyncContext ctx)
      : quota_(std::move(quota)),
        inner_(std::move(inner)),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] CloudId id() const noexcept override { return quota_->id(); }
  [[nodiscard]] std::string name() const override { return quota_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const std::string norm = normalize_path(path);
    const Status quota = quota_->check_quota(norm, data.size());
    if (!quota.is_ok()) return defer_result(ctx_, std::move(done), quota);
    return inner_->upload_async(
        norm, data,
        [quota = quota_, norm, size = data.size(),
         done = std::move(done)](Status s) {
          if (s.is_ok()) quota->record_upload(norm, size);
          done(std::move(s));
        });
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    return inner_->download_async(path, std::move(done));
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return inner_->create_dir_async(path, std::move(done));
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    return inner_->list_async(dir, std::move(done));
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    const std::string norm = normalize_path(path);
    return inner_->remove_async(
        norm, [quota = quota_, norm, done = std::move(done)](Status s) {
          if (s.is_ok()) quota->record_remove(norm);
          done(std::move(s));
        });
  }

 private:
  std::shared_ptr<QuotaCloud> quota_;
  AsyncCloudPtr inner_;
  AsyncContext ctx_;
};

Status fault_status(bool outage, const std::string& name) {
  return outage ? make_error(ErrorCode::kOutage, name + ": cloud outage")
                : make_error(ErrorCode::kUnavailable,
                             name + ": transient request failure");
}

// Injects the blocking FaultyCloud's decisions (same RNG stream, same
// counters) on the async surface. Hangs run the injected sleep on the I/O
// pool — a hung RPC legitimately pins an I/O thread, and gated/virtual
// sleeps keep their test semantics — never on the wheel, whose callbacks
// must not block.
class AsyncFaultyCloud final : public AsyncCloud {
 public:
  AsyncFaultyCloud(std::shared_ptr<FaultyCloud> faulty, AsyncCloudPtr inner,
                   AsyncContext ctx)
      : faulty_(std::move(faulty)),
        inner_(std::move(inner)),
        ctx_(std::move(ctx)) {}

  [[nodiscard]] CloudId id() const noexcept override { return faulty_->id(); }
  [[nodiscard]] std::string name() const override { return faulty_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const FaultDecision d = faulty_->draw_decision(data.size(),
                                                   /*is_upload=*/true);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state,
                    path, data, done = std::move(done), d] {
      if (d.fail) {
        complete(state, done, fault_status(d.outage, name));
        return;
      }
      if (d.torn) {
        // Mid-flight abort: the truncated prefix lands, the client sees a
        // failure (same garbage the blocking path leaves behind).
        chain_step(chain, [&] {
          return inner->upload_async(
              path, data.subspan(0, data.size() / 2),
              [state, done, name](Status) {
                complete(state, done,
                         make_error(ErrorCode::kUnavailable,
                                    name + ": upload torn mid-flight"));
              });
        });
        return;
      }
      if (d.drop) {
        // Silently lost: nothing stored, the client sees success.
        complete(state, done, Status::ok());
        return;
      }
      if (d.bitrot) {
        // Corrupted at rest: one flipped byte lands, the client sees
        // success. The rotted buffer rides in the completion closure
        // (upload invariant 3: the span must outlive the request).
        auto rotted = std::make_shared<Bytes>(data.begin(), data.end());
        if (!rotted->empty()) (*rotted)[rotted->size() / 2] ^= 0x01;
        chain_step(chain, [&] {
          return inner->upload_async(path, ByteSpan(*rotted),
                                     [state, done, rotted](Status s) {
                                       complete(state, done, std::move(s));
                                     });
        });
        return;
      }
      chain_step(chain, [&] {
        return inner->upload_async(path, data, [state, done](Status s) {
          complete(state, done, std::move(s));
        });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    // Size-dependent failure needs the size: fetch from the inner cloud
    // first, draw in the completion (mirrors the blocking verb).
    chain_step(chain, [&] {
      return inner_->download_async(
          path, [faulty = faulty_, io = ctx_.io, state,
                 done = std::move(done)](Result<Bytes> r) {
            const std::size_t size = r.is_ok() ? r.value().size() : 0;
            const FaultDecision d =
                faulty->draw_decision(size, /*is_upload=*/false);
            auto settle = [name = faulty->name(), state, done,
                           r = std::move(r), d]() mutable {
              if (d.fail) {
                complete(state, done,
                         Result<Bytes>(fault_status(d.outage, name)));
              } else {
                complete(state, done, std::move(r));
              }
            };
            if (d.hang) {
              io->submit([sleep = faulty->sleep_fn(), stall = d.hang_seconds,
                          settle = std::move(settle)]() mutable {
                sleep(stall);
                settle();
              });
            } else {
              settle();
            }
          });
    });
    return AsyncHandle(state);
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.create_dir_async(path, std::move(cb));
    });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    const FaultDecision d = faulty_->draw_decision(0, /*is_upload=*/false);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state, dir,
                    done = std::move(done), d] {
      if (d.fail) {
        complete(state, done,
                 Result<std::vector<FileInfo>>(fault_status(d.outage, name)));
        return;
      }
      chain_step(chain, [&] {
        return inner->list_async(
            dir, [state, done](Result<std::vector<FileInfo>> r) {
              complete(state, done, std::move(r));
            });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.remove_async(path, std::move(cb));
    });
  }

 private:
  // Shared shape of the Status-returning metadata verbs.
  template <typename Launch>
  AsyncHandle meta_op(StatusCb done, Launch launch) {
    const FaultDecision d = faulty_->draw_decision(0, /*is_upload=*/false);
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, ctx_.wheel);
    auto proceed = [name = faulty_->name(), inner = inner_, chain, state,
                    done = std::move(done), launch = std::move(launch), d] {
      if (d.fail) {
        complete(state, done, fault_status(d.outage, name));
        return;
      }
      chain_step(chain, [&] {
        return launch(*inner, [state, done](Status s) {
          complete(state, done, std::move(s));
        });
      });
    };
    dispatch(d, std::move(proceed));
    return AsyncHandle(state);
  }

  // Runs `proceed` per the decision: after the injected hang (on the I/O
  // pool), deferred (fail paths must not complete on the caller's stack),
  // or in place when it only launches an inner op (which defers itself).
  template <typename Fn>
  void dispatch(const FaultDecision& d, Fn proceed) {
    if (d.hang) {
      ctx_.io->submit([sleep = faulty_->sleep_fn(), stall = d.hang_seconds,
                       proceed = std::move(proceed)]() mutable {
        sleep(stall);
        proceed();
      });
    } else if (d.fail || d.torn || d.drop) {
      // fail and drop complete without launching an inner op, so they must
      // be deferred off the caller's stack (invariant 1); torn keeps its
      // historical deferral.
      ctx_.io->submit(std::move(proceed));
    } else {
      proceed();
    }
  }

  std::shared_ptr<FaultyCloud> faulty_;
  AsyncCloudPtr inner_;
  AsyncContext ctx_;
};

// The point of the whole layer: latency and bandwidth waits become wheel
// timers, so a 1-thread pool can have hundreds of delayed requests
// outstanding. Shares its LinkState with the blocking surface.
class AsyncLatentCloud final : public AsyncCloud {
 public:
  AsyncLatentCloud(std::shared_ptr<LatentCloud> latent, AsyncCloudPtr inner)
      : latent_(std::move(latent)), inner_(std::move(inner)) {}

  [[nodiscard]] CloudId id() const noexcept override { return latent_->id(); }
  [[nodiscard]] std::string name() const override { return latent_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    const LinkProfile& p = latent_->profile();
    // One combined wait (latency + uplink occupancy, reserved at launch)
    // instead of the blocking path's two sequential sleeps.
    const Duration wait =
        p.request_latency_sec +
        latent_->link()->reserve(data.size(), p.up_bytes_per_sec,
                                 /*upload_direction=*/true,
                                 RealClock::instance().now());
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(), wait,
                [inner = inner_, chain, state, path, data,
                 done = std::move(done)] {
                  chain_step(chain, [&] {
                    return inner->upload_async(
                        path, data, [state, done](Status s) {
                          complete(state, done, std::move(s));
                        });
                  });
                });
    return AsyncHandle(state);
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_step(chain, [&] {
      return inner_->download_async(
          path, [latent = latent_, chain, state,
                 done = std::move(done)](Result<Bytes> r) mutable {
            const LinkProfile& p = latent->profile();
            const std::size_t size = r.is_ok() ? r.value().size() : 0;
            const Duration wait =
                p.request_latency_sec +
                latent->link()->reserve(size, p.down_bytes_per_sec,
                                        /*upload_direction=*/false,
                                        RealClock::instance().now());
            chain_delay(chain, &latent->wheel(), wait,
                        [state, done = std::move(done),
                         r = std::move(r)]() mutable {
                          complete(state, done, std::move(r));
                        });
          });
    });
    return AsyncHandle(state);
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.create_dir_async(path, std::move(cb));
    });
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(),
                latent_->profile().request_latency_sec,
                [inner = inner_, chain, state, dir, done = std::move(done)] {
                  chain_step(chain, [&] {
                    return inner->list_async(
                        dir, [state, done](Result<std::vector<FileInfo>> r) {
                          complete(state, done, std::move(r));
                        });
                  });
                });
    return AsyncHandle(state);
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    return meta_op(std::move(done), [path](AsyncCloud& c, StatusCb cb) {
      return c.remove_async(path, std::move(cb));
    });
  }

 private:
  template <typename Launch>
  AsyncHandle meta_op(StatusCb done, Launch launch) {
    auto state = std::make_shared<AsyncOpState>();
    auto chain = make_chain(state, &latent_->wheel());
    chain_delay(chain, &latent_->wheel(),
                latent_->profile().request_latency_sec,
                [inner = inner_, chain, state, done = std::move(done),
                 launch = std::move(launch)] {
                  chain_step(chain, [&] {
                    return launch(*inner, [state, done](Status s) {
                      complete(state, done, std::move(s));
                    });
                  });
                });
    return AsyncHandle(state);
  }

  std::shared_ptr<LatentCloud> latent_;
  AsyncCloudPtr inner_;
};

// --- AsyncRetryingCloud -----------------------------------------------------

// One retrying async call. Attempt bookkeeping (attempt, backoff, rng,
// timestamps) is touched sequentially — each attempt is armed from the
// previous one's completion — so only `chain` needs synchronization.
template <typename R>
struct RetryOp {
  RetryOp(const RetryPolicy& p, Rng rng_in)
      : policy(p), backoff(p), rng(rng_in) {}

  OpStatePtr state = std::make_shared<AsyncOpState>();
  ChainPtr chain;
  AsyncCloudPtr inner;
  std::function<AsyncHandle(AsyncCloud&, std::function<void(R)>)> launch;
  std::function<void(R)> done;
  RetryPolicy policy;
  std::shared_ptr<CloudHealthRegistry> health;  // may be null
  AsyncContext ctx;
  CloudId cloud_id = 0;
  std::string cloud_name;
  // Real sleeps become thread-free wheel re-arms; injected (virtual-time)
  // sleeps must be CALLED for their side effects, so they run on the pool.
  bool wheel_backoff = true;
  obs::Counter* attempts = nullptr;
  obs::Counter* retries = nullptr;
  obs::Counter* transient_failures = nullptr;
  obs::Histogram* backoff_hist = nullptr;

  int attempt = 0;
  TimePoint started = 0;
  TimePoint attempt_start = 0;
  BackoffState backoff;
  Rng rng;
};

template <typename R>
void retry_attempt(const std::shared_ptr<RetryOp<R>>& op);

// Settles one attempt: a success that outlived the policy's attempt
// deadline counts as kTimeout (the caller already gave up on it; the paper's
// clouds routinely stall for minutes), the outcome is recorded against the
// cloud's health, and a transient failure re-arms the next attempt after a
// decorrelated-jitter backoff unless the attempt or total budget is spent.
template <typename R>
void retry_on_result(const std::shared_ptr<RetryOp<R>>& op, R r) {
  Status status = status_of(r);
  const Duration elapsed = op->ctx.clock->now() - op->attempt_start;
  if (status.is_ok() && op->policy.attempt_deadline > 0 &&
      elapsed > op->policy.attempt_deadline) {
    status = make_error(ErrorCode::kTimeout,
                        op->cloud_name + ": attempt exceeded deadline");
    r = error_result<R>(status);
  }
  if (op->health) op->health->record(op->cloud_id, status, elapsed);
  if (op->attempts) {
    op->attempts->add();
    if (op->attempt > 1) op->retries->add();
    if (!status.is_ok() && status.is_transient()) {
      op->transient_failures->add();
    }
  }
  if (status.is_ok() || !status.is_transient() ||
      op->attempt >= op->policy.max_attempts) {
    complete(op->state, op->done, std::move(r));
    return;
  }
  const Duration pause = op->backoff.next(op->rng);
  if (op->policy.total_deadline > 0 &&
      op->ctx.clock->now() - op->started + pause > op->policy.total_deadline) {
    complete(op->state, op->done,
             error_result<R>(make_error(
                 ErrorCode::kTimeout,
                 "retry budget exhausted: " + status.message())));
    return;
  }
  if (op->backoff_hist) op->backoff_hist->observe(pause);
  if (op->wheel_backoff) {
    chain_delay(op->chain, op->ctx.wheel, pause, [op] { retry_attempt(op); });
  } else {
    op->ctx.io->submit([op, pause] {
      op->ctx.sleep(pause);
      retry_attempt(op);
    });
  }
}

template <typename R>
void retry_attempt(const std::shared_ptr<RetryOp<R>>& op) {
  ++op->attempt;
  if (op->health && !op->health->allow_request(op->cloud_id)) {
    // kOutage is non-transient: surface at once instead of spinning the
    // backoff against an open breaker. Not recorded as health — the request
    // never went out.
    Status refused =
        make_error(ErrorCode::kOutage, op->cloud_name + ": circuit open");
    if (op->attempts) {
      op->attempts->add();
      if (op->attempt > 1) op->retries->add();
    }
    complete(op->state, op->done, error_result<R>(std::move(refused)));
    return;
  }
  op->attempt_start = op->ctx.clock->now();
  chain_step(op->chain, [&] {
    return op->launch(*op->inner,
                      [op](R r) { retry_on_result(op, std::move(r)); });
  });
}

// Retry/backoff/deadline/breaker: the one resilience layer of the client's
// cloud stack. When the breaker is open, calls fail at once with kOutage
// ("circuit open") so callers reroute to the remaining k-of-N clouds instead
// of burning a retry cycle against a dead provider.
class AsyncRetryingCloud final : public AsyncCloud {
 public:
  AsyncRetryingCloud(AsyncCloudPtr inner, RetryPolicy policy,
                     std::shared_ptr<CloudHealthRegistry> health, Rng rng,
                     AsyncContext ctx)
      : inner_(std::move(inner)),
        policy_(policy),
        health_(std::move(health)),
        ctx_(std::move(ctx)),
        rng_(rng) {
    if (ctx_.obs) {
      const std::string prefix = "retry." + inner_->name() + ".";
      attempts_ = &ctx_.obs->metrics.counter(prefix + "attempts");
      retries_ = &ctx_.obs->metrics.counter(prefix + "retries");
      transient_failures_ =
          &ctx_.obs->metrics.counter(prefix + "transient_failures");
      backoff_hist_ = &ctx_.obs->metrics.histogram(prefix + "backoff");
    }
  }

  [[nodiscard]] CloudId id() const noexcept override { return inner_->id(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  AsyncHandle upload_async(const std::string& path, ByteSpan data,
                           StatusCb done) override {
    auto op = make_op<Status>(std::move(done));
    op->launch = [path, data](AsyncCloud& c, std::function<void(Status)> cb) {
      return c.upload_async(path, data, std::move(cb));
    };
    return start(op);
  }

  AsyncHandle download_async(const std::string& path, BytesCb done) override {
    auto op = make_op<Result<Bytes>>(std::move(done));
    op->launch = [path](AsyncCloud& c,
                        std::function<void(Result<Bytes>)> cb) {
      return c.download_async(path, std::move(cb));
    };
    return start(op);
  }

  AsyncHandle create_dir_async(const std::string& path,
                               StatusCb done) override {
    auto op = make_op<Status>(std::move(done));
    op->launch = [path](AsyncCloud& c, std::function<void(Status)> cb) {
      return c.create_dir_async(path, std::move(cb));
    };
    return start(op);
  }

  AsyncHandle list_async(const std::string& dir, ListCb done) override {
    auto op = make_op<Result<std::vector<FileInfo>>>(std::move(done));
    op->launch = [dir](AsyncCloud& c,
                       std::function<void(Result<std::vector<FileInfo>>)> cb) {
      return c.list_async(dir, std::move(cb));
    };
    return start(op);
  }

  AsyncHandle remove_async(const std::string& path, StatusCb done) override {
    auto op = make_op<Status>(std::move(done));
    op->launch = [path](AsyncCloud& c, std::function<void(Status)> cb) {
      return c.remove_async(path, std::move(cb));
    };
    return start(op);
  }

 private:
  template <typename R>
  std::shared_ptr<RetryOp<R>> make_op(std::function<void(R)> done) {
    Rng fork;
    {
      // Concurrent ops each retry with an independent jitter stream.
      std::lock_guard<std::mutex> lock(rng_mutex_);
      fork = rng_.fork();
    }
    auto op = std::make_shared<RetryOp<R>>(policy_, fork);
    op->chain = make_chain(op->state, ctx_.wheel);
    op->inner = inner_;
    op->done = std::move(done);
    op->health = health_;
    op->ctx = ctx_;
    op->cloud_id = inner_->id();
    op->cloud_name = inner_->name();
    op->wheel_backoff = is_real_sleep(ctx_.sleep);
    op->attempts = attempts_;
    op->retries = retries_;
    op->transient_failures = transient_failures_;
    op->backoff_hist = backoff_hist_;
    op->started = ctx_.clock->now();
    return op;
  }

  template <typename R>
  AsyncHandle start(const std::shared_ptr<RetryOp<R>>& op) {
    if (t_waiter != nullptr) {
      // A BlockingCloud waiter holds no locks and blocks anyway: the first
      // attempt (even a breaker refusal's completion) runs right here,
      // saving a pool hand-off per control-plane RPC.
      retry_attempt(op);
    } else {
      // Deferred: a breaker refusal never completes on the caller's stack,
      // and first attempts run on the pool in launch order, so a driver
      // launching under its lock never draws fault or breaker decisions
      // concurrently with completions (seeded runs replay identically).
      ctx_.io->submit([op] { retry_attempt(op); });
    }
    return AsyncHandle(op->state);
  }

  AsyncCloudPtr inner_;
  RetryPolicy policy_;
  std::shared_ptr<CloudHealthRegistry> health_;  // may be null
  AsyncContext ctx_;
  std::mutex rng_mutex_;
  Rng rng_;
  // Cached instruments (owned by ctx_.obs->metrics); null when obs is null.
  obs::Counter* attempts_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* transient_failures_ = nullptr;
  obs::Histogram* backoff_hist_ = nullptr;
};

}  // namespace

// --- to_async ---------------------------------------------------------------

AsyncCloudPtr to_async(const CloudPtr& cloud, const AsyncContext& ctx) {
  if (auto fc = std::dynamic_pointer_cast<FaultyCloud>(cloud)) {
    return std::make_shared<AsyncFaultyCloud>(fc, to_async(fc->inner(), ctx),
                                              ctx);
  }
  if (auto qc = std::dynamic_pointer_cast<QuotaCloud>(cloud)) {
    return std::make_shared<AsyncQuotaCloud>(qc, to_async(qc->inner(), ctx),
                                             ctx);
  }
  if (auto lc = std::dynamic_pointer_cast<LatentCloud>(cloud)) {
    return std::make_shared<AsyncLatentCloud>(lc, to_async(lc->inner(), ctx));
  }
  return std::make_shared<SyncAdapter>(cloud, ctx);
}

AsyncMultiCloud guard_clouds(const MultiCloud& clouds,
                             const RetryPolicy& policy,
                             std::shared_ptr<CloudHealthRegistry> health,
                             Rng& rng, const AsyncContext& ctx) {
  AsyncMultiCloud guarded;
  guarded.reserve(clouds.size());
  for (const CloudPtr& c : clouds) {
    AsyncCloudPtr inner = to_async(c, ctx);
    if (ctx.obs) inner = std::make_shared<AsyncMeteredCloud>(inner, ctx.obs);
    guarded.push_back(std::make_shared<AsyncRetryingCloud>(
        std::move(inner), policy, health, rng.fork(), ctx));
  }
  return guarded;
}

// --- BlockingCloud ----------------------------------------------------------

namespace {

// Runs `fn` as the given waiter's thread: launches and continuations
// inside it may run in place.
template <typename Fn>
void as_waiter(Waiter* waiter, Fn&& fn) {
  Waiter* const outer = t_waiter;
  t_waiter = waiter;
  struct Restore {
    Waiter* outer;
    ~Restore() { t_waiter = outer; }
  } restore{outer};
  fn();
}

// Launches one async verb and parks the calling thread until its completion
// delivered the result, running the op's handed-back continuations
// meanwhile.
template <typename R, typename Launch>
R wait_for(Launch&& launch) {
  struct Slot : Waiter {
    std::optional<R> result;
  };
  auto slot = std::make_shared<Slot>();
  as_waiter(slot.get(), [&] {
    launch([slot](R r) {
      std::lock_guard<std::mutex> lock(slot->mu);
      slot->result.emplace(std::move(r));
      slot->done = true;
      slot->cv.notify_one();
    });
  });
  std::unique_lock<std::mutex> lock(slot->mu);
  while (true) {
    slot->cv.wait(lock, [&] { return slot->done || !slot->ready.empty(); });
    if (slot->done) break;
    std::function<void()> next = std::move(slot->ready.front());
    slot->ready.pop_front();
    lock.unlock();
    as_waiter(slot.get(), next);
    next = nullptr;
    lock.lock();
  }
  return *std::move(slot->result);
}

}  // namespace

Status BlockingCloud::upload(const std::string& path, ByteSpan data) {
  return wait_for<Status>(
      [&](StatusCb cb) { inner_->upload_async(path, data, std::move(cb)); });
}

Result<Bytes> BlockingCloud::download(const std::string& path) {
  return wait_for<Result<Bytes>>(
      [&](BytesCb cb) { inner_->download_async(path, std::move(cb)); });
}

Status BlockingCloud::create_dir(const std::string& path) {
  return wait_for<Status>(
      [&](StatusCb cb) { inner_->create_dir_async(path, std::move(cb)); });
}

Result<std::vector<FileInfo>> BlockingCloud::list(const std::string& dir) {
  return wait_for<Result<std::vector<FileInfo>>>(
      [&](ListCb cb) { inner_->list_async(dir, std::move(cb)); });
}

Status BlockingCloud::remove(const std::string& path) {
  return wait_for<Status>(
      [&](StatusCb cb) { inner_->remove_async(path, std::move(cb)); });
}

}  // namespace unidrive::cloud
