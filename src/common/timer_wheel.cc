#include "common/timer_wheel.h"

#include <chrono>

namespace unidrive {

double TimerWheel::steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TimerWheel::TimerWheel() : thread_([this] { run(); }) {}

TimerWheel::~TimerWheel() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    entries_.clear();  // pending timers are dropped, not fired
  }
  cv_.notify_all();
  thread_.join();
}

TimerWheel::TimerId TimerWheel::schedule(Duration delay,
                                         std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mutex_);
  const TimerId id = next_id_++;
  const double deadline = steady_now() + (delay > 0 ? delay : 0);
  entries_.emplace(id, Entry{deadline, std::move(fn)});
  // The wheel thread sleeps until the earliest deadline it knows; only a
  // new earliest one has to wake it early.
  const bool earliest = heap_.empty() || deadline < heap_.top().first;
  heap_.emplace(deadline, id);
  if (earliest) cv_.notify_one();
  return id;
}

bool TimerWheel::cancel(TimerId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (entries_.erase(id) != 0) return true;
  // Already popped: either finished, or mid-callback. Block until it is
  // done so the caller can rely on the callback not running concurrently —
  // unless we ARE the callback (re-entrant cancel must not deadlock).
  if (running_ == id && std::this_thread::get_id() != thread_.get_id()) {
    done_cv_.wait(lock, [&] { return running_ != id; });
  }
  return false;
}

void TimerWheel::sleep(Duration delay) {
  if (delay <= 0) return;
  std::mutex m;
  std::condition_variable cv;
  bool fired = false;
  schedule(delay, [&] {
    std::lock_guard<std::mutex> lock(m);
    fired = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return fired; });
}

std::size_t TimerWheel::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

TimerWheel& TimerWheel::shared() {
  static TimerWheel wheel;
  return wheel;
}

void TimerWheel::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    // Drop heap entries whose map entry is gone (cancelled).
    while (!heap_.empty() && entries_.count(heap_.top().second) == 0) {
      heap_.pop();
    }
    if (heap_.empty()) {
      cv_.wait(lock, [&] { return stop_ || !heap_.empty(); });
      continue;
    }
    const auto [deadline, id] = heap_.top();
    const double now = steady_now();
    if (deadline > now) {
      cv_.wait_for(lock,
                   std::chrono::duration<double>(deadline - now));
      continue;  // re-evaluate: an earlier timer or a cancel may have landed
    }
    heap_.pop();
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;  // cancelled while due
    std::function<void()> fn = std::move(it->second.fn);
    entries_.erase(it);
    running_ = id;
    lock.unlock();
    fn();
    lock.lock();
    running_ = 0;
    done_cv_.notify_all();
  }
}

}  // namespace unidrive
