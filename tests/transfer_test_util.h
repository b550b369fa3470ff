// Test helper for driving the streaming transfer drivers without a cloud.
#pragma once

#include <functional>
#include <utility>

#include "cloud/async.h"
#include "common/executor.h"
#include "common/status.h"
#include "sched/streaming_driver.h"

namespace unidrive::testing {

// Wraps a plain per-block function as an AsyncTransferFn: `fn` runs on an
// `executor` thread and the completion fires from there — never on the
// launching stack, as the AsyncCloud contract (cloud/async.h) requires.
// `executor` must outlive the driver.
inline sched::AsyncTransferFn complete_on(
    Executor& executor, std::function<Status(const sched::BlockTask&)> fn) {
  return [&executor, fn = std::move(fn)](const sched::BlockTask& task,
                                         sched::TransferDoneFn done) {
    executor.submit(
        [fn, task, done = std::move(done)] { done(fn(task)); });
    return cloud::AsyncHandle{};
  };
}

}  // namespace unidrive::testing
