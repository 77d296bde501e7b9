// An unbounded multi-producer / multi-consumer blocking channel.
//
// Channels connect execution nodes (one thread per node, §7.2 of the
// paper). Sends never block: Wake trades memory for pipeline liveness
// (src/exec/README.md explains why edges must stay unbounded). A closed
// channel rejects sends; consumers observe closure through Receive()
// returning std::nullopt once the queue drains.
#ifndef WAKE_COMMON_CHANNEL_H_
#define WAKE_COMMON_CHANNEL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/failpoint.h"

namespace wake {

/// Unbounded blocking MPMC queue with close semantics.
template <typename T>
class Channel {
 public:
  Channel() = default;

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Sends one item. Returns false (and drops the item) if the channel is
  /// already closed.
  bool Send(T item) {
    WAKE_FAILPOINT("channel.send");
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Receives one item; blocks until an item is available or the channel
  /// is closed and drained (returns std::nullopt in that case).
  std::optional<T> Receive() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    return PopLocked();
  }

  /// Drains the entire queue in one lock acquisition. Blocks until at
  /// least one item is available or the channel is closed; an empty result
  /// therefore means closed-and-drained. Consumer loops use this instead
  /// of per-item Receive() so deep pipelines pay one synchronization per
  /// batch of partials rather than one per partial.
  std::deque<T> ReceiveAll() {
    std::deque<T> out;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    out.swap(queue_);
    return out;
  }

  /// Receives one item, waiting at most `timeout`. Returns std::nullopt on
  /// timeout as well as on closed-and-drained; callers that need to tell
  /// the two apart check closed() (or their own completion flag) after.
  std::optional<T> ReceiveFor(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait_for(lock, timeout,
                        [&] { return closed_ || !queue_.empty(); });
    return PopLocked();
  }

  /// Non-blocking receive.
  std::optional<T> TryReceive() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopLocked();
  }

  /// Marks the channel closed. Pending items remain receivable.
  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  /// Cancels the channel: closes it AND discards everything queued, so
  /// blocked receivers return empty immediately instead of draining
  /// pending work first. This is the stop-token edge of cooperative query
  /// cancellation — after Cancel(), Receive/ReceiveAll observe
  /// closed-and-drained and node threads unwind promptly. Idempotent;
  /// safe to race with Send/Close from other threads.
  void Cancel() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    queue_.clear();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

 private:
  /// Pops the front item, or returns std::nullopt if the queue is empty.
  /// Caller holds mu_.
  std::optional<T> PopLocked() {
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    return item;
  }

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
};

}  // namespace wake

#endif  // WAKE_COMMON_CHANNEL_H_
