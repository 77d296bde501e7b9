// Execution node base class: one operator, one thread, one inbox.
//
// Per §7.2 of the paper, every node runs on its own thread, reads messages
// from its inputs, updates its intrinsic state, and writes extrinsic-state
// messages to its consumers. Each node owns one inbox, an unbounded
// Channel<Tagged>: every producer that feeds it sends port-tagged messages
// straight into it, and a producer that finishes sends one EOF marker per
// consumer. A node with several inputs therefore waits on a single queue,
// so a slow input never blocks a ready one and no thread sits between two
// operators. Inboxes are unbounded: Wake trades memory for pipeline
// liveness, the cost the paper acknowledges in Table 1.
#ifndef WAKE_EXEC_EXEC_NODE_H_
#define WAKE_EXEC_EXEC_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.h"
#include "common/resource.h"
#include "exec/message.h"
#include "exec/trace.h"

namespace wake {

/// A consumer's queue: every producer that feeds the consumer sends
/// port-tagged messages, then one EOF marker, straight into it.
using Inbox = Channel<Tagged>;
using InboxPtr = std::shared_ptr<Inbox>;

/// Base class for all operators in a running query graph.
class ExecNode {
 public:
  explicit ExecNode(std::string label);
  virtual ~ExecNode();

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  /// Makes `upstream` feed this node's next input port: the upstream
  /// node sends its messages, tagged with that port, into this node's
  /// inbox. Must be called before either node starts.
  void AddInput(ExecNode* upstream);

  /// Subscribes `inbox` to this node's output under `port`. A node may
  /// feed several consumers; each gets every message (frames are shared
  /// immutable pointers, so the copy is cheap). This implements the
  /// paper's shared-subplan optimization (§7.3: reusing build tables /
  /// aggregates that appear multiple times in a query), and it is how the
  /// engine's collector reads the root. Must be called before Start().
  void AddOutlet(InboxPtr inbox, size_t port);

  const std::string& label() const { return label_; }

  /// Attaches the per-query resource tracker (may be null). The node
  /// charges emitted partials (per destination inbox) and its own
  /// operator state (BufferedBytes, re-measured per drained batch), and
  /// credits messages as it consumes them — so the tracker sees
  /// queued-but-undrained partials plus live operator state. Must be
  /// called before Start().
  void SetResourceTracker(ResourceTracker* tracker) { tracker_ = tracker; }

  /// Installs the graph-owner's node-failure hook. A node thread that
  /// exits via exception cancels its own and its consumers' inboxes and
  /// reports here instead of terminating the process; the owner stops the
  /// rest of the graph and surfaces the error. May be invoked
  /// concurrently from several node threads. Must be called before
  /// Start().
  void SetErrorHandler(std::function<void(std::exception_ptr)> handler) {
    error_handler_ = std::move(handler);
  }

  /// Spawns the node thread. `trace` may be null.
  void Start(TraceLog* trace);

  /// Joins the node thread (must be called before destruction if started).
  void Join();

  /// Requests cooperative shutdown: sets the stop flag and cancels this
  /// node's inbox and its consumers' inboxes, so this run loop and every
  /// consumer blocked on its inbox unwind promptly without draining
  /// pending work. The run loop re-checks the flag between messages, so
  /// an in-flight Process call finishes its current partial and then
  /// exits. A node whose inbox is cancelled before all its inputs sent
  /// EOF skips Finish() (no final snapshot is computed) and cancels its
  /// consumers' inboxes instead of sending them EOF, so truncated input
  /// never looks complete downstream. Thread-safe and idempotent;
  /// cancelling a whole graph means calling this on every node. Must only
  /// be called after the graph is fully wired (all AddInput/AddOutlet
  /// done), i.e. on a started query.
  void RequestStop();

  /// Requests a *drain* stop — the graceful half of budget enforcement.
  /// Unlike RequestStop() nothing is cancelled: only source loops react
  /// (they stop feeding the graph and send EOF to their consumers), EOF
  /// propagates, and every downstream node finishes normally over the
  /// truncated input — so the engine's last snapshot is a genuine
  /// best-estimate over the data processed so far, CI included.
  /// Thread-safe and idempotent.
  void RequestDrainStop() {
    drain_stop_.store(true, std::memory_order_relaxed);
  }

  /// Approximate bytes currently buffered in node state (hash tables,
  /// pending frames, aggregation state); used for the peak-memory
  /// comparison of §8.2.
  virtual size_t BufferedBytes() const { return 0; }

 protected:
  /// Handles one message from input `port`.
  virtual void Process(size_t port, const Message& msg) = 0;

  /// Called once when input `port` reaches EOF.
  virtual void OnInputClosed(size_t /*port*/) {}

  /// Called after every input reached EOF, before EOF goes downstream.
  virtual void Finish() {}

  /// Source nodes (no inputs) override this instead of Process.
  virtual void RunSource() {}

  /// Sends to every consumer's inbox at once (frames are shared
  /// immutable pointers, so broadcast is a cheap pointer copy). Nothing
  /// waits for the drained burst to end: the state of a burst's first
  /// partial reaches the consumers while the node processes the rest.
  void Emit(Message msg);

  size_t num_inputs() const { return ports_closed_.size(); }
  bool input_closed(size_t port) const { return ports_closed_[port]; }

  /// True once RequestStop() was called. Long-running operator bodies
  /// (source partition loops, EOF replay loops) poll this between units
  /// of work so cancellation latency stays bounded by one partial.
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// True once RequestDrainStop() was called. Source loops poll it to
  /// stop feeding the graph; estimate-producing Finish() paths use it to
  /// keep their scaling at the observed progress instead of claiming a
  /// complete input.
  bool drain_stopped() const {
    return drain_stop_.load(std::memory_order_relaxed);
  }

  /// The per-query tracker (null when the run is unbudgeted).
  ResourceTracker* tracker() const { return tracker_; }

 private:
  /// One consumer: its inbox and the input port this node feeds there.
  struct Outlet {
    InboxPtr inbox;
    size_t port = 0;
  };

  void Run(TraceLog* trace);
  /// Returns true when the node ended normally: every input sent EOF (or
  /// the source ran out) and the node was not stopped.
  bool RunBody(TraceLog* trace);

  /// Cancels this node's inbox and every consumer's inbox.
  void CancelInboxes();

  /// Re-measures operator state and settles the delta with the tracker.
  void SyncStateAccounting();

  std::string label_;
  // Created with the node, so producers can be wired to it and
  // RequestStop can cancel it while the run loop blocks on it.
  InboxPtr inbox_;
  std::vector<Outlet> outlets_;
  std::thread thread_;
  std::vector<uint8_t> ports_closed_;  // one entry per input port
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_stop_{false};
  ResourceTracker* tracker_ = nullptr;
  std::function<void(std::exception_ptr)> error_handler_;
  size_t accounted_state_bytes_ = 0;  // node-thread only
};

}  // namespace wake

#endif  // WAKE_EXEC_EXEC_NODE_H_
