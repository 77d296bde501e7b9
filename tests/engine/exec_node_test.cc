// Direct tests of the execution substrate: node lifecycle, the inbox that
// multiplexes a node's inputs, EOF and cancel propagation, and trace
// recording.
#include "exec/exec_node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <future>

#include "common/error.h"

namespace wake {
namespace {

DataFramePtr TinyFrame(int64_t value) {
  Schema schema({{"x", ValueType::kInt64}});
  auto df = std::make_shared<DataFrame>(schema);
  df->mutable_column(0)->AppendInt(value);
  return df;
}

/// Subscribes a fresh inbox to `node`'s output as port 0.
InboxPtr Subscribe(ExecNode* node) {
  auto inbox = std::make_shared<Inbox>();
  node->AddOutlet(inbox, 0);
  return inbox;
}

/// Reads `inbox` up to the EOF marker and returns the messages before it.
std::vector<Message> DrainToEof(Inbox* inbox) {
  std::vector<Message> out;
  while (auto tagged = inbox->Receive()) {
    if (tagged->eof) return out;
    out.push_back(std::move(tagged->msg));
  }
  ADD_FAILURE() << "inbox cancelled before EOF";
  return out;
}

/// Threads of this process, as the kernel lists them.
size_t ThreadCount() {
  size_t n = 0;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)task;
    ++n;
  }
  return n;
}

/// Source emitting `count` messages then sending EOF.
class CountingSource : public ExecNode {
 public:
  explicit CountingSource(int count) : ExecNode("source"), count_(count) {}

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override {
    for (int i = 0; i < count_; ++i) {
      Message msg;
      msg.frame = TinyFrame(i);
      msg.progress = static_cast<double>(i + 1) / count_;
      Emit(std::move(msg));
    }
  }

 private:
  int count_;
};

/// Source emitting one message, then blocking until `gate` opens.
class GatedSource : public ExecNode {
 public:
  explicit GatedSource(std::shared_future<void> gate)
      : ExecNode("gated"), gate_(std::move(gate)) {}

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override {
    Message msg;
    msg.frame = TinyFrame(1);
    msg.progress = 1.0;
    Emit(std::move(msg));
    gate_.wait();
  }

 private:
  std::shared_future<void> gate_;
};

/// Records per-port message counts; forwards everything.
class RecordingNode : public ExecNode {
 public:
  explicit RecordingNode(size_t ports)
      : ExecNode("recorder"), per_port_(ports), closed_(ports) {}

  std::vector<std::atomic<int>> per_port_;
  std::vector<std::atomic<int>> closed_;
  std::atomic<bool> finished{false};

 protected:
  void Process(size_t port, const Message& msg) override {
    ++per_port_[port];
    Message copy = msg;
    Emit(std::move(copy));
  }
  void OnInputClosed(size_t port) override { ++closed_[port]; }
  void Finish() override { finished = true; }
};

/// Forwards every partial. Before it processes the second, it waits, up
/// to a deadline, until `seen` is ready: the consumer has received the
/// state of the first.
class WaitsForFirstState : public ExecNode {
 public:
  explicit WaitsForFirstState(std::shared_future<void> seen)
      : ExecNode("waiter"), seen_(std::move(seen)) {}

  std::atomic<bool> timed_out{false};

 protected:
  void Process(size_t, const Message& msg) override {
    if (processed_++ == 1 &&
        seen_.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
      timed_out = true;
    }
    Message copy = msg;
    Emit(std::move(copy));
  }

 private:
  std::shared_future<void> seen_;
  int processed_ = 0;  // node-thread only
};

/// Fails on its first message.
class ThrowingNode : public ExecNode {
 public:
  ThrowingNode() : ExecNode("thrower") {}
  std::atomic<bool> finished{false};

 protected:
  void Process(size_t, const Message&) override {
    throw Error("injected", ErrorCategory::kExecution);
  }
  void Finish() override { finished = true; }
};

TEST(ExecNodeTest, SourceEmitsThenSendsEof) {
  CountingSource source(5);
  InboxPtr sink = Subscribe(&source);
  source.Start(nullptr);
  EXPECT_EQ(DrainToEof(sink.get()).size(), 5u);
  source.Join();
  EXPECT_EQ(sink->size(), 0u);   // nothing follows the EOF marker
  EXPECT_FALSE(sink->closed());  // EOF is a marker, not a channel close
}

TEST(ExecNodeTest, MuxDeliversFromAllPortsAndSignalsEofOnce) {
  CountingSource a(7), b(3);
  RecordingNode recorder(2);
  recorder.AddInput(&a);
  recorder.AddInput(&b);
  InboxPtr sink = Subscribe(&recorder);
  a.Start(nullptr);
  b.Start(nullptr);
  recorder.Start(nullptr);
  size_t total = DrainToEof(sink.get()).size();
  a.Join();
  b.Join();
  recorder.Join();
  EXPECT_EQ(recorder.per_port_[0].load(), 7);
  EXPECT_EQ(recorder.per_port_[1].load(), 3);
  EXPECT_EQ(recorder.closed_[0].load(), 1);
  EXPECT_EQ(recorder.closed_[1].load(), 1);
  EXPECT_TRUE(recorder.finished.load());
  EXPECT_EQ(total, 10u);
}

TEST(ExecNodeTest, OneThreadPerNode) {
  // Two parked sources feed a 2-port node: three nodes, three threads,
  // and nothing between them.
  std::promise<void> open;
  std::shared_future<void> gate = open.get_future().share();
  GatedSource a(gate), b(gate);
  RecordingNode recorder(2);
  recorder.AddInput(&a);
  recorder.AddInput(&b);
  InboxPtr sink = Subscribe(&recorder);
  const size_t before = ThreadCount();
  a.Start(nullptr);
  b.Start(nullptr);
  recorder.Start(nullptr);
  auto first = sink->Receive();
  EXPECT_TRUE(first.has_value() && !first->eof);
  EXPECT_EQ(ThreadCount() - before, 3u);
  open.set_value();
  EXPECT_EQ(DrainToEof(sink.get()).size(), 1u);
  a.Join();
  b.Join();
  recorder.Join();
}

TEST(ExecNodeTest, EachEmitLeavesBeforeTheDrainedBurstEnds) {
  // Every partial is queued before the waiter starts, so its first
  // ReceiveAll drains them all as one burst. The first partial's state
  // must reach the consumer while the waiter still holds the rest: if
  // emits waited for the burst to end, the waiter would time out.
  CountingSource source(8);
  std::promise<void> seen;
  WaitsForFirstState waiter(seen.get_future().share());
  waiter.AddInput(&source);
  InboxPtr sink = Subscribe(&waiter);
  source.Start(nullptr);
  source.Join();  // all eight partials and the EOF marker are queued
  waiter.Start(nullptr);
  auto first = sink->Receive();
  ASSERT_TRUE(first.has_value() && !first->eof);
  seen.set_value();
  EXPECT_EQ(DrainToEof(sink.get()).size(), 7u);
  waiter.Join();
  EXPECT_FALSE(waiter.timed_out.load());
}

TEST(ExecNodeTest, ChainsPropagateEofThroughStages) {
  CountingSource source(4);
  RecordingNode mid(1), tail(1);
  mid.AddInput(&source);
  tail.AddInput(&mid);
  InboxPtr sink = Subscribe(&tail);
  source.Start(nullptr);
  mid.Start(nullptr);
  tail.Start(nullptr);
  size_t total = DrainToEof(sink.get()).size();
  source.Join();
  mid.Join();
  tail.Join();
  EXPECT_EQ(total, 4u);
  EXPECT_TRUE(tail.finished.load());
}

TEST(ExecNodeTest, UpstreamStopCancelsDownstreamWithoutFinish) {
  // The recorder's inbox is cancelled while its input is still open: it
  // must skip Finish() and pass the cancel on, not an EOF.
  std::promise<void> open;
  GatedSource source(open.get_future().share());
  RecordingNode recorder(1);
  recorder.AddInput(&source);
  InboxPtr sink = Subscribe(&recorder);
  source.Start(nullptr);
  recorder.Start(nullptr);
  EXPECT_TRUE(sink->Receive().has_value());
  source.RequestStop();
  recorder.Join();
  EXPECT_FALSE(recorder.finished.load());
  EXPECT_TRUE(sink->closed());
  EXPECT_TRUE(sink->ReceiveAll().empty());  // cancelled, no EOF marker
  open.set_value();
  source.Join();
}

TEST(ExecNodeTest, FailingNodeReportsAndCancelsConsumers) {
  CountingSource source(3);
  ThrowingNode thrower;
  thrower.AddInput(&source);
  InboxPtr sink = Subscribe(&thrower);
  std::atomic<int> errors{0};
  thrower.SetErrorHandler([&](std::exception_ptr error) {
    ++errors;
    EXPECT_THROW(std::rethrow_exception(error), Error);
  });
  source.Start(nullptr);
  thrower.Start(nullptr);
  thrower.Join();
  source.Join();
  EXPECT_EQ(errors.load(), 1);
  EXPECT_FALSE(thrower.finished.load());
  EXPECT_TRUE(sink->ReceiveAll().empty());  // cancelled, no EOF marker
}

TEST(ExecNodeTest, TraceRecordsSpansForProcessedMessages) {
  TraceLog trace;
  CountingSource source(3);
  RecordingNode recorder(1);
  recorder.AddInput(&source);
  InboxPtr sink = Subscribe(&recorder);
  source.Start(&trace);
  recorder.Start(&trace);
  DrainToEof(sink.get());
  source.Join();
  recorder.Join();
  auto spans = trace.Spans();
  int source_spans = 0, recorder_spans = 0;
  for (const auto& s : spans) {
    source_spans += s.node == "source";
    recorder_spans += s.node == "recorder";
    EXPECT_LE(s.start_seconds, s.end_seconds);
  }
  EXPECT_EQ(source_spans, 1);        // one span for the whole source run
  EXPECT_GE(recorder_spans, 3);      // one per message (+ eof)
}

TEST(ExecNodeTest, OutletsBroadcastToAllConsumers) {
  CountingSource source(6);
  InboxPtr a = Subscribe(&source);
  InboxPtr b = Subscribe(&source);
  source.Start(nullptr);
  size_t na = DrainToEof(a.get()).size();
  size_t nb = DrainToEof(b.get()).size();
  source.Join();
  EXPECT_EQ(na, 6u);  // every consumer sees every message
  EXPECT_EQ(nb, 6u);
}

TEST(ExecNodeTest, ProgressMetadataSurvivesForwarding) {
  CountingSource source(4);
  RecordingNode recorder(1);
  recorder.AddInput(&source);
  InboxPtr sink = Subscribe(&recorder);
  source.Start(nullptr);
  recorder.Start(nullptr);
  double last = 0;
  for (const Message& msg : DrainToEof(sink.get())) {
    EXPECT_GT(msg.progress, last);
    last = msg.progress;
  }
  source.Join();
  recorder.Join();
  EXPECT_DOUBLE_EQ(last, 1.0);
}

}  // namespace
}  // namespace wake
