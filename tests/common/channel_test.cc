#include "common/channel.h"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

namespace wake {
namespace {

TEST(ChannelTest, SendThenReceive) {
  Channel<int> ch;
  EXPECT_TRUE(ch.Send(1));
  EXPECT_TRUE(ch.Send(2));
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.Receive().value(), 1);
  EXPECT_EQ(ch.Receive().value(), 2);
}

TEST(ChannelTest, CloseDrainsPendingThenSignalsEof) {
  Channel<int> ch;
  ch.Send(7);
  ch.Close();
  EXPECT_EQ(ch.Receive().value(), 7);
  EXPECT_FALSE(ch.Receive().has_value());
  EXPECT_FALSE(ch.Receive().has_value());  // idempotent
}

TEST(ChannelTest, SendAfterCloseIsRejected) {
  Channel<int> ch;
  ch.Close();
  EXPECT_FALSE(ch.Send(1));
  EXPECT_FALSE(ch.Receive().has_value());
}

TEST(ChannelTest, TryReceiveDoesNotBlock) {
  Channel<int> ch;
  EXPECT_FALSE(ch.TryReceive().has_value());
  ch.Send(5);
  EXPECT_EQ(ch.TryReceive().value(), 5);
}

TEST(ChannelTest, ReceiveBlocksUntilSend) {
  Channel<int> ch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Send(99);
  });
  EXPECT_EQ(ch.Receive().value(), 99);  // blocks until the producer sends
  producer.join();
}

TEST(ChannelTest, ManyProducersManyConsumersDeliverEverything) {
  Channel<int> ch;
  constexpr int kProducers = 4, kPerProducer = 1000, kConsumers = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ch, p] {
      for (int i = 0; i < kPerProducer; ++i) ch.Send(p * kPerProducer + i);
    });
  }
  std::atomic<long> total{0};
  std::atomic<int> count{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = ch.Receive()) {
        total += *v;
        ++count;
      }
    });
  }
  for (auto& t : producers) t.join();
  ch.Close();
  for (auto& t : consumers) t.join();
  int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(total.load(), static_cast<long>(n) * (n - 1) / 2);
}

TEST(ChannelTest, CloseWakesBlockedReceivers) {
  Channel<int> ch;
  std::thread consumer([&] { EXPECT_FALSE(ch.Receive().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.Close();
  consumer.join();
}

TEST(ChannelTest, ReceiveAllDrainsWholeQueue) {
  Channel<int> ch;
  for (int i = 0; i < 5; ++i) ch.Send(i);
  auto batch = ch.ReceiveAll();
  ASSERT_EQ(batch.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(batch[i], i);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(ChannelTest, ReceiveAllBlocksUntilFirstItem) {
  Channel<int> ch;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Send(42);
  });
  auto batch = ch.ReceiveAll();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], 42);
  producer.join();
}

TEST(ChannelTest, ReceiveAllEmptyMeansClosedAndDrained) {
  Channel<int> ch;
  ch.Send(1);
  ch.Close();
  EXPECT_EQ(ch.ReceiveAll().size(), 1u);  // pending items still delivered
  EXPECT_TRUE(ch.ReceiveAll().empty());
  EXPECT_TRUE(ch.ReceiveAll().empty());  // idempotent
}

TEST(ChannelTest, MoveOnlyPayload) {
  Channel<std::unique_ptr<int>> ch;
  ch.Send(std::make_unique<int>(11));
  auto v = ch.Receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 11);
}

TEST(ChannelTest, CancelDiscardsQueuedItems) {
  // Close() keeps pending items receivable; Cancel() is the stop-token
  // edge and drops them so receivers unwind immediately.
  Channel<int> ch;
  ch.Send(1);
  ch.Send(2);
  ch.Cancel();
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_TRUE(ch.closed());
  EXPECT_FALSE(ch.Receive().has_value());
  EXPECT_TRUE(ch.ReceiveAll().empty());
  EXPECT_FALSE(ch.Send(3));  // cancelled == closed for senders
}

TEST(ChannelTest, CancelWakesBlockedReceivers) {
  Channel<int> ch;
  std::thread receiver([&] { EXPECT_FALSE(ch.Receive().has_value()); });
  std::thread drainer([&] { EXPECT_TRUE(ch.ReceiveAll().empty()); });
  ch.Cancel();
  receiver.join();
  drainer.join();
}

TEST(ChannelTest, ReceiveForReturnsQueuedItem) {
  Channel<int> ch;
  ch.Send(42);
  auto got = ch.ReceiveFor(std::chrono::milliseconds(1000));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(ChannelTest, ReceiveForTimesOutOnEmptyOpenChannel) {
  Channel<int> ch;
  EXPECT_FALSE(ch.ReceiveFor(std::chrono::milliseconds(10)).has_value());
  EXPECT_FALSE(ch.closed());  // timeout, not EOF
}

TEST(ChannelTest, ReceiveForReturnsImmediatelyWhenClosed) {
  Channel<int> ch;
  ch.Close();
  EXPECT_FALSE(ch.ReceiveFor(std::chrono::milliseconds(10000)).has_value());
}

}  // namespace
}  // namespace wake
