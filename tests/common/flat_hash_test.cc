#include "common/flat_hash.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

namespace wake {
namespace {

std::vector<uint32_t> Chain(const FlatHashIndex& idx, uint64_t h) {
  std::vector<uint32_t> out;
  for (uint32_t id = idx.Find(h); id != FlatHashIndex::kNil;
       id = idx.Next(id)) {
    out.push_back(id);
  }
  return out;
}

TEST(FlatHashIndexTest, FindOnEmptyReturnsNil) {
  FlatHashIndex idx;
  EXPECT_EQ(idx.Find(0), FlatHashIndex::kNil);
  EXPECT_EQ(idx.Find(0xdeadbeefULL), FlatHashIndex::kNil);
}

TEST(FlatHashIndexTest, ChainsPreserveInsertionOrder) {
  FlatHashIndex idx;
  idx.Insert(7, 0);
  idx.Insert(9, 1);
  idx.Insert(7, 2);
  idx.Insert(7, 3);
  EXPECT_EQ(Chain(idx, 7), (std::vector<uint32_t>{0, 2, 3}));
  EXPECT_EQ(Chain(idx, 9), (std::vector<uint32_t>{1}));
  EXPECT_EQ(idx.Find(8), FlatHashIndex::kNil);
}

TEST(FlatHashIndexTest, IdenticalHashesShareOneChain) {
  // Two distinct keys colliding on the full 64-bit hash land in the same
  // chain; the caller is responsible for verifying keys when walking it.
  FlatHashIndex idx;
  idx.Insert(0x1234, 0);
  idx.Insert(0x1234, 1);
  EXPECT_EQ(idx.num_chains(), 1u);
  EXPECT_EQ(Chain(idx, 0x1234), (std::vector<uint32_t>{0, 1}));
}

TEST(FlatHashIndexTest, SurvivesGrowthAcrossManyDistinctHashes) {
  // Far past the initial capacity: forces multiple rehashes and plenty of
  // slot collisions under linear probing.
  FlatHashIndex idx;
  constexpr uint32_t kN = 50000;
  for (uint32_t i = 0; i < kN; ++i) {
    idx.Insert(static_cast<uint64_t>(i) * 0x9e3779b1ULL, i);
  }
  EXPECT_EQ(idx.num_chains(), kN);
  for (uint32_t i = 0; i < kN; ++i) {
    EXPECT_EQ(Chain(idx, static_cast<uint64_t>(i) * 0x9e3779b1ULL),
              (std::vector<uint32_t>{i}))
        << "hash " << i;
  }
  EXPECT_EQ(idx.Find(kN * 0x9e3779b1ULL + 1), FlatHashIndex::kNil);
}

TEST(FlatHashIndexTest, GrowthKeepsChainsIntact) {
  FlatHashIndex idx;
  // Every id under one of four hashes; rehashes must move chains wholesale.
  for (uint32_t i = 0; i < 1000; ++i) idx.Insert(i % 4, i);
  for (uint64_t h = 0; h < 4; ++h) {
    std::vector<uint32_t> chain = Chain(idx, h);
    ASSERT_EQ(chain.size(), 250u);
    for (size_t k = 0; k < chain.size(); ++k) {
      EXPECT_EQ(chain[k], static_cast<uint32_t>(h + 4 * k));
    }
  }
}

TEST(FlatHashIndexTest, ResetDropsEntriesAndKeepsCapacity) {
  FlatHashIndex idx;
  for (uint32_t i = 0; i < 100; ++i) idx.Insert(i, i);
  size_t cap = idx.capacity();
  idx.Reset();
  EXPECT_EQ(idx.num_chains(), 0u);
  EXPECT_EQ(idx.capacity(), cap);
  EXPECT_EQ(idx.Find(5), FlatHashIndex::kNil);
  idx.Insert(5, 0);
  EXPECT_EQ(Chain(idx, 5), (std::vector<uint32_t>{0}));
}

TEST(FlatHashIndexTest, ReservePresizesCapacity) {
  FlatHashIndex idx;
  idx.Reserve(10000);
  size_t cap = idx.capacity();
  EXPECT_GE(cap * 7, 10000u * 8 / 2);  // power-of-two ≥ load-factor bound
  for (uint32_t i = 0; i < 10000; ++i) idx.Insert(i, i);
  EXPECT_EQ(idx.capacity(), cap);  // no rehash needed after Reserve
}

TEST(FlatHashIndexTest, BatchInsertBuildsTheSameChainsAsSingleInserts) {
  // Repeated hashes (chains of 9 or 10) interleaved with unique ones,
  // inserted in batches that cross several growth steps, including a
  // batch of one and a batch starting mid-table.
  std::vector<uint64_t> hashes;
  for (uint32_t i = 0; i < 20000; ++i) {
    hashes.push_back(i % 3 == 0 ? (i % 701) * 0x9e3779b1ULL
                                : static_cast<uint64_t>(i) << 20);
  }
  FlatHashIndex one, batch;
  for (uint32_t i = 0; i < hashes.size(); ++i) one.Insert(hashes[i], i);
  const size_t cuts[] = {0, 1, 2, 17, 40, 1000, 1001, 9000, 20000};
  for (size_t c = 0; c + 1 < std::size(cuts); ++c) {
    batch.InsertBatch(hashes.data() + cuts[c], cuts[c + 1] - cuts[c],
                      static_cast<uint32_t>(cuts[c]));
  }
  EXPECT_EQ(batch.num_chains(), one.num_chains());
  EXPECT_EQ(batch.capacity(), one.capacity());
  for (uint64_t h : hashes) ASSERT_EQ(Chain(batch, h), Chain(one, h));

  // Reserved up front: the same chains, and no growth.
  FlatHashIndex reserved;
  reserved.Reserve(hashes.size());
  const size_t cap = reserved.capacity();
  reserved.InsertBatch(hashes.data(), hashes.size(), 0);
  EXPECT_EQ(reserved.capacity(), cap);
  for (uint64_t h : hashes) ASSERT_EQ(Chain(reserved, h), Chain(one, h));
}

}  // namespace
}  // namespace wake
