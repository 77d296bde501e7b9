// wakeblock format tests: exact round trips across every encoding, the
// lazy chunk API, projected block reads, and synopsis-based block
// skipping (with its stats counters and its must-stay-conservative
// refutation rules).
#include "storage/wakeblock.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/error.h"
#include "storage/partitioned_table.h"

namespace wake {
namespace {

class WakeblockTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wake_wb_test_" + std::to_string(::getpid()));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

// Mixed-type frame exercising every encoding: "run" is constant per
// stretch (RLE), "narrow" spans a tiny range (FOR bit-pack), "f" holds
// raw double bit patterns, "s" is a low-cardinality dict column, and
// every column takes nulls when `with_nulls` is set.
DataFrame MixedFrame(size_t n, bool with_nulls) {
  Schema schema({{"key", ValueType::kInt64},
                 {"run", ValueType::kInt64},
                 {"narrow", ValueType::kInt64},
                 {"f", ValueType::kFloat64},
                 {"s", ValueType::kString}});
  schema.set_primary_key({"key"});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  for (size_t i = 0; i < n; ++i) {
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i / 3));
    df.mutable_column(1)->AppendInt(static_cast<int64_t>(i / 100));
    if (with_nulls && i % 7 == 0) {
      df.mutable_column(2)->AppendNull();
      df.mutable_column(3)->AppendNull();
      df.mutable_column(4)->AppendNull();
    } else {
      df.mutable_column(2)->AppendInt(static_cast<int64_t>(i % 13));
      df.mutable_column(3)->AppendDouble(0.25 * static_cast<double>(i));
      df.mutable_column(4)->AppendString("tag" + std::to_string(i % 5));
    }
  }
  return df;
}

TEST_F(WakeblockTest, RoundTripIsExact) {
  for (bool with_nulls : {false, true}) {
    PartitionedTable t = PartitionedTable::FromDataFrame(
        "rt", MixedFrame(1000, with_nulls), 4);
    wakeblock::WriteOptions opts;
    opts.block_rows = 64;  // many blocks, so every encoding path repeats
    wakeblock::Write(t, dir_.string(), opts);
    PartitionedTable back =
        PartitionedTable::OpenWakeblock(dir_.string(), "rt");
    EXPECT_EQ(back.num_partitions(), t.num_partitions());
    std::string diff;
    EXPECT_TRUE(back.Materialize().ApproxEquals(t.Materialize(), 0.0, &diff))
        << "with_nulls=" << with_nulls << ": " << diff;
    EXPECT_EQ(back.schema().primary_key(), t.schema().primary_key());
    EXPECT_EQ(back.schema().clustering_key(), t.schema().clustering_key());
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(WakeblockTest, EmptyTableAndEmptyPartitionsRoundTrip) {
  Schema schema({{"x", ValueType::kInt64}, {"s", ValueType::kString}});
  PartitionedTable t =
      PartitionedTable::FromDataFrame("empty", DataFrame(schema), 3);
  wakeblock::Write(t, dir_.string());
  PartitionedTable back =
      PartitionedTable::OpenWakeblock(dir_.string(), "empty");
  EXPECT_EQ(back.total_rows(), 0u);
  EXPECT_EQ(back.num_partitions(), t.num_partitions());
  EXPECT_EQ(back.schema().num_fields(), 2u);
  EXPECT_EQ(back.Materialize().num_rows(), 0u);
}

TEST_F(WakeblockTest, ClusteringKeyNeverStraddlesBlocks) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("ck", MixedFrame(500, false), 2);
  wakeblock::WriteOptions opts;
  opts.block_rows = 10;  // not a multiple of the 3-rows-per-key stride
  wakeblock::Write(t, dir_.string(), opts);
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "ck");
  std::set<int64_t> seen;
  for (size_t b = 0; b < bt->num_blocks(); ++b) {
    DataFramePtr block = bt->ReadBlock(b, {"key"});
    const Column& keys = block->column(0);
    std::set<int64_t> here;
    for (size_t r = 0; r < keys.size(); ++r) here.insert(keys.IntAt(r));
    for (int64_t k : here) {
      EXPECT_EQ(seen.count(k), 0u) << "key " << k << " straddles blocks";
      seen.insert(k);
    }
  }
}

// Regression: a width-63 frame-of-reference block at an odd bit offset
// spans 9 bytes per value, which the unpacker once truncated to 64 staged
// bits. Doubles force this: their bit patterns span nearly the full u64
// range, and ~100-row blocks make bit-packing marginally cheaper than raw.
TEST_F(WakeblockTest, WideBitpackRoundTripIsExact) {
  Schema schema({{"f", ValueType::kFloat64}, {"big", ValueType::kInt64}});
  DataFrame df(schema);
  for (size_t i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      df.mutable_column(0)->AppendNull();
    } else {
      df.mutable_column(0)->AppendDouble(0.25 * static_cast<double>(i));
    }
    df.mutable_column(1)->AppendInt(
        i % 2 == 0 ? static_cast<int64_t>(i)
                   : (int64_t{1} << 62) + static_cast<int64_t>(i));
  }
  wakeblock::Write(PartitionedTable::FromDataFrame("wide", df, 1),
                   dir_.string());
  PartitionedTable back =
      PartitionedTable::OpenWakeblock(dir_.string(), "wide");
  std::string diff;
  EXPECT_TRUE(back.Materialize().ApproxEquals(df, 0.0, &diff)) << diff;
}

// splitmix64: deterministic pseudo-random 64-bit values.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Bytes a column file takes when every block of `block_rows` rows is
// FOR-bitpacked at `width` (validity included when `nulls`): the 8-byte
// file header, then per block a 40-byte header, the validity bytes and a
// 9-byte base/width prefix before the packed bits.
uintmax_t BitpackedFileSize(size_t blocks, size_t block_rows,
                            unsigned width, bool nulls) {
  size_t body = (nulls ? (block_rows + 7) / 8 : 0) + 9 +
                (block_rows * width + 7) / 8;
  return 8 + blocks * (40 + body);
}

// Every bit-pack width 0-63 decodes exactly, with nulls, at a block size
// where each block's last value ends on its payload's last byte (80 rows:
// 80 x width bits is whole bytes) and at one where it mostly does not
// (101 rows). Column wN holds values in [0, 2^N): each block starts with
// 0 and 2^N - 1, so its range needs exactly N bits, and null slots store
// 0, inside that range. Distinct neighbours make RLE dearer than
// bit-packing, which beats raw at these block sizes even at width 63.
// The float columns pack like TPC-H's: quantities 1-50 at width 55 and
// discounts 0.00-0.10 at width 62. The file sizes pin the encoding.
TEST_F(WakeblockTest, EveryBitpackWidthRoundTripsExactly) {
  for (size_t block_rows : {size_t{80}, size_t{101}}) {
    const size_t blocks = 3;
    const size_t n = blocks * block_rows;
    std::vector<Field> fields;
    for (unsigned w = 0; w < 64; ++w) {
      fields.push_back({"w" + std::to_string(w), ValueType::kInt64});
    }
    fields.push_back({"qty", ValueType::kFloat64});
    fields.push_back({"disc", ValueType::kFloat64});
    DataFrame df{Schema(fields)};
    for (size_t r = 0; r < n; ++r) {
      const size_t j = r % block_rows;
      const bool null_row = j >= 2 && r % 7 == 3;
      for (unsigned w = 0; w < 64; ++w) {
        const uint64_t mask = (uint64_t{1} << w) - 1;
        uint64_t v = j == 0 ? 0 : j == 1 ? mask : Mix(r * 64 + w) & mask;
        if (null_row) {
          df.mutable_column(w)->AppendNull();
        } else {
          df.mutable_column(w)->AppendInt(static_cast<int64_t>(v));
        }
      }
      // No nulls in qty: a null slot's 0.0 would widen it to 63 bits.
      const double qty = static_cast<double>(1 + Mix(r) % 50);
      df.mutable_column(64)->AppendDouble(j == 0 ? 1.0 : j == 1 ? 50.0 : qty);
      const double disc = static_cast<double>(Mix(r) % 11) / 100;
      if (null_row) {
        df.mutable_column(65)->AppendNull();
      } else {
        df.mutable_column(65)->AppendDouble(j == 0   ? 0.0
                                            : j == 1 ? 0.10
                                                     : disc);
      }
    }
    wakeblock::WriteOptions opts;
    opts.block_rows = block_rows;
    wakeblock::Write(PartitionedTable::FromDataFrame("widths", df, 1),
                     dir_.string(), opts);
    auto file_size = [&](const std::string& field) {
      return std::filesystem::file_size(dir_ / "widths" / (field + ".col"));
    };
    for (unsigned w = 0; w < 64; ++w) {
      EXPECT_EQ(file_size("w" + std::to_string(w)),
                BitpackedFileSize(blocks, block_rows, w, true))
          << "width " << w << ", " << block_rows << "-row blocks";
    }
    EXPECT_EQ(file_size("qty"),
              BitpackedFileSize(blocks, block_rows, 55, false));
    EXPECT_EQ(file_size("disc"),
              BitpackedFileSize(blocks, block_rows, 62, true));

    PartitionedTable back =
        PartitionedTable::OpenWakeblock(dir_.string(), "widths");
    std::string diff;
    EXPECT_TRUE(back.Materialize().ApproxEquals(df, 0.0, &diff))
        << block_rows << "-row blocks: " << diff;
    std::filesystem::remove_all(dir_);
  }
}

// Dict codes at bit-pack width 17: over 65,536 distinct strings, and
// every block also repeats the first one (code 0), so a block of late
// rows spans codes 0 to over 65,536. Null rows store code -1.
TEST_F(WakeblockTest, WideDictCodesRoundTripExactly) {
  Schema schema({{"s", ValueType::kString}});
  DataFrame df(schema);
  const size_t n = 80000;
  for (size_t r = 0; r < n; ++r) {
    if (r % 11 == 5) {
      df.mutable_column(0)->AppendNull();
    } else {
      df.mutable_column(0)->AppendString(
          "s" + std::to_string(r % 100 == 0 ? 0 : r));
    }
  }
  wakeblock::WriteOptions opts;
  opts.block_rows = 100;
  wakeblock::Write(PartitionedTable::FromDataFrame("dict17", df, 1),
                   dir_.string(), opts);
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "dict17");
  DataFramePtr last = bt->ReadBlock(bt->num_blocks() - 1, {});
  const auto& codes = last->column(0).codes();
  EXPECT_GE(*std::max_element(codes.begin(), codes.end()), 1 << 16);
  PartitionedTable back =
      PartitionedTable::OpenWakeblock(dir_.string(), "dict17");
  std::string diff;
  EXPECT_TRUE(back.Materialize().ApproxEquals(df, 0.0, &diff)) << diff;
}

TEST_F(WakeblockTest, ProjectedReadMatchesFullReadSelect) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("proj", MixedFrame(300, true), 3);
  wakeblock::Write(t, dir_.string());
  for (const auto& cols : std::vector<std::vector<std::string>>{
           {"key"}, {"s"}, {"f", "narrow"}, {"s", "key"}}) {
    PartitionedTable lazy =
        PartitionedTable::OpenWakeblock(dir_.string(), "proj");
    std::string diff;
    EXPECT_TRUE(lazy.Materialize(cols).ApproxEquals(t.Materialize(cols), 0.0,
                                                    &diff))
        << diff;
  }
}

TEST_F(WakeblockTest, LazyChunkApiCoversAllRowsOnce) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("chunk", MixedFrame(400, true), 4);
  wakeblock::WriteOptions opts;
  opts.block_rows = 32;
  wakeblock::Write(t, dir_.string(), opts);
  PartitionedTable lazy =
      PartitionedTable::OpenWakeblock(dir_.string(), "chunk");
  EXPECT_TRUE(lazy.lazy());
  EXPECT_EQ(lazy.total_rows(), t.total_rows());
  EXPECT_EQ(lazy.num_partitions(), t.num_partitions());
  EXPECT_GT(lazy.num_chunks(), lazy.num_partitions());
  DataFrame gathered(lazy.schema());
  size_t rows = 0;
  for (size_t i = 0; i < lazy.num_chunks(); ++i) {
    rows += lazy.chunk_rows(i);
    gathered.Append(*lazy.ReadChunk(i, {}));
  }
  EXPECT_EQ(rows, t.total_rows());
  std::string diff;
  EXPECT_TRUE(gathered.ApproxEquals(t.Materialize(), 0.0, &diff)) << diff;
  // Partition-level APIs are the eager tables' contract.
  EXPECT_THROW(lazy.partition(0), Error);
}

TEST_F(WakeblockTest, EagerChunkApiIsThePartitionList) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("eager", MixedFrame(90, false), 3);
  EXPECT_FALSE(t.lazy());
  EXPECT_EQ(t.num_chunks(), t.num_partitions());
  for (size_t i = 0; i < t.num_chunks(); ++i) {
    EXPECT_EQ(t.chunk_rows(i), t.partition(i)->num_rows());
    // Unprojected chunks are the partition frames themselves (no copy).
    EXPECT_EQ(t.ReadChunk(i, {}).get(), t.partition(i).get());
  }
}

// --- synopsis skipping ----------------------------------------------------

// One block per key-run, so a key range predicate maps to a block range.
std::shared_ptr<const wakeblock::BlockTable> WriteClustered(
    const std::filesystem::path& dir, size_t rows) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("sk", MixedFrame(rows, true), 2);
  wakeblock::WriteOptions opts;
  opts.block_rows = 50;
  wakeblock::Write(t, dir.string(), opts);
  return wakeblock::BlockTable::Open(dir.string(), "sk");
}

// Applies `filter` the way engines do (the residual Filter node).
DataFrame ApplyFilter(const DataFrame& df, const ExprPtr& filter) {
  Column mask = filter->Eval(df);
  std::vector<uint8_t> m(mask.size());
  for (size_t i = 0; i < m.size(); ++i) {
    m[i] = (mask.IsValid(i) && mask.ints()[i] != 0) ? 1 : 0;
  }
  return df.FilterBy(m);
}

// Rows of `sk` matching `filter`, computed the slow way.
DataFrame Expected(const std::filesystem::path& dir, const ExprPtr& filter) {
  return ApplyFilter(
      PartitionedTable::OpenWakeblock(dir.string(), "sk").Materialize(),
      filter);
}

TEST_F(WakeblockTest, RangePredicateSkipsBlocksAndLosesNoMatches) {
  auto bt = WriteClustered(dir_, 600);
  struct Case {
    ExprPtr filter;
    bool expect_skips;
  };
  std::vector<Case> cases;
  cases.push_back({Lt(Expr::Col("key"), Expr::Int(20)), true});
  cases.push_back({Ge(Expr::Col("key"), Expr::Int(150)), true});
  cases.push_back({Eq(Expr::Col("key"), Expr::Int(77)), true});
  cases.push_back({Expr::And(Ge(Expr::Col("key"), Expr::Int(30)),
                             Lt(Expr::Col("key"), Expr::Int(50))),
                   true});
  cases.push_back({Eq(Expr::Col("s"), Expr::Str("no such tag")), true});
  // Every row has narrow in [0,12] or null: nothing refutes.
  cases.push_back({Ge(Expr::Col("narrow"), Expr::Int(0)), false});
  for (const auto& c : cases) {
    bt->ResetStats();
    DataFrame gathered(bt->schema());
    for (size_t b = 0; b < bt->num_blocks(); ++b) {
      DataFramePtr block = bt->ReadBlock(b, {}, c.filter);
      if (block != nullptr) gathered.Append(*block);
    }
    wakeblock::ScanStats stats = bt->stats();
    EXPECT_EQ(stats.blocks_read + stats.blocks_skipped, bt->num_blocks());
    if (c.expect_skips) {
      EXPECT_GT(stats.blocks_skipped, 0u) << c.filter->ToString();
    } else {
      EXPECT_EQ(stats.blocks_skipped, 0u) << c.filter->ToString();
    }
    // Surviving blocks must hold every matching row (the residual filter
    // re-applies the predicate; skipping must never lose a match).
    DataFrame got = ApplyFilter(gathered, c.filter);
    DataFrame want = Expected(dir_, c.filter);
    std::string diff;
    EXPECT_TRUE(got.ApproxEquals(want, 0.0, &diff))
        << c.filter->ToString() << ": " << diff;
  }
}

TEST_F(WakeblockTest, NullPredicatesUseNullCountSynopsis) {
  auto bt = WriteClustered(dir_, 200);
  // narrow is null every 7th row; with 50-row blocks every block has both
  // nulls and non-nulls, so neither direction may skip — but both must
  // still return the right rows.
  for (const auto& filter :
       {Expr::IsNull(Expr::Col("narrow")),
        Expr::Not(Expr::IsNull(Expr::Col("narrow")))}) {
    bt->ResetStats();
    DataFrame gathered(bt->schema());
    for (size_t b = 0; b < bt->num_blocks(); ++b) {
      DataFramePtr block = bt->ReadBlock(b, {}, filter);
      if (block != nullptr) gathered.Append(*block);
    }
    EXPECT_EQ(bt->stats().blocks_skipped, 0u);
    DataFrame want = Expected(dir_, filter);
    std::string diff;
    EXPECT_TRUE(
        ApplyFilter(gathered, filter).ApproxEquals(want, 0.0, &diff))
        << diff;
  }
  // An all-null column block, by contrast, refutes any comparison.
  Schema schema({{"x", ValueType::kInt64}});
  DataFrame nulls(schema);
  for (int i = 0; i < 10; ++i) nulls.mutable_column(0)->AppendNull();
  wakeblock::Write(PartitionedTable::FromDataFrame("an", nulls, 1),
                   dir_.string());
  auto an = wakeblock::BlockTable::Open(dir_.string(), "an");
  EXPECT_EQ(an->ReadBlock(0, {}, Ge(Expr::Col("x"), Expr::Int(0))), nullptr);
  EXPECT_NE(an->ReadBlock(0, {}, Expr::IsNull(Expr::Col("x"))), nullptr);
}

// A NaN after a float block's first row stays out of its min/max, yet
// `NaN <> 5` holds, so `<>` must not skip a block whose other rows all
// equal 5. Rows are compared by bit pattern: ApproxEquals never equates
// NaN with NaN.
TEST_F(WakeblockTest, NotEqualKeepsNaNRows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema schema({{"x", ValueType::kFloat64}});
  DataFrame df(schema);
  for (double v : {5.0, nan, 5.0, 5.0,    // NaN after the first row
                   nan, 5.0, 5.0, 5.0,    // NaN as the first row
                   5.0, 5.0, 5.0, 5.0}) {
    df.mutable_column(0)->AppendDouble(v);
  }
  wakeblock::WriteOptions opts;
  opts.block_rows = 4;
  wakeblock::Write(PartitionedTable::FromDataFrame("nan", df, 1),
                   dir_.string(), opts);
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "nan");
  ASSERT_EQ(bt->num_blocks(), 3u);
  auto bits = [](const DataFrame& f) {
    std::vector<uint64_t> out(f.num_rows());
    for (size_t r = 0; r < out.size(); ++r) {
      double d = f.column(0).DoubleAt(r);
      std::memcpy(&out[r], &d, sizeof d);
    }
    return out;
  };
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    ExprPtr filter = Expr::Cmp(op, Expr::Col("x"), Expr::Float(5.0));
    DataFrame gathered(bt->schema());
    for (size_t b = 0; b < bt->num_blocks(); ++b) {
      DataFramePtr block = bt->ReadBlock(b, {}, filter);
      if (block != nullptr) gathered.Append(*block);
    }
    EXPECT_EQ(bits(ApplyFilter(gathered, filter)),
              bits(ApplyFilter(df, filter)))
        << filter->ToString();
  }
}

TEST_F(WakeblockTest, SkippedRowsCountTowardStats) {
  auto bt = WriteClustered(dir_, 300);
  ExprPtr filter = Lt(Expr::Col("key"), Expr::Int(5));
  for (size_t b = 0; b < bt->num_blocks(); ++b) {
    bt->ReadBlock(b, {}, filter);
  }
  wakeblock::ScanStats stats = bt->stats();
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_GT(stats.rows_skipped, 0u);
  EXPECT_EQ(stats.rows_read + stats.rows_skipped, bt->total_rows());
}

TEST_F(WakeblockTest, MaterializeWithFilterPrunesButKeepsAllMatches) {
  PartitionedTable t =
      PartitionedTable::FromDataFrame("sk", MixedFrame(600, true), 2);
  wakeblock::WriteOptions opts;
  opts.block_rows = 50;
  wakeblock::Write(t, dir_.string(), opts);
  PartitionedTable lazy = PartitionedTable::OpenWakeblock(dir_.string(), "sk");
  ExprPtr filter = Le(Expr::Col("key"), Expr::Int(10));
  DataFrame pruned = lazy.Materialize({"key", "f"}, filter);
  EXPECT_GT(lazy.block_source()->stats().blocks_skipped, 0u);
  EXPECT_LT(pruned.num_rows(), t.total_rows());
  // Every actual match survives pruning.
  DataFrame full = lazy.Materialize({"key", "f"}, nullptr);
  std::string diff;
  EXPECT_TRUE(ApplyFilter(pruned, filter)
                  .ApproxEquals(ApplyFilter(full, filter), 0.0, &diff))
      << diff;
}

TEST_F(WakeblockTest, ConcurrentFirstReadsShareOneDictionary) {
  // Eight threads read block 0 of the string column at once, before any
  // read has loaded its dictionary: it is interned once, and every frame
  // shares it.
  wakeblock::Write(
      PartitionedTable::FromDataFrame("d", MixedFrame(500, true), 2),
      dir_.string());
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "d");
  constexpr int kThreads = 8;
  std::vector<DataFramePtr> frames(kThreads);
  std::atomic<int> waiting{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      frames[t] = bt->ReadBlock(0, {"s"});
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_NE(frames[0], nullptr);
  const StringDict* dict = frames[0]->column(0).dict().get();
  ASSERT_NE(dict, nullptr);
  for (const DataFramePtr& frame : frames) {
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(frame->column(0).dict().get(), dict);
  }
}

TEST_F(WakeblockTest, ListTablesAndOpenCatalog) {
  wakeblock::Write(
      PartitionedTable::FromDataFrame("bbb", MixedFrame(30, false), 1),
      dir_.string());
  wakeblock::Write(
      PartitionedTable::FromDataFrame("aaa", MixedFrame(60, false), 2),
      dir_.string());
  EXPECT_EQ(wakeblock::ListTables(dir_.string()),
            (std::vector<std::string>{"aaa", "bbb"}));
  Catalog catalog = wakeblock::OpenCatalog(dir_.string());
  EXPECT_TRUE(catalog.Has("aaa"));
  EXPECT_TRUE(catalog.Has("bbb"));
  EXPECT_EQ(catalog.Get("aaa").total_rows(), 60u);
  EXPECT_TRUE(catalog.Get("aaa").lazy());
}

TEST_F(WakeblockTest, WritingALazyTableIsRejected) {
  wakeblock::Write(
      PartitionedTable::FromDataFrame("t", MixedFrame(30, false), 1),
      dir_.string());
  PartitionedTable lazy = PartitionedTable::OpenWakeblock(dir_.string(), "t");
  EXPECT_THROW(wakeblock::Write(lazy, dir_.string()), Error);
}

}  // namespace
}  // namespace wake
