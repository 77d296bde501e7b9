// Operator-node behaviour tests through small single-node (or few-node)
// engine runs on synthetic tables.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "baseline/exact_engine.h"
#include "core/engine.h"
#include "core/nodes.h"
#include "plan/props.h"

namespace wake {
namespace {

// Clustered fact table: key 0..n-1 (clustering), dim in 0..3. By default
// val == key; with `decorrelate` set, values are position-independent so
// partitions are exchangeable (the OLA premise for estimate-quality tests).
Catalog SyntheticCatalog(size_t n, size_t partitions,
                         bool decorrelate = false) {
  Schema schema({{"key", ValueType::kInt64},
                 {"dim", ValueType::kInt64},
                 {"val", ValueType::kFloat64}});
  schema.set_primary_key({"key"});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  for (size_t i = 0; i < n; ++i) {
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i));
    df.mutable_column(1)->AppendInt(static_cast<int64_t>(i % 4));
    df.mutable_column(2)->AppendDouble(
        static_cast<double>(decorrelate ? (i * 37) % 101 : i));
  }
  Schema dim_schema({{"d_id", ValueType::kInt64},
                     {"d_name", ValueType::kString}});
  dim_schema.set_primary_key({"d_id"});
  dim_schema.set_clustering_key({"d_id"});
  DataFrame dim(dim_schema);
  for (int i = 0; i < 4; ++i) {
    dim.mutable_column(0)->AppendInt(i);
    dim.mutable_column(1)->AppendString("dim" + std::to_string(i));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fact", df, partitions)));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("dim", dim, 1)));
  return cat;
}

TEST(ReaderNodeTest, EmitsOneStatePerPartitionWithMonotoneProgress) {
  Catalog cat = SyntheticCatalog(100, 5);
  WakeEngine engine(&cat);
  std::vector<double> progresses;
  size_t rows = 0;
  engine.Execute(Plan::Scan("fact").node(), [&](const OlaState& s) {
    if (s.is_final) {
      rows = s.frame->num_rows();
      return;
    }
    progresses.push_back(s.progress);
  });
  ASSERT_EQ(progresses.size(), 5u);
  for (size_t i = 1; i < progresses.size(); ++i) {
    EXPECT_GT(progresses[i], progresses[i - 1]);
  }
  EXPECT_DOUBLE_EQ(progresses.back(), 1.0);
  EXPECT_EQ(rows, 100u);
}

TEST(MapFilterNodeTest, StreamsPerPartial) {
  Catalog cat = SyntheticCatalog(100, 4);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact")
                  .Filter(Lt(Expr::Col("val"), Expr::Float(50.0)))
                  .Map({{"v2", Expr::Col("val") * Expr::Int(2)}});
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GE(states, 4u);
  EXPECT_EQ(final_frame.num_rows(), 50u);
  EXPECT_DOUBLE_EQ(final_frame.column(0).DoubleAt(49), 98.0);
}

/// Source node that emits one prepared message.
class OneMessageSource : public ExecNode {
 public:
  explicit OneMessageSource(Message msg)
      : ExecNode("source"), msg_(std::move(msg)) {}

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override { Emit(msg_); }

 private:
  Message msg_;
};

/// Runs `node` over one input message; returns what it emits before EOF.
std::vector<Message> RunOnOneMessage(ExecNode* node, Message in) {
  OneMessageSource source(std::move(in));
  node->AddInput(&source);
  auto sink = std::make_shared<Inbox>();
  node->AddOutlet(sink, 0);
  source.Start(nullptr);
  node->Start(nullptr);
  std::vector<Message> out;
  while (auto tagged = sink->Receive()) {
    if (tagged->eof) break;
    out.push_back(std::move(tagged->msg));
  }
  source.Join();
  node->Join();
  return out;
}

TEST(MapFilterNodeTest, FilterKeepsTheSelectedRowsVariances) {
  // A CI-mode partial of 70 rows (two truth words) with one variance
  // vector per mutable column.
  constexpr size_t kRows = 70;
  auto frame = std::make_shared<DataFrame>(
      Schema({{"v", ValueType::kFloat64}, {"w", ValueType::kFloat64}}));
  auto vars = std::make_shared<VarianceMap>();
  for (size_t i = 0; i < kRows; ++i) {
    frame->mutable_column(0)->AppendDouble(static_cast<double>(i));
    frame->mutable_column(1)->AppendDouble(10.0 * i);
    (*vars)["v"].push_back(100.0 + i);
    (*vars)["w"].push_back(200.0 + i);
  }
  Message in;
  in.frame = frame;
  in.variances = vars;
  in.progress = 0.5;
  NodeOptions options;
  options.with_ci = true;
  // v < 2 OR v > 62: rows 0, 1 and 63..69, across the word boundary.
  FilterNode filter(Expr::Or(Lt(Expr::Col("v"), Expr::Float(2.0)),
                             Gt(Expr::Col("v"), Expr::Float(62.0))),
                    options);
  std::vector<Message> out = RunOnOneMessage(&filter, in);
  ASSERT_EQ(out.size(), 1u);
  std::vector<size_t> kept = {0, 1, 63, 64, 65, 66, 67, 68, 69};
  const DataFrame& f = *out[0].frame;
  ASSERT_EQ(f.num_rows(), kept.size());
  ASSERT_NE(out[0].variances, nullptr);
  const VarianceMap& got = *out[0].variances;
  ASSERT_EQ(got.size(), 2u);
  for (size_t r = 0; r < kept.size(); ++r) {
    EXPECT_EQ(f.column(0).DoubleAt(r), static_cast<double>(kept[r]));
    EXPECT_EQ(got.at("v")[r], 100.0 + kept[r]) << r;
    EXPECT_EQ(got.at("w")[r], 200.0 + kept[r]) << r;
  }
  EXPECT_EQ(got.at("v").size(), kept.size());
  EXPECT_EQ(got.at("w").size(), kept.size());
  EXPECT_EQ(out[0].progress, 0.5);
}

TEST(LocalAggNodeTest, AppendsCompleteGroupsOnly) {
  // Clustering-key groups: earlier states must be prefixes of the final
  // result, with values already exact (constant attributes, Case 1).
  Catalog cat = SyntheticCatalog(120, 6);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact").Aggregate({"key"}, {Sum("val", "s")});
  DataFrame final_frame;
  std::vector<DataFrame> states;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      final_frame = *s.frame;
    } else {
      states.push_back(*s.frame);
    }
  });
  ASSERT_EQ(final_frame.num_rows(), 120u);
  for (const DataFrame& state : states) {
    ASSERT_LE(state.num_rows(), final_frame.num_rows());
    std::string diff;
    EXPECT_TRUE(state.ApproxEquals(
        final_frame.Slice(0, state.num_rows()), 1e-12, &diff))
        << diff;
  }
}

TEST(LocalAggNodeTest, CountDistinctStartsEachBatchEmpty) {
  // Partitions {1, 1}, {2, 2}, {3, 3}: key 1's rows complete when key 2
  // arrives, so the node finalizes a batch of key 1, then one of keys 2
  // and 3, all with values {a, b}. Key 2 takes the group id key 1 had and
  // must count its own values, not find key 1's.
  Schema schema({{"key", ValueType::kInt64}, {"val", ValueType::kString}});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  *df.mutable_column(0) = Column::FromInts({1, 1, 2, 2, 3, 3});
  *df.mutable_column(1) =
      Column::FromStrings({"a", "b", "a", "b", "b", "a"});
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("t", df, 3)));
  Plan plan =
      Plan::Scan("t").Aggregate({"key"}, {CountDistinct("val", "d")});
  // An append-mode aggregate runs as a LocalAggNode.
  ASSERT_EQ(InferProps(plan.node(), cat).mode, EvolveMode::kAppend);
  WakeEngine engine(&cat);
  DataFrame out = engine.ExecuteFinal(plan.node());
  ASSERT_EQ(out.num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(out.ColumnByName("key").IntAt(r), static_cast<int64_t>(r + 1));
    EXPECT_EQ(out.ColumnByName("d").IntAt(r), 2) << "key " << r + 1;
  }
}

TEST(ShuffleAggNodeTest, BufferedBytesCountDistinctValues) {
  // One group fed n distinct values holds at least 8 bytes per value, and
  // more as n grows.
  auto buffered = [](size_t n) {
    Catalog cat = SyntheticCatalog(n, 4);
    WakeEngine engine(&cat);
    engine.ExecuteFinal(
        Plan::Scan("fact").Aggregate({}, {CountDistinct("key", "d")}).node());
    return engine.buffered_bytes();
  };
  const size_t small = buffered(1000), large = buffered(4000);
  EXPECT_GE(small, 8u * 1000);
  EXPECT_GE(large, 8u * 4000);
  EXPECT_GT(large, small);
}

TEST(ShuffleAggNodeTest, EstimatesConvergeToExact) {
  Catalog cat = SyntheticCatalog(1000, 10, /*decorrelate=*/true);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan plan = Plan::Scan("fact").Aggregate({"dim"}, {Sum("val", "s"),
                                                     Count("n")});
  DataFrame expected = exact.Execute(plan.node());
  std::vector<DataFrame> states;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      final_frame = *s.frame;
    } else {
      states.push_back(*s.frame);
    }
  });
  std::string diff;
  EXPECT_TRUE(final_frame.SortBy({{"dim", false}})
                  .ApproxEquals(expected.SortBy({{"dim", false}}), 1e-9,
                                &diff))
      << diff;
  // Uniform data: even the first estimate should be within 25% of truth.
  ASSERT_FALSE(states.empty());
  double truth = 0, first = 0;
  for (size_t g = 0; g < expected.num_rows(); ++g) {
    truth += expected.ColumnByName("s").DoubleAt(g);
  }
  for (size_t g = 0; g < states.front().num_rows(); ++g) {
    first += states.front().ColumnByName("s").DoubleAt(g);
  }
  EXPECT_NEAR(first, truth, 0.25 * truth);
}

TEST(HashJoinNodeTest, ProbeStreamsBuildBlocks) {
  Catalog cat = SyntheticCatalog(200, 8);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan plan = Plan::Scan("fact").Join(Plan::Scan("dim"), JoinType::kInner,
                                      {"dim"}, {"d_id"});
  DataFrame expected = exact.Execute(plan.node());
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GE(states, 8u);  // one per probe partial
  std::string diff;
  EXPECT_TRUE(final_frame.ApproxEquals(expected, 1e-12, &diff)) << diff;
}

TEST(MergeJoinNodeTest, UsedForClusteredKeysAndCorrect) {
  // Self-join on the clustering key exercises MergeJoinNode.
  Catalog cat = SyntheticCatalog(150, 5);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan right = Plan::Scan("fact").Map({{"rkey", Expr::Col("key")},
                                       {"rval", Expr::Col("val")}});
  // rkey keeps clustering? map renames, so clustering is dropped; instead
  // join fact with fact on key (clustering on both sides).
  Plan left = Plan::Scan("fact");
  Plan self = left.Join(Plan::Scan("fact").Project({"key", "dim"})
                            .Map({{"key2", Expr::Col("key")},
                                  {"dim2", Expr::Col("dim")}}),
                        JoinType::kInner, {"key"}, {"key2"});
  (void)right;
  DataFrame got = engine.ExecuteFinal(self.node());
  DataFrame expected = exact.Execute(self.node());
  std::string diff;
  EXPECT_TRUE(got.SortBy({{"key", false}})
                  .ApproxEquals(expected.SortBy({{"key", false}}), 1e-12,
                                &diff))
      << diff;
  EXPECT_EQ(got.num_rows(), 150u);
}

TEST(SortLimitNodeTest, EveryStateIsSortedAndLimited) {
  Catalog cat = SyntheticCatalog(90, 6);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact").Sort({{"val", true}}, 10);
  size_t checked = 0;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    const DataFrame& f = *s.frame;
    EXPECT_LE(f.num_rows(), 10u);
    for (size_t i = 1; i < f.num_rows(); ++i) {
      EXPECT_GE(f.ColumnByName("val").DoubleAt(i - 1),
                f.ColumnByName("val").DoubleAt(i));
    }
    ++checked;
  });
  EXPECT_GE(checked, 6u);
}

// One trace span per message and per EOF marker a node processed (its
// Finish() span is labelled "<label>:finish" and not counted here).
size_t SpansOf(const std::vector<TraceSpan>& spans, const std::string& label) {
  size_t n = 0;
  for (const auto& s : spans) n += s.node == label ? 1 : 0;
  return n;
}

TEST(FinalOnlyTest, BuildSideShuffleAggEmitsOneSnapshot) {
  // The aggregate only feeds the join's build input, which is read at
  // build EOF: it must emit its final snapshot and nothing else, while
  // the probe stream the caller sees is the same as ever.
  constexpr size_t kPartitions = 8;
  Catalog cat = SyntheticCatalog(200, kPartitions);
  WakeOptions options;
  options.trace = true;
  WakeEngine engine(&cat, options);
  ExactEngine exact(&cat);
  Plan per_dim = Plan::Scan("fact").Aggregate({"dim"}, {Count("n")});
  Plan plan = Plan::Scan("fact")
                  .Join(per_dim, JoinType::kInner, {"dim"}, {"dim"})
                  .WithLabel("join");
  size_t intermediate = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      final_frame = *s.frame;
      return;
    }
    ++intermediate;
    // Every probe partial meets the exact build: 200 rows over 4 dims.
    const Column& n = s.frame->ColumnByName("n");
    for (size_t i = 0; i < n.size(); ++i) EXPECT_EQ(n.IntAt(i), 50);
  });
  EXPECT_EQ(intermediate, kPartitions);  // one state per probe partial
  // The join saw every probe partial, two EOF markers and one build
  // snapshot.
  EXPECT_EQ(SpansOf(engine.last_trace(), "join"), kPartitions + 2 + 1);
  std::string diff;
  EXPECT_TRUE(final_frame.ApproxEquals(exact.Execute(plan.node()), 0.0, &diff))
      << diff;
}

TEST(FinalOnlyTest, AggregateSharedByProbeAndBuildStillStreams) {
  // One aggregate node feeds the probe directly and the build through a
  // map: the probe path reads its intermediate states, so it must not
  // run final-only.
  Catalog cat = SyntheticCatalog(1000, 10, /*decorrelate=*/true);
  WakeOptions options;
  options.share_subplans = true;
  WakeEngine engine(&cat, options);
  ExactEngine exact(&cat);
  Plan per_dim = Plan::Scan("fact").Aggregate({"dim"}, {Sum("val", "s")});
  Plan plan = per_dim.Join(
      per_dim.Map({{"dim2", Expr::Col("dim")}, {"s2", Expr::Col("s")}}),
      JoinType::kInner, {"dim"}, {"dim2"});
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GT(states, 2u);
  std::string diff;
  EXPECT_TRUE(final_frame.SortBy({{"dim", false}})
                  .ApproxEquals(exact.Execute(plan.node())
                                    .SortBy({{"dim", false}}),
                                1e-9, &diff))
      << diff;
}

TEST(FinalOnlyTest, BuildSideSortLimitEmitsOnceAtFinish) {
  constexpr size_t kPartitions = 6;
  Catalog cat = SyntheticCatalog(90, kPartitions);
  WakeOptions options;
  options.trace = true;
  WakeEngine engine(&cat, options);
  ExactEngine exact(&cat);
  Plan top = Plan::Scan("fact")
                 .Sort({{"val", true}}, 10)
                 .Map({{"top_key", Expr::Col("key")},
                       {"top_val", Expr::Col("val")}});
  Plan plan = Plan::Scan("fact")
                  .Join(top, JoinType::kInner, {"key"}, {"top_key"})
                  .WithLabel("join");
  DataFrame got = engine.ExecuteFinal(plan.node());
  EXPECT_EQ(SpansOf(engine.last_trace(), "join"), kPartitions + 2 + 1);
  EXPECT_EQ(SpansOf(engine.last_trace(), "sort:finish"), 1u);
  ASSERT_EQ(got.num_rows(), 10u);
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(exact.Execute(plan.node()), 0.0, &diff))
      << diff;
}

TEST(EngineTest, TraceCollectsSpansWhenEnabled) {
  Catalog cat = SyntheticCatalog(100, 4);
  WakeOptions options;
  options.trace = true;
  WakeEngine engine(&cat, options);
  engine.ExecuteFinal(
      Plan::Scan("fact").Aggregate({"dim"}, {Count("n")}).node());
  const auto& spans = engine.last_trace();
  ASSERT_FALSE(spans.empty());
  bool saw_reader = false, saw_agg = false;
  for (const auto& s : spans) {
    saw_reader |= s.node.find("read") != std::string::npos;
    saw_agg |= s.node.find("agg") != std::string::npos;
    EXPECT_GE(s.end_seconds, s.start_seconds);
  }
  EXPECT_TRUE(saw_reader);
  EXPECT_TRUE(saw_agg);
}

TEST(EngineTest, BufferedBytesReported) {
  Catalog cat = SyntheticCatalog(500, 4);
  WakeEngine engine(&cat);
  engine.ExecuteFinal(Plan::Scan("fact")
                          .Join(Plan::Scan("dim"), JoinType::kInner, {"dim"},
                                {"d_id"})
                          .Sort({{"val", true}}, 100)
                          .node());
  EXPECT_GT(engine.buffered_bytes(), 0u);
}

TEST(EngineTest, EmptyScanStillFinalizes) {
  Schema schema({{"x", ValueType::kInt64}});
  schema.set_clustering_key({"x"});
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("empty", DataFrame(schema), 1)));
  WakeEngine engine(&cat);
  bool finalized = false;
  engine.Execute(Plan::Scan("empty").Aggregate({}, {Count("n")}).node(),
                 [&](const OlaState& s) { finalized |= s.is_final; });
  EXPECT_TRUE(finalized);
}

}  // namespace
}  // namespace wake
