#include "core/agg_state.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/hash.h"
#include "core/inference.h"

namespace wake {

namespace {

constexpr size_t kNoInput = static_cast<size_t>(-1);

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

// COUNT(DISTINCT) estimates of one snapshot. Within a snapshot x̂ is a
// function of x, so (d, x) determines the MM1 estimate and its CI
// derivative, and groups sharing a pair share one Newton solve.
class DistinctMemo {
 public:
  struct Entry {
    double est;
    double dy_dxhat;  // set when the snapshot reports CIs and est > 0
  };

  explicit DistinctMemo(bool with_ci) : with_ci_(with_ci) {}

  const Entry& Get(double d, double x, double xhat) {
    const uint64_t h = MixHash(MixHash(0, DoubleBits(d)), DoubleBits(x));
    for (uint32_t e = index_.Find(h); e != FlatHashIndex::kNil;
         e = index_.Next(e)) {
      if (keys_[e].first == d && keys_[e].second == x) return entries_[e];
    }
    Entry entry{EstimateCountDistinct(d, x, xhat), 0.0};
    if (with_ci_ && entry.est > 0) {
      // Eq 19 with Var(y) = 0: Var(f_cd) = Var(x̂)·(∂Y/∂x̂)². The
      // derivative is taken numerically through the full MM1 solve — h in
      // Eq 7 depends on x̂ both via z = x̂/Y and via the gamma arguments,
      // so the z-partial alone (Eq 18's h′ term) would understate the
      // sensitivity.
      double eps = std::max(1e-4 * xhat, 1e-6);
      double d_hi = EstimateCountDistinct(d, x, xhat + eps);
      double d_lo = EstimateCountDistinct(d, x, xhat - eps);
      entry.dy_dxhat = (d_hi - d_lo) / (2.0 * eps);
    }
    index_.Insert(h, static_cast<uint32_t>(entries_.size()));
    keys_.emplace_back(d, x);
    entries_.push_back(entry);
    return entries_.back();
  }

 private:
  bool with_ci_;
  FlatHashIndex index_;
  std::vector<std::pair<double, double>> keys_;
  std::vector<Entry> entries_;
};

}  // namespace

GroupedAggState::GroupedAggState(std::vector<std::string> group_by,
                                 std::vector<AggSpec> aggs,
                                 const Schema& input_schema,
                                 Schema output_schema)
    : group_by_(std::move(group_by)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output_schema)) {
  for (const auto& a : aggs_) {
    agg_input_cols_.push_back(
        a.input.empty() ? kNoInput : input_schema.FieldIndex(a.input));
  }
  Schema key_schema;
  for (const auto& g : group_by_) {
    key_schema.AddField(input_schema.field(input_schema.FieldIndex(g)));
  }
  group_keys_ = DataFrame(key_schema);
  for (size_t i = 0; i < group_by_.size(); ++i) stored_key_cols_.push_back(i);
  hot_.resize(aggs_.size());
  cold_.resize(aggs_.size());
  distinct_.resize(aggs_.size());
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].func == AggFunc::kCountDistinct &&
        agg_input_cols_[a] != kNoInput) {
      distinct_[a].values = Column(input_schema.field(agg_input_cols_[a]).type);
    }
  }
}

void GroupedAggState::AppendAccums() {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    hot_[a].emplace_back();
    if (NeedsCold(aggs_[a].func)) cold_[a].emplace_back();
  }
}

void GroupedAggState::Reset() {
  group_keys_ = DataFrame(group_keys_.schema());
  key_index_.Reset();
  group_rows_.clear();
  for (auto& h : hot_) h.clear();
  for (auto& c : cold_) c.clear();
  for (DistinctSet& d : distinct_) {
    d.index.Reset();
    d.group.clear();
    d.values = Column(d.values.type());
  }
  code_cache_dict_ = nullptr;
  code_to_gid_.clear();
  null_gid_ = FlatHashIndex::kNil;
  total_rows_ = 0;
}

uint32_t GroupedAggState::FindOrCreateGroup(
    uint64_t hash, const DataFrame& partial,
    const std::vector<size_t>& key_cols, size_t row, const KeyEq& eq) {
  for (uint32_t cand = key_index_.Find(hash); cand != FlatHashIndex::kNil;
       cand = key_index_.Next(cand)) {
    if (eq.Equal(row, cand)) return cand;
  }
  uint32_t gid = static_cast<uint32_t>(group_rows_.size());
  for (size_t i = 0; i < key_cols.size(); ++i) {
    // AppendFrom keeps same-dict string keys as codes (no string
    // materializes).
    group_keys_.mutable_column(i)->AppendFrom(partial.column(key_cols[i]),
                                              row);
  }
  group_rows_.push_back(0);
  AppendAccums();
  key_index_.Insert(hash, gid);
  return gid;
}

void GroupedAggState::AssignGroupsByCode(const DataFrame& partial,
                                         const std::vector<size_t>& key_cols,
                                         const Column& key_col,
                                         uint32_t* gids, size_t n) {
  const StringDict* d = key_col.dict().get();
  if (code_cache_dict_ != d) {
    // New dict object (first partial, or the stored dict was re-pointed by
    // a cross-dict COW): rebuild the table from the stored group keys.
    code_cache_dict_ = d;
    code_to_gid_.assign(d->size(), FlatHashIndex::kNil);
    null_gid_ = FlatHashIndex::kNil;
    const auto& gcodes = group_keys_.column(0).codes();
    for (size_t g = 0; g < gcodes.size(); ++g) {
      if (gcodes[g] >= 0) {
        code_to_gid_[gcodes[g]] = static_cast<uint32_t>(g);
      } else {
        null_gid_ = static_cast<uint32_t>(g);
      }
    }
  } else if (code_to_gid_.size() < d->size()) {
    code_to_gid_.resize(d->size(), FlatHashIndex::kNil);
  }
  KeyEq eq(partial, key_cols, group_keys_, stored_key_cols_);
  const int32_t* codes = key_col.codes().data();
  const bool nulls = key_col.has_nulls();
  for (size_t r = 0; r < n; ++r) {
    if (nulls && key_col.IsNull(r)) {
      if (null_gid_ == FlatHashIndex::kNil) {
        null_gid_ = FindOrCreateGroup(partial.HashRowKeys(key_cols, r),
                                      partial, key_cols, r, eq);
      }
      gids[r] = null_gid_;
      continue;
    }
    uint32_t g = code_to_gid_[codes[r]];
    if (g == FlatHashIndex::kNil) {
      // First sighting of this code: resolve through the hash index (the
      // group may predate the cache) and memoize.
      g = FindOrCreateGroup(partial.HashRowKeys(key_cols, r), partial,
                            key_cols, r, eq);
      code_to_gid_[codes[r]] = g;
    }
    gids[r] = g;
  }
}

void GroupedAggState::Consume(const DataFrame& partial,
                              const VarianceMap* input_variances) {
  size_t n = partial.num_rows();
  if (n == 0) {
    // A global aggregate (no group keys) still needs its single group so
    // that count() over an empty stream can converge to 0 only when no
    // rows ever arrive; rows == 0 keeps the state empty.
    return;
  }
  std::vector<size_t> key_cols = partial.ColumnIndices(group_by_);
  // Per-agg input column pointers and variance vectors.
  std::vector<const Column*> in_cols(aggs_.size(), nullptr);
  std::vector<const std::vector<double>*> in_vars(aggs_.size(), nullptr);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    if (agg_input_cols_[a] == kNoInput) continue;
    in_cols[a] = &partial.column(agg_input_cols_[a]);
    if (input_variances != nullptr) {
      auto it = input_variances->find(aggs_[a].input);
      if (it != input_variances->end()) in_vars[a] = &it->second;
    }
  }

  // Phase 1: assign every row its dense group id (batch hash, then
  // find-or-create against the flat index).
  const size_t num_aggs = aggs_.size();
  static thread_local std::vector<uint32_t> gids;
  gids.assign(n, 0);
  if (group_by_.empty()) {
    // Global aggregate: one group with no key columns.
    if (group_rows_.empty()) {
      group_rows_.push_back(0);
      AppendAccums();
    }
  } else {
    // Adopt string keys' dicts before constructing the comparator, so even
    // the first partial verifies candidates by code compare.
    for (size_t k = 0; k < key_cols.size(); ++k) {
      group_keys_.mutable_column(k)->AdoptDict(
          partial.column(key_cols[k]).dict());
    }
    const Column& kc = partial.column(key_cols[0]);
    if (key_cols.size() == 1 && kc.type() == ValueType::kString &&
        group_keys_.column(0).dict().get() == kc.dict().get()) {
      // A string group key sharing the stored keys' dict: group ids resolve
      // through the dense code table — no hashing at all.
      AssignGroupsByCode(partial, key_cols, kc, gids.data(), n);
    } else {
      static thread_local std::vector<uint64_t> hashes;
      partial.HashRowsBatch(key_cols, &hashes);
      KeyEq eq(partial, key_cols, group_keys_, stored_key_cols_);
      constexpr size_t kPrefetchAhead = 8;
      for (size_t r = 0; r < n; ++r) {
        if (r + kPrefetchAhead < n) {
          key_index_.Prefetch(hashes[r + kPrefetchAhead]);
        }
        gids[r] = FindOrCreateGroup(hashes[r], partial, key_cols, r, eq);
      }
    }
  }
  for (size_t r = 0; r < n; ++r) ++group_rows_[gids[r]];
  total_rows_ += n;

  // Phase 2: accumulate column-at-a-time — one function/type dispatch per
  // aggregate, then a tight per-row loop over that aggregate's dense
  // HotAccum array (32 bytes per group).
  for (size_t a = 0; a < num_aggs; ++a) {
    HotAccum* hot = hot_[a].data();
    const Column* col = in_cols[a];
    if (col == nullptr) {  // count(*)
      for (size_t r = 0; r < n; ++r) ++hot[gids[r]].count;
      continue;
    }
    const bool nulls = col->has_nulls();
    switch (aggs_[a].func) {
      case AggFunc::kCount:
        for (size_t r = 0; r < n; ++r) {
          if (nulls && col->IsNull(r)) continue;
          ++hot[gids[r]].count;
        }
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
      case AggFunc::kVar:
      case AggFunc::kStddev: {
        const std::vector<double>* vars = in_vars[a];
        const int64_t* ip =
            IsIntPhysical(col->type()) ? col->ints().data() : nullptr;
        const double* dp = ip == nullptr ? col->doubles().data() : nullptr;
        for (size_t r = 0; r < n; ++r) {
          if (nulls && col->IsNull(r)) continue;
          HotAccum& acc = hot[gids[r]];
          double v = ip != nullptr ? static_cast<double>(ip[r]) : dp[r];
          acc.sum += v;
          acc.sumsq += v * v;
          ++acc.count;
          if (vars != nullptr) acc.var_in_sum += (*vars)[r];
        }
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool is_min = aggs_[a].func == AggFunc::kMin;
        ColdAccum* cold = cold_[a].data();
        for (size_t r = 0; r < n; ++r) {
          if (nulls && col->IsNull(r)) continue;
          ColdAccum& acc = cold[gids[r]];
          Value v = col->GetValue(r);
          bool replace = !acc.has_extreme ||
                         (is_min ? v < acc.extreme : acc.extreme < v);
          if (replace) {
            acc.extreme = std::move(v);
            acc.has_extreme = true;
          }
        }
        break;
      }
      case AggFunc::kCountDistinct:
        ConsumeDistinct(*col, gids.data(), n, &distinct_[a], hot);
        break;
      case AggFunc::kMedian: {
        ColdAccum* cold = cold_[a].data();
        for (size_t r = 0; r < n; ++r) {
          if (nulls && col->IsNull(r)) continue;
          cold[gids[r]].samples.push_back(col->DoubleAt(r));
        }
        break;
      }
    }
  }
}

void GroupedAggState::ConsumeDistinct(const Column& col, const uint32_t* gids,
                                      size_t n, DistinctSet* set,
                                      HotAccum* hot) {
  // Each row's hash: its value's HashRow seeded with its group id, mixed
  // column-at-a-time.
  static thread_local std::vector<uint64_t> hashes;
  hashes.resize(n);
  for (size_t r = 0; r < n; ++r) hashes[r] = MixHash(0, gids[r]);
  col.HashInto(hashes.data(), n);

  Column& values = set->values;
  values.AdoptDict(col.dict());  // first entry on: compare codes
  enum class Mode { kInt, kBits, kCode, kString };
  Mode mode = Mode::kInt;
  if (col.type() == ValueType::kString) {
    mode = values.dict() == col.dict() ? Mode::kCode : Mode::kString;
  } else if (col.type() == ValueType::kFloat64) {
    mode = Mode::kBits;
  }
  auto same_value = [&](uint32_t e, size_t r) {
    switch (mode) {
      case Mode::kInt: return values.ints()[e] == col.ints()[r];
      case Mode::kBits:
        return DoubleBits(values.doubles()[e]) == DoubleBits(col.doubles()[r]);
      case Mode::kCode: return values.codes()[e] == col.codes()[r];
      case Mode::kString: return values.StringAt(e) == col.StringAt(r);
    }
    return false;
  };

  constexpr size_t kPrefetchAhead = 8;
  const bool nulls = col.has_nulls();
  for (size_t r = 0; r < n; ++r) {
    if (r + kPrefetchAhead < n) set->index.Prefetch(hashes[r + kPrefetchAhead]);
    if (nulls && col.IsNull(r)) continue;
    const uint32_t g = gids[r];
    bool seen = false;
    for (uint32_t e = set->index.Find(hashes[r]); e != FlatHashIndex::kNil;
         e = set->index.Next(e)) {
      if (set->group[e] == g && same_value(e, r)) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    const auto e = static_cast<uint32_t>(set->group.size());
    set->group.push_back(g);
    values.AppendFrom(col, r);
    set->index.Insert(hashes[r], e);
    ++hot[g].count;
  }
}

size_t GroupedAggState::ByteSize() const {
  size_t bytes = group_keys_.ByteSize() + key_index_.ByteSize() +
                 code_to_gid_.capacity() * sizeof(uint32_t) +
                 group_rows_.capacity() * sizeof(size_t);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    bytes += hot_[a].capacity() * sizeof(HotAccum) +
             cold_[a].capacity() * sizeof(ColdAccum);
    if (aggs_[a].func == AggFunc::kMedian) {
      for (const ColdAccum& c : cold_[a]) {
        bytes += c.samples.capacity() * sizeof(double);
      }
    }
    const DistinctSet& d = distinct_[a];
    bytes += d.index.ByteSize() + d.group.capacity() * sizeof(uint32_t) +
             d.values.ByteSize();
  }
  return bytes;
}

double GroupedAggState::MeanGroupCardinality() const {
  size_t groups = num_groups();
  if (groups == 0) return 0.0;
  return static_cast<double>(total_rows_) / static_cast<double>(groups);
}

AggResult GroupedAggState::Finalize(const AggScaling& scaling) const {
  AggResult out;
  out.frame = DataFrame(output_schema_);
  size_t num_groups = group_rows_.size();
  size_t num_keys = group_by_.size();

  // Groups were created in first-appearance order, so the stored key
  // frame is already the output order.
  for (size_t k = 0; k < num_keys; ++k) {
    *out.frame.mutable_column(k) = group_keys_.column(k);
  }

  bool scale = scaling.enabled && scaling.t > 0.0 && scaling.t < 1.0;
  // Per-snapshot constants: t^w for every group's x̂, and ln(1/t) for
  // Var(x̂).
  const double t_pow_w = scale ? std::pow(scaling.t, scaling.w) : 1.0;
  const double lg = scale ? std::log(1.0 / scaling.t) : 0.0;
  DistinctMemo distinct_memo(scaling.with_ci);

  std::vector<std::vector<double>*> var_cols(aggs_.size(), nullptr);
  if (scaling.with_ci) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      var_cols[a] = &out.variances[aggs_[a].output];
      var_cols[a]->assign(num_groups, 0.0);
    }
  }

  for (size_t a = 0; a < aggs_.size(); ++a) {
    Column* col = out.frame.mutable_column(num_keys + a);
    col->Reserve(num_groups);
    static const ColdAccum kNoCold;
    for (size_t g = 0; g < num_groups; ++g) {
      const HotAccum& acc = hot_[a][g];
      const ColdAccum& cold = cold_[a].empty() ? kNoCold : cold_[a][g];
      double x = static_cast<double>(group_rows_[g]);
      double xhat = scale ? ScaleCardinality(x, t_pow_w) : x;
      // EstimateSum's scale-up y·(x̂/x), its ratio computed once.
      double ratio = x > 0 ? xhat / x : 1.0;
      double var_xhat = 0.0;
      if (scaling.with_ci && scale) {
        // Eq 10: Var(x̂) = (x̂ ln(1/t))² Var(w).
        var_xhat = xhat * xhat * lg * lg * scaling.var_w;
      }
      double ci_var = 0.0;
      switch (aggs_[a].func) {
        case AggFunc::kCount: {
          // Non-null counts scale like the group cardinality.
          double c = static_cast<double>(acc.count);
          double est = scale && x > 0 ? c * ratio : c;
          col->AppendInt(static_cast<int64_t>(std::llround(est)));
          ci_var = var_xhat;
          break;
        }
        case AggFunc::kSum: {
          double est = scale && x > 0 ? acc.sum * ratio : acc.sum;
          if (col->type() == ValueType::kInt64) {
            col->AppendInt(static_cast<int64_t>(std::llround(est)));
          } else {
            col->AppendDouble(est);
          }
          if (scaling.with_ci) {
            // Eq 13 with CLT sample variance of the addends, plus the
            // accumulated input variances scaled by (x̂/x)².
            double c = static_cast<double>(acc.count);
            double s2 = 0.0;
            if (c > 1.0) {
              double mean = acc.sum / c;
              s2 = std::max(0.0, acc.sumsq / c - mean * mean);
            }
            double var_y = s2 * c;
            ci_var = x > 0 ? (var_y * xhat * xhat +
                              var_xhat * acc.sum * acc.sum) /
                                 (x * x)
                           : 0.0;
            ci_var += ratio * ratio * acc.var_in_sum;
            if (!scale) ci_var = acc.var_in_sum;
          }
          break;
        }
        case AggFunc::kAvg: {
          double est = acc.count > 0 ? acc.sum / acc.count : 0.0;
          if (acc.count == 0) {
            col->AppendNull();
          } else {
            col->AppendDouble(est);
          }
          if (scaling.with_ci && acc.count > 1) {
            double c = static_cast<double>(acc.count);
            double mean = acc.sum / c;
            double s2 = std::max(0.0, acc.sumsq / c - mean * mean);
            ci_var = s2 / c;  // CLT variance of the sample mean
          }
          break;
        }
        case AggFunc::kMin:
        case AggFunc::kMax: {
          if (!cold.has_extreme) {
            col->AppendNull();
          } else {
            col->AppendValue(cold.extreme);  // order statistics: identity
          }
          break;
        }
        case AggFunc::kCountDistinct: {
          double d = static_cast<double>(acc.count);
          if (!scale || x <= 0) {
            col->AppendInt(static_cast<int64_t>(std::llround(d)));
            break;
          }
          const DistinctMemo::Entry& e = distinct_memo.Get(d, x, xhat);
          col->AppendInt(static_cast<int64_t>(std::llround(e.est)));
          if (scaling.with_ci && e.est > 0) {
            ci_var = var_xhat * e.dy_dxhat * e.dy_dxhat;
          }
          break;
        }
        case AggFunc::kVar:
        case AggFunc::kStddev: {
          if (acc.count == 0) {
            col->AppendNull();
            break;
          }
          double c = static_cast<double>(acc.count);
          double mean = acc.sum / c;
          double v = std::max(0.0, acc.sumsq / c - mean * mean);
          col->AppendDouble(aggs_[a].func == AggFunc::kVar ? v
                                                           : std::sqrt(v));
          break;
        }
        case AggFunc::kMedian: {
          // Order-statistic estimator: the sample median of the observed
          // rows is the estimate (identity f_order, §5.3). Lower-median
          // convention for even counts keeps merges deterministic.
          if (cold.samples.empty()) {
            col->AppendNull();
            break;
          }
          std::vector<double> values = cold.samples;
          size_t mid = (values.size() - 1) / 2;
          std::nth_element(values.begin(), values.begin() + mid,
                           values.end());
          col->AppendDouble(values[mid]);
          break;
        }
      }
      if (scaling.with_ci) (*var_cols[a])[g] = ci_var;
    }
  }
  return out;
}

}  // namespace wake
