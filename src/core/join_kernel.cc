#include "core/join_kernel.h"

#include <algorithm>
#include <atomic>

#include "common/error.h"
#include "common/worker_pool.h"

namespace wake {

namespace {

// Probe rows per morsel. The decomposition is a function of the input
// size only (never of the worker count), and per-morsel match vectors are
// concatenated in morsel order, so a parallel probe reproduces the serial
// row order bit-for-bit.
constexpr size_t kProbeMorselRows = 16 * 1024;
// Output rows per parallel-gather task.
constexpr size_t kGatherGrainRows = 64 * 1024;

// Translated probe code for a string absent from the build dict: such a
// row can never match (every build key is interned in the build dict).
// Distinct from Column::kNullCode, which marks genuine nulls.
constexpr int32_t kAbsentCode = -2;

// Thread-local code→chain-head memo for probes whose single string key
// carries build-dict codes (either because it shares the build side's
// dict, or after cross-dict unification translated it into build codes):
// the first probe of each distinct code pays one hash+slot walk, every
// later row is an array load. Validated against (table, build version,
// build dict object); codes within one dict object are append-only, so
// hits are never stale.
struct ProbeCodeCache {
  // Distinct from FlatHashIndex::kNil (a legitimate cached "no match").
  static constexpr uint32_t kUnresolved = 0xFFFFFFFEu;
  uint64_t table_id = 0;  // 0 == never filled
  uint64_t build_version = 0;
  uint64_t dict_id = 0;
  std::vector<uint32_t> heads;  // code -> chain head (kNil == no match)
  uint32_t null_head = kUnresolved;
};

// Thread-local probe-dict → build-dict code translation for cross-dict
// string joins: each distinct probe entry is resolved against the build
// dict once per (probe dict, build dict) pair instead of byte-comparing
// every candidate of every row. Both dicts are append-only, so cached
// translations never go stale; entries cached as absent are re-resolved
// when the build dict has grown.
struct DictRemapCache {
  uint64_t from_id = 0;  // 0 == never filled (dict ids start at 1)
  uint64_t to_id = 0;
  size_t to_size = 0;
  std::vector<int32_t> map;  // probe code -> build code / kAbsentCode
};

std::atomic<uint64_t> next_table_id{0};

// Translates the probe key column's codes into build-dict codes, reusing
// the thread-local remap. Returns a shadow column sharing the build dict
// (null rows normalized to kNullCode) for the shared-dict probe fast path.
Column TranslateProbeCodes(const Column& probe, const StringDict* build_dict,
                           const StringDictPtr& build_dict_ptr) {
  static thread_local DictRemapCache cache;
  const StringDict* from = probe.dict().get();
  if (cache.from_id != from->id() || cache.to_id != build_dict->id()) {
    cache.from_id = from->id();
    cache.to_id = build_dict->id();
    cache.to_size = build_dict->size();
    cache.map.clear();
  }
  if (cache.to_size != build_dict->size()) {
    // The build dict grew since entries were cached: strings recorded as
    // absent may exist now. Found entries can never change (append-only).
    for (size_t c = 0; c < cache.map.size(); ++c) {
      if (cache.map[c] != kAbsentCode) continue;
      int32_t b = build_dict->Find(from->At(static_cast<int32_t>(c)));
      if (b != StringDict::kNotFound) cache.map[c] = b;
    }
    cache.to_size = build_dict->size();
  }
  size_t known = cache.map.size();
  if (known < from->size()) {
    cache.map.resize(from->size());
    for (size_t c = known; c < from->size(); ++c) {
      int32_t b = build_dict->Find(from->At(static_cast<int32_t>(c)));
      cache.map[c] = b == StringDict::kNotFound ? kAbsentCode : b;
    }
  }

  const int32_t* pcodes = probe.codes().data();
  size_t n = probe.codes().size();
  std::vector<int32_t> tcodes(n);
  const bool nulls = probe.has_nulls();
  for (size_t r = 0; r < n; ++r) {
    int32_t pc = pcodes[r];
    tcodes[r] = (pc < 0 || (nulls && probe.IsNull(r))) ? Column::kNullCode
                                                       : cache.map[pc];
  }
  ValidityBitmap valid = probe.validity();  // copy; may be empty
  return Column::DictFromCodes(build_dict_ptr, std::move(tcodes),
                               std::move(valid));
}

// Shapes `dst` to hold `n` rows gathered from `src` (same type; strings
// share `src`'s dict), with a writable all-valid mask when the gather can
// produce nulls. Parallel gather tasks then write disjoint row ranges.
void ShapeGatherDst(const Column& src, size_t n, bool may_null, Column* dst) {
  *dst = Column(src.type());
  switch (src.type()) {
    case ValueType::kFloat64:
      dst->mutable_doubles()->resize(n);
      break;
    case ValueType::kString:
      dst->AdoptDict(src.dict());
      dst->mutable_codes()->resize(n);
      break;
    default:
      dst->mutable_ints()->resize(n);
      break;
  }
  if (may_null) dst->set_validity(ValidityBitmap::AllValid(n));
}

// dst rows [begin, end) = src rows idx[begin..end); rows with
// pad_valid[i] == 0 (left-join placeholders) are nulled. Mirrors
// Column::Take + SetNull semantics exactly.
void GatherRows(const Column& src, const uint32_t* idx,
                const uint8_t* pad_valid, size_t begin, size_t end,
                Column* dst) {
  switch (src.type()) {
    case ValueType::kFloat64: {
      const double* s = src.doubles().data();
      double* d = dst->mutable_doubles()->data();
      for (size_t i = begin; i < end; ++i) d[i] = s[idx[i]];
      break;
    }
    case ValueType::kString: {
      const int32_t* s = src.codes().data();
      int32_t* d = dst->mutable_codes()->data();
      for (size_t i = begin; i < end; ++i) d[i] = s[idx[i]];
      break;
    }
    default: {
      const int64_t* s = src.ints().data();
      int64_t* d = dst->mutable_ints()->data();
      for (size_t i = begin; i < end; ++i) d[i] = s[idx[i]];
      break;
    }
  }
  if (!dst->has_nulls()) return;
  // Bitmap writes are clear-only into an all-valid mask. Gather ranges
  // are kGatherGrainRows-aligned — a multiple of 64 — so parallel tasks
  // never share a validity word.
  uint64_t* dw = dst->mutable_validity()->mutable_words();
  const ValidityBitmap* sv = src.has_nulls() ? &src.validity() : nullptr;
  for (size_t i = begin; i < end; ++i) {
    const bool row_valid = (sv == nullptr || sv->Get(idx[i])) &&
                           (pad_valid == nullptr || pad_valid[i] != 0);
    if (!row_valid) dw[i >> 6] &= ~(1ULL << (i & 63));
  }
}

}  // namespace

JoinHashTable::JoinHashTable(const Schema& right_schema,
                             std::vector<std::string> right_keys)
    : right_schema_(right_schema),
      right_keys_(std::move(right_keys)),
      build_(right_schema),
      table_id_(++next_table_id) {
  for (const auto& k : right_keys_) {
    key_cols_.push_back(right_schema_.FieldIndex(k));
  }
}

void JoinHashTable::Reserve(size_t expected_rows) {
  index_.Reserve(expected_rows);
}

void JoinHashTable::Insert(const DataFrame& right_partial,
                           const VarianceMap* variances) {
  ++build_version_;
  size_t base = build_.num_rows();
  build_.Append(right_partial);
  if (variances != nullptr) {
    for (const auto& [col, vars] : *variances) {
      auto& dst = build_vars_[col];
      dst.resize(base, 0.0);
      dst.insert(dst.end(), vars.begin(), vars.end());
    }
  }
  if (key_cols_.empty()) return;  // cross join: no index needed
  // The incoming partial holds exactly the appended rows, so hash it
  // column-at-a-time instead of re-reading the accumulated build frame.
  static thread_local std::vector<uint64_t> hashes;
  right_partial.HashRowsBatch(key_cols_, &hashes);
  index_.InsertBatch(hashes.data(), hashes.size(), static_cast<uint32_t>(base));
}

void JoinHashTable::MatchRange(const DataFrame& left,
                               const std::vector<size_t>& lcols,
                               const KeyEq& eq, const Column* dict_key,
                               JoinType type, size_t begin, size_t end,
                               std::vector<uint32_t>* lrows,
                               std::vector<uint32_t>* rrows,
                               std::vector<uint8_t>* rvalid) const {
  const bool pad = type == JoinType::kLeft;
  size_t n = end - begin;
  lrows->reserve(lrows->size() + n);
  if (type == JoinType::kInner || pad) {
    rrows->reserve(rrows->size() + n);
    if (pad) rvalid->reserve(rvalid->size() + n);
  }

  // Pipelined probe: resolve every row's chain head first (slot array
  // prefetched ahead), then verify keys and emit matches with the chain
  // arena and build-side key rows prefetched ahead.
  constexpr size_t kPrefetchAhead = 8;
  static thread_local std::vector<uint32_t> heads;
  heads.resize(n);
  if (dict_key != nullptr) {
    // Build-dict codes (shared dict, or cross-dict translated): chain
    // heads come from the per-thread code memo; only first-seen codes
    // touch the hash index.
    static thread_local ProbeCodeCache cache;
    const StringDict* d = build_.column(key_cols_[0]).dict().get();
    if (cache.table_id != table_id_ ||
        cache.build_version != build_version_ || cache.dict_id != d->id()) {
      cache.table_id = table_id_;
      cache.build_version = build_version_;
      cache.dict_id = d->id();
      cache.heads.assign(d->size(), ProbeCodeCache::kUnresolved);
      cache.null_head = ProbeCodeCache::kUnresolved;
    } else if (cache.heads.size() < d->size()) {
      cache.heads.resize(d->size(), ProbeCodeCache::kUnresolved);
    }
    const int32_t* codes = dict_key->codes().data();
    const bool nulls = dict_key->has_nulls();
    for (size_t r = begin; r < end; ++r) {
      if (nulls && dict_key->IsNull(r)) {
        if (cache.null_head == ProbeCodeCache::kUnresolved) {
          cache.null_head = index_.Find(left.HashRowKeys(lcols, r));
        }
        heads[r - begin] = cache.null_head;
        continue;
      }
      int32_t code = codes[r];
      if (code < 0) {
        // kAbsentCode: interned nowhere on the build side, no match.
        heads[r - begin] = FlatHashIndex::kNil;
        continue;
      }
      uint32_t head = cache.heads[code];
      if (head == ProbeCodeCache::kUnresolved) {
        head = index_.Find(left.HashRowKeys(lcols, r));
        cache.heads[code] = head;
      }
      heads[r - begin] = head;
    }
  } else {
    static thread_local std::vector<uint64_t> hashes;
    left.HashRowsBatchRange(lcols, begin, end, &hashes);
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        index_.Prefetch(hashes[i + kPrefetchAhead]);
      }
      heads[i] = index_.Find(hashes[i]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      uint32_t ahead = heads[i + kPrefetchAhead];
      if (ahead != FlatHashIndex::kNil) {
        index_.PrefetchChain(ahead);
        eq.PrefetchRight(ahead);
      }
    }
    size_t r = begin + i;
    bool matched = false;
    for (uint32_t cand = heads[i]; cand != FlatHashIndex::kNil;
         cand = index_.Next(cand)) {
      // Verify the real keys: chains hold every row whose 64-bit hash
      // collided, and distinct keys must not merge.
      if (!eq.Equal(r, cand)) continue;
      matched = true;
      if (type == JoinType::kInner || pad) {
        lrows->push_back(static_cast<uint32_t>(r));
        rrows->push_back(cand);
        if (pad) rvalid->push_back(1);
      } else {
        break;  // semi/anti only need existence
      }
    }
    if (type == JoinType::kSemi && matched) {
      lrows->push_back(static_cast<uint32_t>(r));
    } else if (type == JoinType::kAnti && !matched) {
      lrows->push_back(static_cast<uint32_t>(r));
    } else if (pad && !matched) {
      lrows->push_back(static_cast<uint32_t>(r));
      rrows->push_back(0);  // placeholder row; nulled in the gather
      rvalid->push_back(0);
    }
  }
}

DataFrame JoinHashTable::Probe(const DataFrame& left,
                               const std::vector<std::string>& left_keys,
                               JoinType type, const Schema& out_schema,
                               const VarianceMap* left_vars,
                               VarianceMap* out_vars,
                               WorkerPool* pool) const {
  CheckArg(type == JoinType::kCross || !key_cols_.empty(),
           "hash join requires keys for non-cross joins");
  std::vector<size_t> lcols = left.ColumnIndices(left_keys);
  size_t n = left.num_rows();

  // Phase 1: match selection vectors. `rvalid` (left joins only) marks
  // which rrows entries are real matches vs null-padded placeholders.
  // Thread-local scratch: probes run once per partial, and re-faulting
  // multi-MB vectors on every call costs more than the probe itself.
  static thread_local std::vector<uint32_t> lrows;
  static thread_local std::vector<uint32_t> rrows;
  static thread_local std::vector<uint8_t> rvalid;
  lrows.clear();
  rrows.clear();
  rvalid.clear();

  size_t morsels = (n + kProbeMorselRows - 1) / kProbeMorselRows;
  const bool parallel =
      pool != nullptr && pool->workers() > 1 && morsels > 1 &&
      type != JoinType::kCross;

  if (type == JoinType::kCross) {
    CheckArg(build_.num_rows() <= 1,
             "cross join build side must produce at most one row");
    if (build_.num_rows() == 1) {
      lrows.resize(n);
      rrows.assign(n, 0);
      for (size_t i = 0; i < n; ++i) lrows[i] = static_cast<uint32_t>(i);
    }
  } else {
    // Dict fast path: single string key carrying build-dict codes. A key
    // sharing the build dict is used as-is; a key over a different dict
    // is unified by translating its codes into the build dict once per
    // partial (the shadow column), so candidate verification stays a
    // code compare instead of per-candidate byte comparison.
    const Column* dict_key = nullptr;
    Column shadow;  // owns translated codes while probing
    if (lcols.size() == 1 && build_.num_rows() > 0) {
      const Column& lkc = left.column(lcols[0]);
      const Column& bkc = build_.column(key_cols_[0]);
      if (lkc.is_dict() && bkc.is_dict()) {
        if (lkc.dict().get() == bkc.dict().get()) {
          dict_key = &lkc;
        } else {
          shadow = TranslateProbeCodes(lkc, bkc.dict().get(), bkc.dict());
          dict_key = &shadow;
        }
      }
    }
    KeyEq eq = dict_key != nullptr
                   ? KeyEq(*dict_key, build_.column(key_cols_[0]))
                   : KeyEq(left, lcols, build_, key_cols_);
    if (!parallel) {
      MatchRange(left, lcols, eq, dict_key, type, 0, n, &lrows, &rrows,
                 &rvalid);
    } else {
      // Per-morsel match vectors, stitched in morsel order: identical to
      // the serial single pass at any worker count.
      struct Matches {
        std::vector<uint32_t> lrows, rrows;
        std::vector<uint8_t> rvalid;
      };
      std::vector<Matches> parts(morsels);
      pool->ParallelFor(n, kProbeMorselRows, [&](size_t b, size_t e) {
        Matches& m = parts[b / kProbeMorselRows];
        MatchRange(left, lcols, eq, dict_key, type, b, e, &m.lrows,
                   &m.rrows, &m.rvalid);
      });
      size_t totl = 0, totr = 0, totv = 0;
      std::vector<size_t> offl(morsels), offr(morsels), offv(morsels);
      for (size_t m = 0; m < morsels; ++m) {
        offl[m] = totl;
        offr[m] = totr;
        offv[m] = totv;
        totl += parts[m].lrows.size();
        totr += parts[m].rrows.size();
        totv += parts[m].rvalid.size();
      }
      lrows.resize(totl);
      rrows.resize(totr);
      rvalid.resize(totv);
      // Snapshot the data pointers on this thread: thread_local names are
      // not captured by lambdas, so referencing the vectors inside the
      // pool-executed body would resolve to the pool thread's instances.
      uint32_t* lp = lrows.data();
      uint32_t* rp = rrows.data();
      uint8_t* vp = rvalid.data();
      pool->ParallelShards(morsels, [&, lp, rp, vp](size_t m) {
        std::copy(parts[m].lrows.begin(), parts[m].lrows.end(),
                  lp + offl[m]);
        std::copy(parts[m].rrows.begin(), parts[m].rrows.end(),
                  rp + offr[m]);
        std::copy(parts[m].rvalid.begin(), parts[m].rvalid.end(),
                  vp + offv[m]);
      });
    }
  }

  // Phase 2: gather output columns from the selection vectors — left
  // columns by lrows, right columns (minus join keys) by rrows.
  DataFrame out(out_schema);
  const bool build_empty = build_.num_rows() == 0;
  const bool right_cols_out =
      type != JoinType::kSemi && type != JoinType::kAnti;

  struct GatherJob {
    const Column* src;
    const uint32_t* idx;
    const uint8_t* pad_valid;
    size_t out_col;
  };
  std::vector<GatherJob> jobs;
  for (size_t col = 0; col < left.num_columns(); ++col) {
    jobs.push_back({&left.column(col), lrows.data(), nullptr, col});
  }
  if (right_cols_out && !build_empty) {
    size_t col = left.num_columns();
    const uint8_t* pv = rvalid.empty() ? nullptr : rvalid.data();
    for (size_t rc = 0; rc < build_.num_columns(); ++rc) {
      if (std::find(key_cols_.begin(), key_cols_.end(), rc) !=
          key_cols_.end()) {
        continue;
      }
      jobs.push_back({&build_.column(rc), rrows.data(), pv, col});
      ++col;
    }
  }

  size_t out_rows = lrows.size();
  if (parallel && out_rows >= kGatherGrainRows) {
    // Parallel gather into pre-shaped columns: tasks are (column,
    // output-row-range) pairs writing disjoint ranges.
    for (const GatherJob& j : jobs) {
      ShapeGatherDst(*j.src, out_rows,
                     j.src->has_nulls() || j.pad_valid != nullptr,
                     out.mutable_column(j.out_col));
    }
    size_t ranges = (out_rows + kGatherGrainRows - 1) / kGatherGrainRows;
    pool->ParallelShards(jobs.size() * ranges, [&](size_t t) {
      const GatherJob& j = jobs[t / ranges];
      size_t r = t % ranges;
      size_t b = r * kGatherGrainRows;
      size_t e = std::min(b + kGatherGrainRows, out_rows);
      GatherRows(*j.src, j.idx, j.pad_valid, b, e,
                 out.mutable_column(j.out_col));
    });
    for (const GatherJob& j : jobs) {
      out.mutable_column(j.out_col)->CompactValidity();
    }
  } else {
    for (const GatherJob& j : jobs) {
      // The selection vectors already exist; hand them to Take directly.
      Column dst = j.src->Take(j.idx == lrows.data() ? lrows : rrows);
      if (j.pad_valid != nullptr) {
        for (size_t i = 0; i < out_rows; ++i) {
          if (j.pad_valid[i] == 0) dst.SetNull(i);
        }
      }
      *out.mutable_column(j.out_col) = std::move(dst);
    }
  }
  if (right_cols_out && build_empty) {
    // Placeholder index 0 has nothing to gather; pad all-null rows.
    size_t col = left.num_columns();
    for (size_t rc = 0; rc < build_.num_columns(); ++rc) {
      if (std::find(key_cols_.begin(), key_cols_.end(), rc) !=
          key_cols_.end()) {
        continue;
      }
      Column dst(build_.column(rc).type());
      for (size_t i = 0; i < rrows.size(); ++i) dst.AppendNull();
      *out.mutable_column(col) = std::move(dst);
      ++col;
    }
  }

  // Variance gather for CI mode.
  if (out_vars != nullptr) {
    if (left_vars != nullptr) {
      for (const auto& [name, vars] : *left_vars) {
        if (!out_schema.HasField(name)) continue;
        auto& dst = (*out_vars)[name];
        dst.reserve(lrows.size());
        for (uint32_t lr : lrows) {
          dst.push_back(lr < vars.size() ? vars[lr] : 0.0);
        }
      }
    }
    if (!build_vars_.empty() && type != JoinType::kSemi &&
        type != JoinType::kAnti) {
      for (const auto& [name, vars] : build_vars_) {
        if (!out_schema.HasField(name)) continue;
        auto& dst = (*out_vars)[name];
        dst.reserve(rrows.size());
        for (size_t i = 0; i < rrows.size(); ++i) {
          bool valid = rvalid.empty() || rvalid[i] != 0;
          dst.push_back(valid && rrows[i] < vars.size() ? vars[rrows[i]]
                                                        : 0.0);
        }
      }
    }
  }
  return out;
}

DataFrame HashJoin(const DataFrame& left, const DataFrame& right,
                   const std::vector<std::string>& left_keys,
                   const std::vector<std::string>& right_keys, JoinType type,
                   const Schema& out_schema) {
  JoinHashTable table(right.schema(), right_keys);
  table.Reserve(right.num_rows());
  table.Insert(right);
  return table.Probe(left, left_keys, type, out_schema);
}

}  // namespace wake
