#include "frame/column.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"

namespace wake {

namespace {
// Sentinel mixed in place of a value hash for null rows.
constexpr uint64_t kNullHashPayload = 0xdeadbeefULL;
}  // namespace

const std::string Column::kEmptyString;

Column Column::FromInts(std::vector<int64_t> data, ValueType type) {
  Column c(type);
  c.ints_ = std::move(data);
  return c;
}

Column Column::FromDoubles(std::vector<double> data) {
  Column c(ValueType::kFloat64);
  c.doubles_ = std::move(data);
  return c;
}

Column Column::FromStrings(const std::vector<std::string>& data) {
  Column c(ValueType::kString);
  c.Reserve(data.size());
  for (const auto& s : data) c.AppendString(s);
  return c;
}

Column Column::DictFromCodes(StringDictPtr dict, std::vector<int32_t> codes,
                             ValidityBitmap valid) {
  Column c(ValueType::kString);
  c.dict_ = std::move(dict);
  c.codes_ = std::move(codes);
  c.valid_ = std::move(valid);
  c.CompactValidity();
  return c;
}

StringDict* Column::MutableDict() {
  if (dict_ == nullptr) {
    dict_ = std::make_shared<StringDict>();
  } else if (dict_.use_count() > 1) {
    dict_ = std::make_shared<StringDict>(*dict_);
  }
  return dict_.get();
}

size_t Column::size() const {
  switch (type_) {
    case ValueType::kFloat64:
      return doubles_.size();
    case ValueType::kString:
      return codes_.size();
    default:
      return ints_.size();
  }
}

void Column::SetNull(size_t i) {
  if (valid_.empty()) valid_.AssignAllValid(size());
  valid_.SetNull(i);
  if (type_ == ValueType::kString) codes_[i] = kNullCode;
}

void Column::CompactValidity() {
  // Padding bits are 1, so all-valid is a plain all-words == ~0 scan.
  if (!valid_.empty() && valid_.AllValid()) valid_.Clear();
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null(type_);
  Value v;
  v.type = type_;
  switch (type_) {
    case ValueType::kFloat64:
      v.d = doubles_[i];
      break;
    case ValueType::kString:
      v.s = StringAt(i);
      break;
    default:
      v.i = ints_[i];
      break;
  }
  return v;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kFloat64:
      AppendDouble(v.type == ValueType::kFloat64 ? v.d
                                                 : static_cast<double>(v.i));
      break;
    case ValueType::kString:
      AppendString(v.s);
      break;
    default:
      AppendInt(v.type == ValueType::kFloat64 ? static_cast<int64_t>(v.d)
                                              : v.i);
      break;
  }
}

void Column::AppendString(std::string_view x) {
  codes_.push_back(MutableDict()->Intern(x));
  ExtendValidity();
}

void Column::AppendFrom(const Column& src, size_t i) {
  AdoptDict(src.dict_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (type_ == ValueType::kString) {
    if (dict_ == src.dict_) {
      codes_.push_back(src.codes_[i]);
      ExtendValidity();
    } else {
      AppendString(src.StringAt(i));
    }
    return;
  }
  AppendValue(src.GetValue(i));
}

void Column::AppendNull() {
  if (valid_.empty()) valid_.AssignAllValid(size());
  switch (type_) {
    case ValueType::kFloat64:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      // A null never interns, so a shared dict stays shared.
      if (dict_ == nullptr) dict_ = std::make_shared<StringDict>();
      codes_.push_back(kNullCode);
      break;
    default:
      ints_.push_back(0);
      break;
  }
  valid_.Append(false);
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kFloat64:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      codes_.reserve(n);
      break;
    default:
      ints_.reserve(n);
      break;
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  valid_.Clear();
}

Column Column::Take(const std::vector<uint32_t>& indices) const {
  Column out(type_);
  const size_t n = indices.size();
  // Sized gathers (no per-push capacity checks in the hot join path).
  switch (type_) {
    case ValueType::kFloat64:
      out.doubles_.resize(n);
      for (size_t i = 0; i < n; ++i) out.doubles_[i] = doubles_[indices[i]];
      break;
    case ValueType::kString:
      // Codes gather; the dict is shared, so no string is copied.
      out.dict_ = dict_;
      out.codes_.resize(n);
      for (size_t i = 0; i < n; ++i) out.codes_[i] = codes_[indices[i]];
      break;
    default:
      out.ints_.resize(n);
      for (size_t i = 0; i < n; ++i) out.ints_[i] = ints_[indices[i]];
      break;
  }
  if (!valid_.empty()) {
    // Bitmap gather: start all-valid, clear bits for gathered nulls
    // (write-only per 64-row word, so morsel-parallel callers writing
    // disjoint 64-aligned row ranges never share a word).
    out.valid_.AssignAllValid(n);
    uint64_t* ow = out.valid_.mutable_words();
    for (size_t i = 0; i < n; ++i) {
      if (!valid_.Get(indices[i])) ow[i >> 6] &= ~(1ULL << (i & 63));
    }
    out.CompactValidity();
  }
  return out;
}

Column Column::FilterBy(const std::vector<uint8_t>& mask) const {
  CheckArg(mask.size() == size(), "filter mask length mismatch");
  Column out(type_);
  switch (type_) {
    case ValueType::kFloat64:
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) out.doubles_.push_back(doubles_[i]);
      }
      break;
    case ValueType::kString:
      out.dict_ = dict_;
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) out.codes_.push_back(codes_[i]);
      }
      break;
    default:
      for (size_t i = 0; i < mask.size(); ++i) {
        if (mask[i]) out.ints_.push_back(ints_[i]);
      }
      break;
  }
  if (!valid_.empty()) {
    for (size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) out.valid_.Append(valid_.Get(i));
    }
    out.CompactValidity();
  }
  return out;
}

void Column::AppendColumn(const Column& other) {
  CheckArg(type_ == other.type_, "append type mismatch");
  size_t old_size = size();
  AdoptDict(other.dict_);  // an empty destination adopts other's dict
  // Nothing to append: in particular, a shared dictionary must not be
  // copied for a different dict that brings no rows.
  if (other.size() == 0) return;
  // Decide before appending: an empty mask on an empty column must still
  // pick up the appended column's nulls.
  const bool need_mask = other.has_nulls() || !valid_.empty();
  switch (type_) {
    case ValueType::kFloat64:
      doubles_.insert(doubles_.end(), other.doubles_.begin(),
                      other.doubles_.end());
      break;
    case ValueType::kString: {
      if (dict_ == other.dict_) {
        codes_.insert(codes_.end(), other.codes_.begin(), other.codes_.end());
        break;
      }
      // Cross-dict append: intern only the entries the appended rows use,
      // in row order, through the source's stored hashes. A source dict no
      // larger than the rows gets a remap memo, so each distinct entry is
      // looked up once; a larger one is looked up row by row, so neither
      // time nor memory grows with the source dict.
      StringDict* d = MutableDict();
      const StringDict& src = *other.dict_;
      codes_.reserve(codes_.size() + other.codes_.size());
      if (src.size() <= other.codes_.size()) {
        constexpr int32_t kUnmapped = -2;  // below every code and kNullCode
        std::vector<int32_t> remap(src.size(), kUnmapped);
        for (int32_t code : other.codes_) {
          if (code < 0) {
            codes_.push_back(kNullCode);
            continue;
          }
          int32_t& to = remap[code];
          if (to == kUnmapped) to = d->Intern(src.At(code), src.HashAt(code));
          codes_.push_back(to);
        }
      } else {
        for (int32_t code : other.codes_) {
          codes_.push_back(code < 0 ? kNullCode
                                    : d->Intern(src.At(code),
                                                src.HashAt(code)));
        }
      }
      break;
    }
    default:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      break;
  }
  if (need_mask) {
    if (valid_.empty()) valid_.AssignAllValid(old_size);
    if (other.valid_.empty()) {
      valid_.AppendAllValid(other.size());
    } else {
      valid_.AppendBitmap(other.valid_);
    }
  }
}

Column Column::Slice(size_t begin, size_t end) const {
  Column out(type_);
  switch (type_) {
    case ValueType::kFloat64:
      out.doubles_.assign(doubles_.begin() + begin, doubles_.begin() + end);
      break;
    case ValueType::kString:
      out.dict_ = dict_;
      out.codes_.assign(codes_.begin() + begin, codes_.begin() + end);
      break;
    default:
      out.ints_.assign(ints_.begin() + begin, ints_.begin() + end);
      break;
  }
  if (!valid_.empty()) {
    out.valid_ = valid_.Slice(begin, end);
    out.CompactValidity();
  }
  return out;
}

int Column::CompareRows(size_t i, const Column& other, size_t j) const {
  bool ln = IsNull(i), rn = other.IsNull(j);
  if (ln || rn) return ln == rn ? 0 : (ln ? -1 : 1);
  if (type_ == ValueType::kString) {
    // Shared-dict equality is a code compare; codes are unordered (the
    // dict is insertion-ordered), so inequality still compares bytes.
    if (dict_ == other.dict_ && codes_[i] == other.codes_[j]) {
      return 0;
    }
    int c = StringAt(i).compare(other.StringAt(j));
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Numeric comparison with int/float promotion (mixed-type comparisons
  // arise when filters compare integer columns against derived floats).
  if (type_ == ValueType::kFloat64 || other.type_ == ValueType::kFloat64) {
    double a = DoubleAt(i), b = other.DoubleAt(j);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  int64_t a = ints_[i], b = other.ints_[j];
  return a < b ? -1 : (a > b ? 1 : 0);
}

uint64_t Column::HashRow(size_t i, uint64_t seed) const {
  if (IsNull(i)) return MixHash(seed, kNullHashPayload);
  switch (type_) {
    case ValueType::kString:
      return MixHash(seed, dict_->HashAt(codes_[i]));
    case ValueType::kFloat64: {
      double d = doubles_[i];
      if (d == 0.0) d = 0.0;  // normalize -0.0
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return MixHash(seed, bits);
    }
    default:
      return MixHash(seed, static_cast<uint64_t>(ints_[i]));
  }
}

namespace {
// Drives `hash_one(i, h)` over [begin, end) under a validity bitmap,
// one 64-row word at a time: all-ones words run the branch-free inner
// loop (the overwhelmingly common case), only mixed words fall back to
// a per-bit test. `hash_one` is never called for a null row, so dict
// hashers can index pre-hash tables without a kNullCode guard.
template <typename HashOne>
inline void HashWordWise(const ValidityBitmap& valid, uint64_t* hashes,
                         size_t begin, size_t end, HashOne&& hash_one) {
  const uint64_t* vw = valid.words();
  size_t i = begin;
  while (i < end) {
    const size_t w = i >> 6;
    const size_t word_end = std::min(end, (w + 1) * 64);
    const uint64_t word = vw[w];
    if (word == ~0ULL) {
      for (; i < word_end; ++i) {
        hashes[i - begin] = hash_one(i, hashes[i - begin]);
      }
    } else {
      for (; i < word_end; ++i) {
        uint64_t h = hashes[i - begin];
        hashes[i - begin] = ((word >> (i & 63)) & 1)
                                ? hash_one(i, h)
                                : MixHash(h, kNullHashPayload);
      }
    }
  }
}
}  // namespace

void Column::HashIntoRange(uint64_t* hashes, size_t begin, size_t end) const {
  // An empty string column may have no dict yet.
  if (begin == end) return;
  switch (type_) {
    case ValueType::kString: {
      // One pre-hash load + mix per row; no byte loop.
      const int32_t* cp = codes_.data();
      const uint64_t* ph = dict_->hash_data();
      if (valid_.empty()) {
        for (size_t i = begin; i < end; ++i) {
          hashes[i - begin] = MixHash(hashes[i - begin], ph[cp[i]]);
        }
      } else {
        HashWordWise(valid_, hashes, begin, end, [&](size_t i, uint64_t h) {
          return MixHash(h, ph[cp[i]]);
        });
      }
      break;
    }
    case ValueType::kFloat64: {
      const auto hash_double = [&](size_t i, uint64_t h) {
        double d = doubles_[i];
        if (d == 0.0) d = 0.0;  // normalize -0.0
        uint64_t bits;
        __builtin_memcpy(&bits, &d, sizeof(bits));
        return MixHash(h, bits);
      };
      if (valid_.empty()) {
        for (size_t i = begin; i < end; ++i) {
          hashes[i - begin] = hash_double(i, hashes[i - begin]);
        }
      } else {
        HashWordWise(valid_, hashes, begin, end, hash_double);
      }
      break;
    }
    default:
      if (valid_.empty()) {
        for (size_t i = begin; i < end; ++i) {
          hashes[i - begin] =
              MixHash(hashes[i - begin], static_cast<uint64_t>(ints_[i]));
        }
      } else {
        HashWordWise(valid_, hashes, begin, end, [&](size_t i, uint64_t h) {
          return MixHash(h, static_cast<uint64_t>(ints_[i]));
        });
      }
      break;
  }
}

std::vector<uint64_t> Column::TruthWords(const Column& pred) {
  CheckArg(IsIntPhysical(pred.type_), "truth value of a non-bool column");
  const size_t n = pred.size();
  const int64_t* v = pred.ints_.data();
  // Values pack first, then the validity bitmap ANDs in one op per 64
  // rows (its padding bits are 1, so the zero tail stays zero).
  std::vector<uint64_t> truth(ValidityBitmap::WordsFor(n));
  PackBits(n, [v](size_t i) { return v[i] != 0; }, truth.data());
  if (!pred.valid_.empty()) {
    const uint64_t* mw = pred.valid_.words();
    for (size_t w = 0; w < truth.size(); ++w) truth[w] &= mw[w];
  }
  return truth;
}

std::vector<uint32_t> Column::SelectionFromTruth(
    const std::vector<uint64_t>& truth) {
  size_t count = 0;
  for (uint64_t w : truth) count += static_cast<size_t>(PopCount64(w));
  // Popcount-sized output, ctz iteration: one branchless emit per
  // selected row, skipping empty words entirely.
  std::vector<uint32_t> sel(count);
  size_t out = 0;
  for (size_t w = 0; w < truth.size(); ++w) {
    uint64_t word = truth[w];
    const uint32_t base = static_cast<uint32_t>(w << 6);
    while (word != 0) {
      sel[out++] = base + static_cast<uint32_t>(CountTrailingZeros64(word));
      word &= word - 1;
    }
  }
  return sel;
}

size_t Column::ByteSize() const {
  size_t bytes = ints_.capacity() * sizeof(int64_t) +
                 doubles_.capacity() * sizeof(double) +
                 codes_.capacity() * sizeof(int32_t) + valid_.CapacityBytes();
  if (dict_ != nullptr) bytes += dict_->ShareBytes(codes_.size());
  return bytes;
}

}  // namespace wake
