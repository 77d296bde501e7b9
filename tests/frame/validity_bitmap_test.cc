// ValidityBitmap: word-packed null masks. Edge cases around the 64-bit
// word boundary (lengths 1/63/64/65/...), lazy allocation (empty ==
// all-valid), the padding invariant (bits past size() always set),
// unaligned Slice/AppendBitmap splices, packed-byte round trips, and a
// property test checking the bitmap-backed Column kernels against a
// byte-per-row reference model.
#include "frame/validity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "frame/column.h"

namespace wake {
namespace {

// Reference model: one byte per row, 1 = valid.
std::vector<uint8_t> ToModel(const ValidityBitmap& v, size_t n) {
  std::vector<uint8_t> m(n, 1);
  for (size_t i = 0; i < n; ++i) m[i] = v.empty() ? 1 : (v.Get(i) ? 1 : 0);
  return m;
}

ValidityBitmap FromModel(const std::vector<uint8_t>& m) {
  return ValidityBitmap::FromBoolBytes(m.data(), m.size());
}

TEST(ValidityBitmapTest, EmptyMeansAllValid) {
  ValidityBitmap v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.bits(), 0u);
  EXPECT_EQ(v.CountNulls(), 0u);
  EXPECT_TRUE(v.AllValid());
}

TEST(ValidityBitmapTest, NonMultipleOf64Lengths) {
  for (size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 200u, 1000u}) {
    ValidityBitmap v = ValidityBitmap::AllValid(n);
    EXPECT_EQ(v.bits(), n);
    EXPECT_EQ(v.num_words(), (n + 63) / 64);
    EXPECT_TRUE(v.AllValid()) << n;
    EXPECT_EQ(v.CountNulls(), 0u) << n;
    // Null out the last row only: the padding bits past n must not leak
    // into the count, and AllValid must flip exactly then.
    v.SetNull(n - 1);
    EXPECT_FALSE(v.AllValid()) << n;
    EXPECT_EQ(v.CountNulls(), 1u) << n;
    EXPECT_FALSE(v.Get(n - 1));
    if (n > 1) EXPECT_TRUE(v.Get(n - 2));
    v.SetValid(n - 1);
    EXPECT_TRUE(v.AllValid()) << n;
  }
}

TEST(ValidityBitmapTest, AllNullMask) {
  const size_t n = 130;
  ValidityBitmap v = ValidityBitmap::AllValid(n);
  for (size_t i = 0; i < n; ++i) v.SetNull(i);
  EXPECT_EQ(v.CountNulls(), n);
  EXPECT_FALSE(v.AllValid());
  for (size_t i = 0; i < n; ++i) EXPECT_FALSE(v.Get(i));
  // Padding stays set even when every real bit is clear.
  EXPECT_EQ(v.words()[v.num_words() - 1] >> (n % 64), ~0ULL >> (n % 64));
}

TEST(ValidityBitmapTest, AppendBitPadsNewWordsValid) {
  ValidityBitmap v;
  for (size_t i = 0; i < 150; ++i) v.Append(i % 3 != 0);
  EXPECT_EQ(v.bits(), 150u);
  for (size_t i = 0; i < 150; ++i) EXPECT_EQ(v.Get(i), i % 3 != 0) << i;
  EXPECT_EQ(v.CountNulls(), 50u);
}

TEST(ValidityBitmapTest, AppendAllValidThenNulls) {
  ValidityBitmap v;
  v.AppendAllValid(70);
  EXPECT_EQ(v.bits(), 70u);
  EXPECT_TRUE(v.AllValid());
  v.Append(false);
  EXPECT_EQ(v.bits(), 71u);
  EXPECT_EQ(v.CountNulls(), 1u);
  EXPECT_FALSE(v.Get(70));
}

TEST(ValidityBitmapTest, SliceAtUnalignedOffsets) {
  const size_t n = 300;
  std::vector<uint8_t> model(n);
  std::mt19937_64 rng(7);
  for (size_t i = 0; i < n; ++i) model[i] = (rng() % 4 != 0) ? 1 : 0;
  ValidityBitmap v = FromModel(model);
  for (size_t begin : {0u, 1u, 63u, 64u, 65u, 100u, 191u, 192u, 193u}) {
    for (size_t len : {0u, 1u, 5u, 63u, 64u, 65u, 107u}) {
      if (begin + len > n) continue;
      ValidityBitmap s = v.Slice(begin, begin + len);
      EXPECT_EQ(s.bits(), len);
      for (size_t i = 0; i < len; ++i) {
        EXPECT_EQ(s.Get(i), model[begin + i] != 0)
            << "begin=" << begin << " len=" << len << " i=" << i;
      }
      // The slice must satisfy the padding invariant too.
      EXPECT_EQ(s.CountNulls(), static_cast<size_t>(std::count(
                                    model.begin() + begin,
                                    model.begin() + begin + len, 0)));
    }
  }
}

TEST(ValidityBitmapTest, AppendBitmapAtUnalignedOffsets) {
  std::mt19937_64 rng(11);
  for (size_t left_n : {0u, 1u, 37u, 64u, 65u, 130u}) {
    for (size_t right_n : {0u, 1u, 50u, 64u, 100u, 200u}) {
      std::vector<uint8_t> lm(left_n), rm(right_n);
      for (auto& b : lm) b = (rng() % 3 != 0) ? 1 : 0;
      for (auto& b : rm) b = (rng() % 3 != 0) ? 1 : 0;
      ValidityBitmap v = FromModel(lm);
      v.AppendBitmap(FromModel(rm));
      ASSERT_EQ(v.bits(), left_n + right_n);
      for (size_t i = 0; i < left_n; ++i) {
        EXPECT_EQ(v.Get(i), lm[i] != 0) << left_n << "+" << right_n;
      }
      for (size_t i = 0; i < right_n; ++i) {
        EXPECT_EQ(v.Get(left_n + i), rm[i] != 0) << left_n << "+" << right_n;
      }
    }
  }
}

TEST(ValidityBitmapTest, PackedBytesRoundTrip) {
  for (size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    std::vector<uint8_t> model(n);
    std::mt19937_64 rng(n);
    for (auto& b : model) b = (rng() % 2) ? 1 : 0;
    ValidityBitmap v = FromModel(model);
    std::vector<uint8_t> packed((n + 7) / 8);
    v.ToPackedBytes(packed.data());
    ValidityBitmap back = ValidityBitmap::FromPackedBytes(packed.data(), n);
    EXPECT_EQ(v, back) << n;
    // Bit order matches the wakeblock layout: bits[r/8] >> (r%8).
    for (size_t r = 0; r < n; ++r) {
      EXPECT_EQ((packed[r / 8] >> (r % 8)) & 1, model[r]) << n << ":" << r;
    }
  }
}

TEST(ValidityBitmapTest, FromPackedBytesNormalizesForgedPadding) {
  // Trailing bits in the last byte past n are meaningless on disk; a
  // forged (zeroed or random) tail must not corrupt CountNulls/AllValid.
  const size_t n = 10;  // 2 bytes, 6 padding bits
  std::vector<uint8_t> packed = {0xff, 0x03};  // all 10 rows valid
  ValidityBitmap clean = ValidityBitmap::FromPackedBytes(packed.data(), n);
  EXPECT_TRUE(clean.AllValid());
  packed[1] = 0xc3;  // forge two padding bits high... still all valid
  EXPECT_TRUE(ValidityBitmap::FromPackedBytes(packed.data(), n).AllValid());
  packed[1] = 0x02;  // row 8 null, padding zero
  ValidityBitmap v = ValidityBitmap::FromPackedBytes(packed.data(), n);
  EXPECT_EQ(v.CountNulls(), 1u);
  EXPECT_FALSE(v.Get(8));
  // ToPackedBytes emits canonical zero padding regardless of input tail.
  std::vector<uint8_t> out(2, 0xaa);
  v.ToPackedBytes(out.data());
  EXPECT_EQ(out[1], 0x02);
}

TEST(ValidityBitmapTest, BoolBytesRoundTrip) {
  std::vector<uint8_t> model = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 1};
  ValidityBitmap v = FromModel(model);
  std::vector<uint8_t> out(model.size(), 9);
  v.ToBoolBytes(out.data());
  EXPECT_EQ(out, model);
  EXPECT_EQ(v.CountNulls(), 5u);
}

// ---------------------------------------------------------------------------
// Column-level behavior: lazy allocation and the byte-model property test.
// ---------------------------------------------------------------------------

TEST(ValidityBitmapColumnTest, LazyAllocationContract) {
  Column c = Column::FromInts({1, 2, 3});
  EXPECT_TRUE(c.validity().empty());  // never touched => no allocation
  EXPECT_FALSE(c.has_nulls());
  c.SetNull(1);
  EXPECT_FALSE(c.validity().empty());
  EXPECT_TRUE(c.IsNull(1));
  c.mutable_validity()->SetValid(1);
  c.CompactValidity();
  EXPECT_TRUE(c.validity().empty());  // all-valid compacts back to lazy
}

// Random columns with nulls pushed through the gather/filter/append/hash
// kernels; every step is checked against a byte-per-row reference model.
TEST(ValidityBitmapColumnTest, PropertyPackedMatchesByteModel) {
  std::mt19937_64 rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const size_t n = 100 + static_cast<size_t>(rng() % 400);
    std::vector<int64_t> ints(n);
    std::vector<uint8_t> model(n);
    for (size_t i = 0; i < n; ++i) {
      ints[i] = static_cast<int64_t>(rng() % 1000);
      model[i] = (rng() % 5 != 0) ? 1 : 0;
    }
    Column col = Column::FromInts(ints);
    for (size_t i = 0; i < n; ++i) {
      if (!model[i]) col.SetNull(i);
    }

    // IsNull agrees with the model.
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(col.IsNull(i), model[i] == 0) << trial << ":" << i;
    }

    // Take: gathered rows carry gathered validity.
    std::vector<uint32_t> idx;
    for (size_t i = 0; i < n; ++i) {
      if (rng() % 2) idx.push_back(static_cast<uint32_t>(rng() % n));
    }
    Column taken = col.Take(idx);
    ASSERT_EQ(taken.size(), idx.size());
    for (size_t i = 0; i < idx.size(); ++i) {
      ASSERT_EQ(taken.IsNull(i), model[idx[i]] == 0) << trial << ":" << i;
    }

    // FilterBy: kept rows carry their validity.
    std::vector<uint8_t> mask(n);
    for (auto& b : mask) b = (rng() % 2) ? 1 : 0;
    Column filtered = col.FilterBy(mask);
    size_t out = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      ASSERT_EQ(filtered.IsNull(out), model[i] == 0) << trial << ":" << i;
      ++out;
    }
    ASSERT_EQ(filtered.size(), out);

    // SelectionFrom treats null mask rows as not-selected.
    Column pred = Column::FromInts(std::vector<int64_t>(mask.begin(),
                                                        mask.end()));
    pred.SetNull(0);
    std::vector<uint32_t> sel = Column::SelectionFrom(pred);
    std::vector<uint32_t> want;
    for (size_t i = 1; i < n; ++i) {
      if (mask[i]) want.push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(sel, want) << trial;

    // AppendColumn at an unaligned length: both halves keep their masks.
    Column appended = col.Slice(0, n / 3);
    appended.AppendColumn(col.Slice(n / 3, n));
    ASSERT_EQ(appended.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(appended.IsNull(i), model[i] == 0) << trial << ":" << i;
    }

    // HashInto (batch, word-wise) == HashRow (per row).
    std::vector<uint64_t> hashes(n, 0x9e3779b97f4a7c15ULL);
    std::vector<uint64_t> expect = hashes;
    col.HashInto(hashes.data(), n);
    for (size_t i = 0; i < n; ++i) {
      expect[i] = col.HashRow(i, expect[i]);
    }
    ASSERT_EQ(hashes, expect) << trial;

    // Slice at unaligned offsets preserves the model.
    const size_t b = 1 + static_cast<size_t>(rng() % (n - 1));
    Column sliced = col.Slice(b, n);
    for (size_t i = b; i < n; ++i) {
      ASSERT_EQ(sliced.IsNull(i - b), model[i] == 0) << trial << ":" << i;
    }
  }
}

// The same property for string columns, whose hash kernel takes the
// pre-hashed-dictionary path.
TEST(ValidityBitmapColumnTest, DictHashBatchMatchesPerRow) {
  std::vector<std::string> vals;
  for (int i = 0; i < 300; ++i) vals.push_back("k" + std::to_string(i % 17));
  Column dict = Column::FromStrings(vals);
  for (size_t i = 0; i < vals.size(); i += 7) dict.SetNull(i);
  std::vector<uint64_t> hashes(vals.size(), 5);
  std::vector<uint64_t> expect(vals.size(), 5);
  dict.HashInto(hashes.data(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    expect[i] = dict.HashRow(i, expect[i]);
  }
  EXPECT_EQ(hashes, expect);
}

}  // namespace
}  // namespace wake
