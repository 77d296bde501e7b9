// Malformed-input tests for the wakeblock reader: every corruption —
// truncation, forged lengths and row counts, flipped payload bytes,
// out-of-range dictionary codes — must surface as wake::Error, never as a
// crash, out-of-bounds read, or unbounded allocation (the ASAN CI job
// runs these too).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/error.h"
#include "common/wire.h"
#include "storage/partitioned_table.h"
#include "storage/wakeblock.h"

namespace wake {
namespace {

class WakeblockFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wake_wbfuzz_" + std::to_string(::getpid()));
    Schema schema({{"k", ValueType::kInt64},
                   {"f", ValueType::kFloat64},
                   {"s", ValueType::kString}});
    DataFrame df(schema);
    for (int i = 0; i < 500; ++i) {
      df.mutable_column(0)->AppendInt(i);
      if (i % 9 == 0) {
        df.mutable_column(1)->AppendNull();
      } else {
        df.mutable_column(1)->AppendDouble(i * 0.5);
      }
      df.mutable_column(2)->AppendString("v" + std::to_string(i % 7));
    }
    wakeblock::WriteOptions opts;
    opts.block_rows = 64;
    wakeblock::Write(PartitionedTable::FromDataFrame("t", df, 2),
                     dir_.string(), opts);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& file) const {
    return (dir_ / "t" / file).string();
  }

  static std::string Load(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

  static void Store(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Open + decode everything; corruptions must throw before or during.
  void ExpectRejected() {
    EXPECT_THROW(
        {
          auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
          for (size_t b = 0; b < bt->num_blocks(); ++b) {
            bt->ReadBlock(b, {});
          }
        },
        Error);
  }

  std::filesystem::path dir_;
};

TEST_F(WakeblockFuzzTest, IntactTableDecodes) {
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
  size_t rows = 0;
  for (size_t b = 0; b < bt->num_blocks(); ++b) {
    rows += bt->ReadBlock(b, {})->num_rows();
  }
  EXPECT_EQ(rows, 500u);
}

TEST_F(WakeblockFuzzTest, TruncatedMetaRejected) {
  std::string meta = Load(Path("table.meta"));
  for (size_t keep : {size_t{0}, size_t{4}, size_t{8}, meta.size() / 2,
                      meta.size() - 1}) {
    Store(Path("table.meta"), meta.substr(0, keep));
    ExpectRejected();
  }
}

TEST_F(WakeblockFuzzTest, MetaMagicAndCrcRejected) {
  std::string meta = Load(Path("table.meta"));
  std::string bad = meta;
  bad[0] ^= 0x5a;  // magic
  Store(Path("table.meta"), bad);
  ExpectRejected();
  bad = meta;
  bad[bad.size() / 2] ^= 0x01;  // payload byte -> CRC mismatch
  Store(Path("table.meta"), bad);
  ExpectRejected();
}

TEST_F(WakeblockFuzzTest, TruncatedColumnFileRejected) {
  std::string col = Load(Path("k.col"));
  for (size_t keep :
       {size_t{0}, size_t{7}, col.size() / 2, col.size() - 1}) {
    Store(Path("k.col"), col.substr(0, keep));
    ExpectRejected();
  }
}

TEST_F(WakeblockFuzzTest, ColumnMagicAndTypeRejected) {
  std::string col = Load(Path("f.col"));
  std::string bad = col;
  bad[0] ^= 0xff;  // magic
  Store(Path("f.col"), bad);
  ExpectRejected();
  bad = col;
  bad[5] ^= 0x03;  // declared type disagrees with the meta schema
  Store(Path("f.col"), bad);
  ExpectRejected();
}

// Flip one byte at every offset of a column file: whatever it hits —
// header, synopsis, validity, payload, CRC — the reader must either
// throw or (for the synopsis bytes, which are advisory) still decode;
// it must never crash or read out of bounds.
TEST_F(WakeblockFuzzTest, SingleByteFlipsNeverCrash) {
  std::string col = Load(Path("s.col"));
  for (size_t off = 0; off < col.size(); ++off) {
    std::string bad = col;
    bad[off] ^= 0xa5;
    Store(Path("s.col"), bad);
    try {
      auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
      for (size_t b = 0; b < bt->num_blocks(); ++b) {
        bt->ReadBlock(b, {});
      }
    } catch (const Error&) {
      // rejected: fine
    }
  }
}

TEST_F(WakeblockFuzzTest, ForgedRowCountRejected) {
  // Block headers start right after the 8-byte column file header for the
  // first block (no dict page on int columns); rows is the first u32.
  std::string col = Load(Path("k.col"));
  ASSERT_GT(col.size(), 12u);
  for (uint32_t forged : {0u, 1u, 0xFFFFFFFFu, 1u << 23}) {
    std::string bad = col;
    bad[8] = static_cast<char>(forged & 0xff);
    bad[9] = static_cast<char>((forged >> 8) & 0xff);
    bad[10] = static_cast<char>((forged >> 16) & 0xff);
    bad[11] = static_cast<char>((forged >> 24) & 0xff);
    Store(Path("k.col"), bad);
    ExpectRejected();
  }
}

TEST_F(WakeblockFuzzTest, OutOfRangeDictCodeRejected) {
  // Corrupt the first string block's payload bytes while keeping lengths
  // intact, then fix up nothing: the CRC rejects it. The two tests below
  // recompute the CRC, so the code checks behind it must throw.
  std::string col = Load(Path("s.col"));
  // Find the dict page length to locate the first block.
  ASSERT_GT(col.size(), 16u);
  auto u32 = [&](size_t at) {
    return static_cast<uint32_t>(static_cast<uint8_t>(col[at])) |
           (static_cast<uint32_t>(static_cast<uint8_t>(col[at + 1])) << 8) |
           (static_cast<uint32_t>(static_cast<uint8_t>(col[at + 2])) << 16) |
           (static_cast<uint32_t>(static_cast<uint8_t>(col[at + 3])) << 24);
  };
  uint32_t page_len = u32(12);  // count u32 at 8, page_len u32 at 12
  size_t block0 = 8 + 12 + page_len;
  ASSERT_LT(block0 + 40, col.size());
  // Flip high bits throughout the payload: codes leave the dict range.
  std::string bad = col;
  for (size_t i = block0 + 40; i < bad.size(); ++i) bad[i] ^= 0x7f;
  Store(Path("s.col"), bad);
  ExpectRejected();
}

// The first string block, forged past its CRC: the bit-pack base (the
// payload's first 8 bytes) is replaced by `base`, and the header's CRC
// recomputed over the new body, so only the decoder's own checks stand
// between the forged codes and the dictionary.
void ForgeFirstStringBlockBase(std::string* col, int64_t base) {
  auto u32 = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, col->data() + at, sizeof(v));
    return v;
  };
  const size_t block0 = 8 + 12 + u32(12);  // file header, dict page
  ASSERT_EQ((*col)[block0 + 4], 2) << "fixture block is not bit-packed";
  const size_t body = block0 + 40;
  const size_t body_len = u32(block0 + 28) + u32(block0 + 32);
  const size_t payload = body + u32(block0 + 28);
  std::memcpy(col->data() + payload, &base, sizeof(base));
  uint32_t crc = wire::Crc32(col->data() + body, body_len);
  std::memcpy(col->data() + block0 + 36, &crc, sizeof(crc));
}

// Runs `read`, expecting a kProtocol Error whose message names `what`.
template <typename Read>
void ExpectProtocolError(Read read, const std::string& what) {
  try {
    read();
    ADD_FAILURE() << "no error; expected " << what;
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kProtocol) << e.what();
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST_F(WakeblockFuzzTest, ForgedDictCodeWithValidCrcRejected) {
  // Seven entries (codes 0-6), so a base of 7 puts every code past the
  // dictionary.
  std::string col = Load(Path("s.col"));
  ForgeFirstStringBlockBase(&col, 7);
  Store(Path("s.col"), col);
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
  ExpectProtocolError([&] { bt->ReadBlock(0, {"s"}); },
                      "dictionary code out of range");
}

TEST_F(WakeblockFuzzTest, NullCodeOnValidRowWithValidCrcRejected) {
  // A base of -1 turns code 0 into the null code on a row the (absent)
  // validity mask calls valid; every other code stays in range.
  std::string col = Load(Path("s.col"));
  ForgeFirstStringBlockBase(&col, -1);
  Store(Path("s.col"), col);
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
  ExpectProtocolError([&] { bt->ReadBlock(0, {"s"}); },
                      "null code on a valid row");
}

TEST_F(WakeblockFuzzTest, DictionaryPageCorruptedAfterOpenFailsItsFirstRead) {
  // Open validated the page but kept only its extent and CRC; the first
  // read that needs the dictionary reads the page again and checks it.
  // The other columns never touch the page.
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
  std::string col = Load(Path("s.col"));
  col[8 + 12 + 5] ^= 0x01;  // a byte of the first entry, "v0"
  Store(Path("s.col"), col);
  for (size_t b = 0; b < bt->num_blocks(); ++b) {
    EXPECT_GT(bt->ReadBlock(b, {"k", "f"})->num_rows(), 0u);
  }
  ExpectProtocolError([&] { bt->ReadBlock(0, {"s"}); },
                      "dictionary CRC mismatch");
  // String-equality pruning needs the dictionary too, and the failed
  // load left nothing behind for it to use.
  ExpectProtocolError(
      [&] {
        bt->ReadBlock(0, {"k"}, Eq(Expr::Col("s"), Expr::Str("v1")));
      },
      "dictionary CRC mismatch");
}

TEST_F(WakeblockFuzzTest, DuplicateDictEntryWithValidCrcRejectedAtOpen) {
  // The page holds "v0".."v6" as (u32 length, bytes) entries from byte
  // 20; the second entry becomes a copy of the first, and the page CRC is
  // recomputed, so only Open's duplicate check stands in the way.
  std::string col = Load(Path("s.col"));
  uint32_t page_len;
  std::memcpy(&page_len, col.data() + 12, sizeof(page_len));
  ASSERT_EQ(col.substr(26, 6), std::string("\x02\0\0\0v1", 6));
  col[31] = '0';
  uint32_t crc = wire::Crc32(col.data() + 20, page_len);
  std::memcpy(col.data() + 16, &crc, sizeof(crc));
  Store(Path("s.col"), col);
  ExpectProtocolError([&] { wakeblock::BlockTable::Open(dir_.string(), "t"); },
                      "duplicate dictionary entry");
}

TEST_F(WakeblockFuzzTest, ColumnFileTruncatedAfterOpenRejected) {
  // Open validated the full file; a later read of a block that is gone
  // must throw, not decode stale or missing bytes.
  auto bt = wakeblock::BlockTable::Open(dir_.string(), "t");
  std::filesystem::resize_file(Path("k.col"),
                               std::filesystem::file_size(Path("k.col")) / 2);
  ExpectProtocolError(
      [&] {
        for (size_t b = 0; b < bt->num_blocks(); ++b) bt->ReadBlock(b, {"k"});
      },
      "truncated read");
}

TEST_F(WakeblockFuzzTest, MissingColumnFileRejected) {
  std::filesystem::remove(Path("f.col"));
  EXPECT_THROW(wakeblock::BlockTable::Open(dir_.string(), "t"), Error);
}

TEST_F(WakeblockFuzzTest, MissingTableRejected) {
  EXPECT_THROW(wakeblock::BlockTable::Open(dir_.string(), "ghost"), Error);
  EXPECT_THROW(PartitionedTable::OpenWakeblock(dir_.string(), "ghost"), Error);
}

}  // namespace
}  // namespace wake
