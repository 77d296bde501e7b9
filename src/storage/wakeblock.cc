#include "storage/wakeblock.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_set>

#include "common/error.h"
#include "common/wire.h"
#include "storage/partitioned_table.h"

namespace wake {
namespace wakeblock {

namespace {

constexpr uint32_t kMetaMagic = 0x574B4D31;  // "WKM1"
constexpr uint32_t kColMagic = 0x574B4331;   // "WKC1"
constexpr uint8_t kFormatVersion = 1;
constexpr size_t kColFileHeaderBytes = 8;
constexpr size_t kBlockHeaderBytes = 40;
constexpr size_t kMaxColumns = 1024;

// Value payload encodings.
constexpr uint8_t kEncodingRaw = 0;      // rows x 8 bytes, host-endian
constexpr uint8_t kEncodingRle = 1;      // (i64 value, u32 run) pairs
constexpr uint8_t kEncodingBitpack = 2;  // i64 base, u8 width, packed bits
constexpr uint8_t kFlagHasMinMax = 1;

// The raw encoding stores host-endian words and the bit-pack decoder
// loads little-endian ones, so both agree only on a little-endian host.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wakeblock reads and writes little-endian words");

[[noreturn]] void Fail(const std::string& msg) {
  throw Error("wakeblock: " + msg, ErrorCategory::kProtocol);
}

void Check(bool ok, const char* msg) {
  if (!ok) Fail(msg);
}

// Fails with "<msg> in <path>". The message is built only on failure:
// reads check every block of every column.
void Check(bool ok, const char* msg, const std::string& path) {
  if (!ok) Fail(std::string(msg) + " in " + path);
}

uint64_t F64Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double BitsF64(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

size_t ValidityBytes(size_t rows) { return (rows + 7) / 8; }

// ---------------------------------------------------------------------------
// Bit packing (LSB-first within and across bytes)
// ---------------------------------------------------------------------------

void PackBits(const uint64_t* deltas, size_t n, unsigned width,
              std::string* out) {
  size_t bytes = (n * width + 7) / 8;
  size_t start = out->size();
  out->resize(start + bytes, '\0');
  auto* buf = reinterpret_cast<uint8_t*>(&(*out)[start]);
  for (size_t i = 0; i < n; ++i) {
    uint64_t v = deltas[i];
    size_t bit = i * width;
    size_t byte = bit / 8;
    unsigned shift = static_cast<unsigned>(bit % 8);
    // width <= 63, so the value spans at most 9 bytes.
    buf[byte] |= static_cast<uint8_t>(v << shift);
    unsigned written = 8 - shift;
    while (written < width) {
      ++byte;
      buf[byte] |= static_cast<uint8_t>(v >> written);
      written += 8;
    }
  }
}

// ---------------------------------------------------------------------------
// Value encoding: pick the cheapest of raw / RLE / frame-of-reference
// bit-packing for one block of int64 storage values (doubles pass through
// as bit patterns; dict codes as widened int64).
// ---------------------------------------------------------------------------

struct Encoded {
  uint8_t encoding = kEncodingRaw;
  std::string payload;
};

Encoded EncodeValues(const int64_t* v, size_t n) {
  Encoded out;
  if (n == 0) return out;

  size_t runs = 1;
  int64_t min = v[0], max = v[0];
  for (size_t i = 1; i < n; ++i) {
    if (v[i] != v[i - 1]) ++runs;
    min = std::min(min, v[i]);
    max = std::max(max, v[i]);
  }
  // Range as unsigned so full-span int64 data cannot overflow.
  uint64_t range =
      static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
  unsigned width = 0;
  while (width < 64 && (range >> width) != 0) ++width;

  size_t raw_size = n * 8;
  size_t rle_size = runs * 12;
  size_t pack_size = width < 64 ? 9 + (n * width + 7) / 8 : raw_size + 9;

  if (pack_size <= rle_size && pack_size < raw_size) {
    out.encoding = kEncodingBitpack;
    out.payload.reserve(pack_size);
    wire::WireWriter w;
    w.I64(min);
    w.U8(static_cast<uint8_t>(width));
    out.payload = w.Take();
    std::vector<uint64_t> deltas(n);
    for (size_t i = 0; i < n; ++i) {
      deltas[i] = static_cast<uint64_t>(v[i]) - static_cast<uint64_t>(min);
    }
    PackBits(deltas.data(), n, width, &out.payload);
  } else if (rle_size < raw_size) {
    out.encoding = kEncodingRle;
    wire::WireWriter w;
    size_t i = 0;
    while (i < n) {
      size_t j = i + 1;
      while (j < n && v[j] == v[i]) ++j;
      w.I64(v[i]);
      w.U32(static_cast<uint32_t>(j - i));
      i = j;
    }
    out.payload = w.Take();
  } else {
    out.encoding = kEncodingRaw;
    out.payload.assign(reinterpret_cast<const char*>(v), n * 8);
  }
  return out;
}

// Zero bytes that follow every block body in memory. The bit-pack
// decoder loads whole words: up to two 8-byte loads from the byte that
// holds a value's first bit, so a load may reach 15 bytes past the
// payload. The zeros keep it in bounds and read as 0, as bits past the
// payload always have.
constexpr size_t kReadPadding = 16;

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Decodes one block payload straight into out[0, rows): `convert` maps
// each int64 storage value, passed as its bit pattern, to the column's
// element type. `payload` must be followed by kReadPadding readable
// bytes. Bounds: the caller validated payload_len against the real file
// extent, and rows against kMaxBlockRows, before this runs.
template <typename T, typename Convert>
void DecodeValues(uint8_t encoding, const uint8_t* payload, size_t len,
                  size_t rows, Convert convert, T* out) {
  switch (encoding) {
    case kEncodingRaw:
      Check(len == rows * 8, "raw payload length mismatch");
      for (size_t i = 0; i < rows; ++i) {
        out[i] = convert(Load64(payload + i * 8));
      }
      break;
    case kEncodingRle: {
      wire::WireReader r(payload, len);
      size_t filled = 0;
      while (filled < rows) {
        uint64_t value = r.U64();
        uint32_t run = r.U32();
        Check(run > 0 && run <= rows - filled, "RLE run overflows block");
        std::fill(out + filled, out + filled + run, convert(value));
        filled += run;
      }
      Check(r.AtEnd(), "trailing bytes after RLE runs");
      break;
    }
    case kEncodingBitpack: {
      wire::WireReader r(payload, len);
      // Unsigned, as the encoder subtracted it: base + delta wraps
      // instead of overflowing on forged input.
      uint64_t base = r.U64();
      unsigned width = r.U8();
      Check(width < 64, "bad bit-pack width");
      Check(len == 9 + (rows * width + 7) / 8,
            "bit-pack payload length mismatch");
      const uint8_t* bits = payload + 9;
      const uint64_t mask = (uint64_t{1} << width) - 1;
      if (width <= 56) {
        // A value starts at bit shift s <= 7 of its first byte, so one
        // word holds all of its s + width <= 63 bits.
        for (size_t i = 0; i < rows; ++i) {
          size_t bit = i * width;
          uint64_t word = Load64(bits + (bit >> 3));
          out[i] = convert(base + ((word >> (bit & 7)) & mask));
        }
      } else {
        // Up to 70 bits: splice the low bits of the next word in.
        for (size_t i = 0; i < rows; ++i) {
          size_t bit = i * width;
          const uint8_t* p = bits + (bit >> 3);
          unsigned s = static_cast<unsigned>(bit & 7);
          uint64_t lo = Load64(p);
          uint64_t word = s == 0 ? lo : (lo >> s) | (Load64(p + 8) << (64 - s));
          out[i] = convert(base + (word & mask));
        }
      }
      break;
    }
    default:
      Fail("unknown block encoding");
  }
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

// A file opened for positioned reads and closed when it goes out of
// scope. Block reads open one per column block, so no descriptor
// outlives a read. `path` must outlive the object.
class ReadFile {
 public:
  explicit ReadFile(const std::string& path)
      : path_(path), fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC)) {
    if (fd_ < 0) Fail("cannot open " + path);
  }
  ~ReadFile() { ::close(fd_); }
  ReadFile(const ReadFile&) = delete;
  ReadFile& operator=(const ReadFile&) = delete;

  uint64_t Size() const {
    struct stat st;
    Check(::fstat(fd_, &st) == 0, "cannot stat", path_);
    return static_cast<uint64_t>(st.st_size);
  }

  // Reads exactly n bytes at `offset`, retrying on EINTR. A short read
  // (say, of a file truncated after Open) throws kProtocol.
  void ReadAt(uint64_t offset, size_t n, void* out, const char* what) const {
    auto* p = static_cast<char*>(out);
    while (n > 0) {
      ssize_t got = ::pread(fd_, p, n, static_cast<off_t>(offset));
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        Fail(std::string("truncated read of ") + what + " in " + path_);
      }
      p += got;
      offset += static_cast<uint64_t>(got);
      n -= static_cast<size_t>(got);
    }
  }

 private:
  const std::string& path_;
  int fd_;
};

std::string ReadWholeFile(const std::string& path) {
  ReadFile in(path);
  std::string bytes(static_cast<size_t>(in.Size()), '\0');
  in.ReadAt(0, bytes.size(), bytes.data(), "file");
  return bytes;
}

// Reads a dictionary page's entries and checks them against the CRC from
// the page header. Open validates every page through it, and each
// dictionary load reads its page through it again.
std::string ReadDictPage(const ReadFile& in, uint64_t offset, uint32_t len,
                         uint32_t crc, const std::string& path) {
  std::string page(len, '\0');
  in.ReadAt(offset, len, page.data(), "dictionary page");
  Check(wire::Crc32(page.data(), page.size()) == crc,
        "dictionary CRC mismatch", path);
  return page;
}

// Field names double as file names; writers enforce the safe subset.
bool SafeFieldName(const std::string& name) {
  if (name.empty() || name.size() > 128) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

char TypeChar(ValueType t) { return static_cast<char>(t); }

}  // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

struct BlockSpan {
  uint32_t partition;
  size_t begin;
  size_t rows;
};

// True if rows r-1 and r of `df` agree on every clustering column.
bool SameClusterKey(const DataFrame& df, const std::vector<size_t>& cols,
                    size_t r) {
  for (size_t c : cols) {
    if (df.column(c).CompareRows(r - 1, df.column(c), r) != 0) return false;
  }
  return true;
}

// Splits every partition into blocks of ~block_rows rows. Block
// boundaries respect partition edges and (like FromDataFrame) are pushed
// forward so a clustering-key value never straddles two blocks.
std::vector<BlockSpan> PlanBlocks(const PartitionedTable& table,
                                  size_t block_rows) {
  std::vector<BlockSpan> spans;
  std::vector<size_t> cluster_cols;
  if (table.num_partitions() > 0 && !table.schema().clustering_key().empty()) {
    cluster_cols =
        table.partition(0)->ColumnIndices(table.schema().clustering_key());
  }
  for (size_t p = 0; p < table.num_partitions(); ++p) {
    const DataFrame& df = *table.partition(p);
    size_t n = df.num_rows();
    if (n == 0) {
      // Keep one (empty) block so the partition survives a round trip.
      spans.push_back({static_cast<uint32_t>(p), 0, 0});
      continue;
    }
    size_t begin = 0;
    while (begin < n) {
      size_t end = std::min(begin + block_rows, n);
      if (!cluster_cols.empty()) {
        while (end < n && SameClusterKey(df, cluster_cols, end)) ++end;
      }
      spans.push_back({static_cast<uint32_t>(p), begin, end - begin});
      begin = end;
    }
  }
  return spans;
}

struct BlockSynopsis {
  uint32_t null_count = 0;
  bool has_minmax = false;
  uint64_t min_bits = 0;
  uint64_t max_bits = 0;
};

// One encoded block body: the header fields plus validity+payload bytes.
struct BuiltBlock {
  BlockSynopsis synopsis;
  uint8_t encoding = kEncodingRaw;
  std::string body;  // bit-packed validity then value payload
  uint32_t validity_len = 0;
  uint32_t payload_len = 0;
};

BuiltBlock BuildBlock(const Column& col, ValueType type, size_t begin,
                      size_t rows, const std::vector<int32_t>* codes) {
  BuiltBlock out;
  // Validity first: bit-packed, omitted entirely for all-valid blocks.
  // The column's bitmap shares the on-disk LSB-first layout, so the
  // slice's words serialize directly — popcount for the null count, no
  // per-row loop.
  uint32_t null_count = 0;
  if (col.has_nulls()) {
    ValidityBitmap vslice = col.validity().Slice(begin, begin + rows);
    null_count = static_cast<uint32_t>(vslice.CountNulls());
    out.synopsis.null_count = null_count;
    if (null_count > 0) {
      out.body.assign(ValidityBytes(rows), '\0');
      vslice.ToPackedBytes(reinterpret_cast<uint8_t*>(out.body.data()));
      out.validity_len = static_cast<uint32_t>(out.body.size());
    }
  }

  // Storage values (null slots included so blocks round-trip exactly) and
  // the min/max synopsis over valid rows only.
  std::vector<int64_t> values(rows);
  if (type == ValueType::kString) {
    for (size_t r = 0; r < rows; ++r) values[r] = (*codes)[begin + r];
    // Dict codes carry no value ordering; no min/max synopsis.
  } else if (type == ValueType::kFloat64) {
    const auto& d = col.doubles();
    bool first = true;
    double min = 0, max = 0;
    for (size_t r = 0; r < rows; ++r) {
      values[r] = static_cast<int64_t>(F64Bits(d[begin + r]));
      if (col.IsNull(begin + r)) continue;
      double v = d[begin + r];
      if (first || v < min) min = v;
      if (first || v > max) max = v;
      first = false;
    }
    if (!first) {
      out.synopsis.has_minmax = true;
      out.synopsis.min_bits = F64Bits(min);
      out.synopsis.max_bits = F64Bits(max);
    }
  } else {
    const auto& ints = col.ints();
    bool first = true;
    int64_t min = 0, max = 0;
    for (size_t r = 0; r < rows; ++r) {
      values[r] = ints[begin + r];
      if (col.IsNull(begin + r)) continue;
      int64_t v = ints[begin + r];
      if (first || v < min) min = v;
      if (first || v > max) max = v;
      first = false;
    }
    if (!first) {
      out.synopsis.has_minmax = true;
      out.synopsis.min_bits = static_cast<uint64_t>(min);
      out.synopsis.max_bits = static_cast<uint64_t>(max);
    }
  }

  Encoded enc = EncodeValues(values.data(), rows);
  out.encoding = enc.encoding;
  out.payload_len = static_cast<uint32_t>(enc.payload.size());
  out.body.append(enc.payload);
  return out;
}

void WriteBlockHeader(std::ofstream& out, const BuiltBlock& block,
                      size_t rows) {
  wire::WireWriter w;
  w.U32(static_cast<uint32_t>(rows));
  w.U8(block.encoding);
  w.U8(block.synopsis.has_minmax ? kFlagHasMinMax : 0);
  w.U16(0);
  w.U32(block.synopsis.null_count);
  w.U64(block.synopsis.min_bits);
  w.U64(block.synopsis.max_bits);
  w.U32(block.validity_len);
  w.U32(block.payload_len);
  w.U32(wire::Crc32(block.body.data(), block.body.size()));
  const std::string& bytes = w.buffer();
  CheckArg(bytes.size() == kBlockHeaderBytes, "block header size");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

void Write(const PartitionedTable& table, const std::string& dir,
           const WriteOptions& options) {
  CheckArg(!table.lazy(),
           "wakeblock::Write requires a materialized table (read it "
           "eagerly first)");
  CheckArg(options.block_rows > 0 && options.block_rows <= kMaxBlockRows,
           "block_rows out of range");
  const Schema& schema = table.schema();
  CheckArg(schema.num_fields() > 0 && schema.num_fields() <= kMaxColumns,
           "unsupported column count");
  for (const auto& f : schema.fields()) {
    CheckArg(SafeFieldName(f.name), "field name '" + f.name +
                                        "' is not a safe file name");
  }
  CheckArg(SafeFieldName(table.name()),
           "table name '" + table.name() + "' is not a safe directory name");

  std::string base = dir + "/" + table.name();
  std::filesystem::create_directories(base);
  std::vector<BlockSpan> spans = PlanBlocks(table, options.block_rows);

  std::vector<std::vector<uint64_t>> offsets(schema.num_fields());
  std::vector<uint64_t> file_sizes(schema.num_fields());
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    const Field& field = schema.field(f);
    std::string path = base + "/" + field.name + ".col";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    CheckArg(out.good(), "cannot write " + path);

    wire::WireWriter header;
    header.U32(kColMagic);
    header.U8(kFormatVersion);
    header.U8(static_cast<uint8_t>(field.type));
    header.U16(0);
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.buffer().size()));
    uint64_t pos = kColFileHeaderBytes;

    // String columns: one table-wide dictionary in first-appearance
    // order, written as a page before the blocks; blocks then store codes.
    StringDict dict;
    std::vector<std::vector<int32_t>> codes;
    if (field.type == ValueType::kString) {
      codes.resize(table.num_partitions());
      for (size_t p = 0; p < table.num_partitions(); ++p) {
        const Column& col = table.partition(p)->column(f);
        size_t n = table.partition(p)->num_rows();
        codes[p].reserve(n);
        for (size_t r = 0; r < n; ++r) {
          codes[p].push_back(col.IsNull(r) ? Column::kNullCode
                                           : dict.Intern(col.StringAt(r)));
        }
      }
      wire::WireWriter page;
      for (size_t i = 0; i < dict.size(); ++i) {
        page.Str(dict.At(static_cast<int32_t>(i)));
      }
      wire::WireWriter page_header;
      page_header.U32(static_cast<uint32_t>(dict.size()));
      page_header.U32(static_cast<uint32_t>(page.buffer().size()));
      page_header.U32(wire::Crc32(page.buffer().data(), page.buffer().size()));
      out.write(page_header.buffer().data(),
                static_cast<std::streamsize>(page_header.buffer().size()));
      out.write(page.buffer().data(),
                static_cast<std::streamsize>(page.buffer().size()));
      pos += page_header.buffer().size() + page.buffer().size();
    }

    for (const BlockSpan& span : spans) {
      const Column& col = table.partition(span.partition)->column(f);
      BuiltBlock block = BuildBlock(
          col, field.type, span.begin, span.rows,
          field.type == ValueType::kString ? &codes[span.partition] : nullptr);
      offsets[f].push_back(pos);
      WriteBlockHeader(out, block, span.rows);
      out.write(block.body.data(),
                static_cast<std::streamsize>(block.body.size()));
      pos += kBlockHeaderBytes + block.body.size();
    }
    file_sizes[f] = pos;
    out.flush();
    CheckArg(out.good(), "write failed for " + path);
  }

  // Meta last: it records the offsets collected above. CRC'd like a wire
  // frame so a torn write surfaces at open, not as a bad read later.
  wire::WireWriter payload;
  payload.Str(table.name());
  payload.U32(static_cast<uint32_t>(schema.num_fields()));
  for (const auto& f : schema.fields()) {
    payload.Str(f.name);
    payload.U8(static_cast<uint8_t>(TypeChar(f.type)));
    payload.U8(f.mutable_attr ? 1 : 0);
  }
  payload.U32(static_cast<uint32_t>(schema.primary_key().size()));
  for (const auto& k : schema.primary_key()) payload.Str(k);
  payload.U32(static_cast<uint32_t>(schema.clustering_key().size()));
  for (const auto& k : schema.clustering_key()) payload.Str(k);
  payload.U32(static_cast<uint32_t>(table.num_partitions()));
  payload.U32(static_cast<uint32_t>(options.block_rows));
  payload.U32(static_cast<uint32_t>(spans.size()));
  for (const BlockSpan& s : spans) {
    payload.U32(s.partition);
    payload.U32(static_cast<uint32_t>(s.rows));
  }
  for (size_t f = 0; f < schema.num_fields(); ++f) {
    for (uint64_t off : offsets[f]) payload.U64(off);
    payload.U64(file_sizes[f]);
  }

  std::string meta_path = base + "/table.meta";
  std::ofstream meta(meta_path, std::ios::binary | std::ios::trunc);
  CheckArg(meta.good(), "cannot write " + meta_path);
  wire::WireWriter head;
  head.U32(kMetaMagic);
  head.U8(kFormatVersion);
  head.U32(static_cast<uint32_t>(payload.buffer().size()));
  head.U32(wire::Crc32(payload.buffer().data(), payload.buffer().size()));
  meta.write(head.buffer().data(),
             static_cast<std::streamsize>(head.buffer().size()));
  meta.write(payload.buffer().data(),
             static_cast<std::streamsize>(payload.buffer().size()));
  meta.flush();
  CheckArg(meta.good(), "write failed for " + meta_path);
}

// ---------------------------------------------------------------------------
// Open: parse + validate everything the reader will later rely on
// ---------------------------------------------------------------------------

namespace {

ValueType TypeFromByte(uint8_t b) {
  switch (static_cast<ValueType>(b)) {
    case ValueType::kInt64:
    case ValueType::kFloat64:
    case ValueType::kString:
    case ValueType::kDate:
    case ValueType::kBool:
      return static_cast<ValueType>(b);
  }
  Fail("bad column type byte");
}

}  // namespace

std::shared_ptr<const BlockTable> BlockTable::Open(const std::string& dir,
                                                   const std::string& name) {
  auto table = std::shared_ptr<BlockTable>(new BlockTable());
  table->base_ = dir + "/" + name;
  std::string meta_bytes = ReadWholeFile(table->base_ + "/table.meta");
  wire::WireReader head(meta_bytes);
  Check(head.U32() == kMetaMagic, "bad meta magic");
  Check(head.U8() == kFormatVersion, "unsupported meta version");
  uint32_t payload_len = head.U32();
  uint32_t crc = head.U32();
  head.Require(payload_len, "meta payload");
  const char* payload = meta_bytes.data() + (meta_bytes.size() -
                                             head.remaining());
  Check(head.remaining() == payload_len, "trailing bytes after meta payload");
  Check(wire::Crc32(payload, payload_len) == crc, "meta CRC mismatch");

  wire::WireReader r(payload, payload_len);
  table->name_ = r.Str();
  Check(table->name_ == name, "meta table name mismatch");
  uint32_t num_fields = r.U32();
  Check(num_fields > 0 && num_fields <= kMaxColumns, "bad field count");
  for (uint32_t i = 0; i < num_fields; ++i) {
    std::string fname = r.Str();
    Check(SafeFieldName(fname), "unsafe field name in meta");
    ValueType type = TypeFromByte(r.U8());
    bool mut = r.U8() != 0;
    Check(!table->schema_.HasField(fname), "duplicate field in meta");
    table->schema_.AddField(Field(fname, type, mut));
  }
  auto read_key = [&](const char* what) {
    uint32_t n = r.U32();
    if (n > num_fields) Fail(std::string("bad ") + what + " arity");
    std::vector<std::string> key;
    for (uint32_t i = 0; i < n; ++i) {
      key.push_back(r.Str());
      if (!table->schema_.HasField(key.back())) {
        Fail(std::string(what) + " names unknown field");
      }
    }
    return key;
  };
  table->schema_.set_primary_key(read_key("primary key"));
  table->schema_.set_clustering_key(read_key("clustering key"));
  uint32_t num_partitions = r.U32();
  table->num_partitions_ = num_partitions;
  table->nominal_block_rows_ = r.U32();
  Check(table->nominal_block_rows_ > 0 &&
            table->nominal_block_rows_ <= kMaxBlockRows,
        "bad nominal block size");
  uint32_t num_blocks = r.U32();
  r.Require(static_cast<size_t>(num_blocks) * 8, "block list");
  table->blocks_.reserve(num_blocks);
  uint32_t prev_partition = 0;
  for (uint32_t b = 0; b < num_blocks; ++b) {
    BlockInfo info;
    info.partition = r.U32();
    info.rows = r.U32();
    Check(info.partition < num_partitions, "block partition out of range");
    Check(info.partition >= prev_partition, "block partitions out of order");
    // A block may legitimately exceed the nominal size (clustering-key
    // extension), but never the hard decode-allocation bound.
    Check(info.rows <= kMaxBlockRows, "block row count too large");
    prev_partition = info.partition;
    table->blocks_.push_back(info);
    table->total_rows_ += info.rows;
  }
  Check(num_partitions > 0 || num_blocks == 0, "blocks without partitions");

  table->cols_.resize(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    ColumnInfo& col = table->cols_[f];
    r.Require(static_cast<size_t>(num_blocks + 1) * 8, "offset table");
    col.offsets.reserve(num_blocks);
    uint64_t prev = 0;
    for (uint32_t b = 0; b < num_blocks; ++b) {
      uint64_t off = r.U64();
      Check(off >= kColFileHeaderBytes && (b == 0 || off > prev),
            "block offsets not increasing");
      prev = off;
      col.offsets.push_back(off);
    }
    col.file_size = r.U64();
    Check(num_blocks == 0 || col.file_size > prev, "file size before blocks");
  }
  Check(r.AtEnd(), "trailing bytes in meta payload");

  // Validate every column file: real size, header, dictionary page, and
  // each block header (cached for synopsis pruning).
  for (uint32_t f = 0; f < num_fields; ++f) {
    ColumnInfo& col = table->cols_[f];
    const Field& field = table->schema_.field(f);
    col.path = table->base_ + "/" + field.name + ".col";
    const std::string& path = col.path;
    ReadFile in(path);
    uint64_t real_size = in.Size();
    Check(real_size == col.file_size, "file size mismatch", path);

    uint8_t fh[kColFileHeaderBytes];
    in.ReadAt(0, sizeof(fh), fh, "column file header");
    wire::WireReader fhr(fh, sizeof(fh));
    Check(fhr.U32() == kColMagic, "bad column magic", path);
    Check(fhr.U8() == kFormatVersion, "unsupported column version");
    Check(TypeFromByte(fhr.U8()) == field.type, "column type mismatch", path);
    Check(fhr.U16() == 0, "bad reserved bytes", path);

    uint64_t blocks_start = kColFileHeaderBytes;
    if (field.type == ValueType::kString) {
      uint8_t ph[12];
      Check(real_size >= kColFileHeaderBytes + sizeof(ph),
            "truncated dictionary page", path);
      in.ReadAt(kColFileHeaderBytes, sizeof(ph), ph, "dictionary header");
      wire::WireReader phr(ph, sizeof(ph));
      uint32_t count = phr.U32();
      uint32_t page_len = phr.U32();
      uint32_t page_crc = phr.U32();
      // Both bounds checked against the real on-disk size before the
      // allocation below — a forged length cannot balloon memory.
      Check(page_len <= real_size - kColFileHeaderBytes - sizeof(ph),
            "dictionary page overruns file", path);
      Check(static_cast<uint64_t>(count) * 4 <= page_len,
            "dictionary count overruns page", path);
      col.dict = std::make_unique<DictPage>();
      col.dict->offset = kColFileHeaderBytes + sizeof(ph);
      col.dict->count = count;
      col.dict->len = page_len;
      col.dict->crc = page_crc;
      // Validate the whole page now, so a bad one fails Open, but keep
      // only its extent and CRC: views into the page catch duplicates
      // without interning anything.
      std::string page =
          ReadDictPage(in, col.dict->offset, page_len, page_crc, path);
      std::unordered_set<std::string_view> seen;
      seen.reserve(count);
      wire::WireReader pr(page);
      for (uint32_t i = 0; i < count; ++i) {
        Check(seen.insert(pr.StrView()).second, "duplicate dictionary entry",
              path);
      }
      Check(pr.AtEnd(), "trailing bytes in dictionary page");
      blocks_start = col.dict->offset + page_len;
    }

    col.headers.reserve(col.offsets.size());
    for (size_t b = 0; b < col.offsets.size(); ++b) {
      Check(col.offsets[b] >= blocks_start &&
                col.offsets[b] + kBlockHeaderBytes <= real_size,
            "block header outside file", path);
      uint8_t hb[kBlockHeaderBytes];
      in.ReadAt(col.offsets[b], sizeof(hb), hb, "block header");
      wire::WireReader hr(hb, sizeof(hb));
      BlockHeader h;
      h.rows = hr.U32();
      h.encoding = hr.U8();
      h.flags = hr.U8();
      Check(hr.U16() == 0, "bad reserved block bytes", path);
      h.null_count = hr.U32();
      h.min_bits = hr.U64();
      h.max_bits = hr.U64();
      h.validity_len = hr.U32();
      h.payload_len = hr.U32();
      h.crc = hr.U32();
      Check(h.rows == table->blocks_[b].rows,
            "block row count disagrees with meta", path);
      Check(h.encoding <= kEncodingBitpack, "bad encoding", path);
      Check((h.flags & ~kFlagHasMinMax) == 0, "bad flags", path);
      Check(h.null_count <= h.rows, "null count exceeds rows", path);
      uint32_t expect_validity =
          h.null_count > 0 ? static_cast<uint32_t>(ValidityBytes(h.rows)) : 0;
      Check(h.validity_len == expect_validity, "validity length mismatch",
            path);
      uint64_t end = b + 1 < col.offsets.size() ? col.offsets[b + 1]
                                                : col.file_size;
      Check(col.offsets[b] + kBlockHeaderBytes + h.validity_len +
                    h.payload_len ==
                end,
            "block body does not fill its extent", path);
      col.headers.push_back(h);
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Block decode
// ---------------------------------------------------------------------------

const StringDictPtr& BlockTable::Dict(size_t field) const {
  DictPage& page = *cols_[field].dict;
  if (!page.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(page.mu);
    if (!page.ready.load(std::memory_order_relaxed)) {
      const std::string& path = cols_[field].path;
      std::string bytes =
          ReadDictPage(ReadFile(path), page.offset, page.len, page.crc, path);
      auto dict = std::make_shared<StringDict>();
      dict->Reserve(page.count);
      wire::WireReader pr(bytes);
      for (uint32_t i = 0; i < page.count; ++i) {
        Check(dict->Intern(pr.StrView()) == static_cast<int32_t>(i),
              "duplicate dictionary entry", path);
      }
      Check(pr.AtEnd(), "trailing bytes in dictionary page");
      page.dict = std::move(dict);
      page.ready.store(true, std::memory_order_release);
    }
  }
  return page.dict;
}

Column BlockTable::DecodeColumnBlock(size_t field, size_t b) const {
  const ColumnInfo& info = cols_[field];
  const BlockHeader& h = info.headers[b];
  const size_t rows = h.rows;
  const size_t len = static_cast<size_t>(h.validity_len) + h.payload_len;

  // One positioned read of the body, then the CRC over exactly its bytes.
  std::unique_ptr<uint8_t[]> body(new uint8_t[len + kReadPadding]);
  if (len > 0) {
    ReadFile(info.path).ReadAt(info.offsets[b] + kBlockHeaderBytes, len,
                               body.get(), "block body");
  }
  std::memset(body.get() + len, 0, kReadPadding);
  Check(wire::Crc32(body.get(), len) == h.crc, "block CRC mismatch",
        info.path);

  ValidityBitmap valid;
  if (h.null_count > 0) {
    Check(h.validity_len == ValidityBytes(rows), "validity length mismatch",
          info.path);
    // Packed bytes decode straight into bitmap words (same LSB-first
    // layout); forged trailing bits are normalized away, so the popcount
    // cross-check below sees only logical rows.
    valid = ValidityBitmap::FromPackedBytes(body.get(), rows);
    Check(valid.CountNulls() == h.null_count,
          "validity mask disagrees with null count");
  }
  const uint8_t* payload = body.get() + h.validity_len;

  Column out(schema_.field(field).type);
  switch (out.type()) {
    case ValueType::kString: {
      // A forged code must fail loudly here, never index out of the dict.
      const StringDictPtr& dict = Dict(field);
      const auto size = static_cast<int64_t>(dict->size());
      std::vector<int32_t> codes(rows);
      DecodeValues(
          h.encoding, payload, h.payload_len, rows,
          [&](uint64_t bits) {
            auto code = static_cast<int64_t>(bits);
            if (code < Column::kNullCode || code >= size) {
              Fail("dictionary code out of range in " + info.path);
            }
            return static_cast<int32_t>(code);
          },
          codes.data());
      for (size_t r = 0; r < rows; ++r) {
        if (codes[r] == Column::kNullCode &&
            (h.null_count == 0 || valid.Get(r))) {
          Fail("null code on a valid row in " + info.path);
        }
      }
      return Column::DictFromCodes(dict, std::move(codes), std::move(valid));
    }
    case ValueType::kFloat64: {
      auto& doubles = *out.mutable_doubles();
      doubles.resize(rows);
      DecodeValues(
          h.encoding, payload, h.payload_len, rows,
          [](uint64_t bits) { return BitsF64(bits); }, doubles.data());
      break;
    }
    default: {
      auto& ints = *out.mutable_ints();
      ints.resize(rows);
      DecodeValues(
          h.encoding, payload, h.payload_len, rows,
          [](uint64_t bits) { return static_cast<int64_t>(bits); },
          ints.data());
      break;
    }
  }
  if (h.null_count > 0) out.set_validity(std::move(valid));
  return out;
}

DataFramePtr BlockTable::ReadBlock(size_t b,
                                   const std::vector<std::string>& columns,
                                   const ExprPtr& filter) const {
  CheckArg(b < blocks_.size(), "block index out of range");
  size_t rows = blocks_[b].rows;
  if (filter != nullptr && Refuted(*filter, b)) {
    blocks_skipped_.fetch_add(1, std::memory_order_relaxed);
    rows_skipped_.fetch_add(rows, std::memory_order_relaxed);
    return nullptr;
  }
  Schema narrowed = columns.empty() ? schema_ : schema_.Select(columns);
  auto df = std::make_shared<DataFrame>(narrowed);
  for (size_t c = 0; c < narrowed.num_fields(); ++c) {
    size_t field = schema_.FieldIndex(narrowed.field(c).name);
    *df->mutable_column(c) = DecodeColumnBlock(field, b);
  }
  blocks_read_.fetch_add(1, std::memory_order_relaxed);
  rows_read_.fetch_add(rows, std::memory_order_relaxed);
  return df;
}

// ---------------------------------------------------------------------------
// Synopsis pruning
// ---------------------------------------------------------------------------

namespace {

// Splits a comparison into (column, literal, op-with-column-on-the-left).
bool SplitCompare(const Expr& cmp, const Expr** col, const Value** lit,
                  CompareOp* op) {
  const auto& kids = cmp.children();
  if (kids.size() != 2) return false;
  const Expr& l = *kids[0];
  const Expr& r = *kids[1];
  if (l.kind() == ExprKind::kColumn && r.kind() == ExprKind::kLiteral) {
    *col = &l;
    *lit = &r.literal();
    *op = cmp.cmp_op();
    return true;
  }
  if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kColumn) {
    *col = &r;
    *lit = &l.literal();
    *op = Mirror(cmp.cmp_op());
    return true;
  }
  return false;
}

// Conservative refutation of `op` against a [min, max] range.
template <typename T>
bool RangeRefutes(CompareOp op, T lit, T min, T max) {
  switch (op) {
    case CompareOp::kEq: return lit < min || lit > max;
    case CompareOp::kNe: return min == max && min == lit;
    case CompareOp::kLt: return min >= lit;   // needs some v <  lit
    case CompareOp::kLe: return min > lit;    // needs some v <= lit
    case CompareOp::kGt: return max <= lit;   // needs some v >  lit
    case CompareOp::kGe: return max < lit;    // needs some v >= lit
  }
  return false;
}

}  // namespace

bool BlockTable::CompareRefuted(const Expr& cmp, size_t b) const {
  const Expr* col = nullptr;
  const Value* lit = nullptr;
  CompareOp op = CompareOp::kEq;
  if (!SplitCompare(cmp, &col, &lit, &op)) return false;
  size_t field = schema_.FindField(col->column_name());
  if (field == Schema::npos) return false;
  const BlockHeader& h = cols_[field].headers[b];
  // Comparison with NULL is never true, and a block of only nulls cannot
  // satisfy any comparison.
  if (lit->is_null) return true;
  if (h.null_count == h.rows) return h.rows > 0;

  const Field& spec = schema_.field(field);
  if (spec.type == ValueType::kString) {
    // Codes carry no order, but equality prunes on dictionary absence.
    if (lit->type != ValueType::kString) return false;
    if (op == CompareOp::kEq) {
      return Dict(field)->Find(lit->s) == StringDict::kNotFound;
    }
    return false;
  }
  if (lit->type == ValueType::kString) return false;
  if ((h.flags & kFlagHasMinMax) == 0) return false;
  // A float block's min/max can leave its NaN rows out, yet `NaN <> x`
  // holds: a float range never refutes `<>`. The rule sits in the reader
  // so tables already packed read correctly too.
  if (spec.type == ValueType::kFloat64 && op == CompareOp::kNe) return false;

  if (spec.type == ValueType::kFloat64 || lit->type == ValueType::kFloat64) {
    double min = spec.type == ValueType::kFloat64
                     ? BitsF64(h.min_bits)
                     : static_cast<double>(static_cast<int64_t>(h.min_bits));
    double max = spec.type == ValueType::kFloat64
                     ? BitsF64(h.max_bits)
                     : static_cast<double>(static_cast<int64_t>(h.max_bits));
    return RangeRefutes(op, lit->AsDouble(), min, max);
  }
  return RangeRefutes(op, lit->i, static_cast<int64_t>(h.min_bits),
                      static_cast<int64_t>(h.max_bits));
}

bool BlockTable::Refuted(const Expr& e, size_t b) const {
  switch (e.kind()) {
    case ExprKind::kLogic:
      if (e.logic_op() == LogicOp::kAnd) {
        return Refuted(*e.children()[0], b) || Refuted(*e.children()[1], b);
      }
      return Refuted(*e.children()[0], b) && Refuted(*e.children()[1], b);
    case ExprKind::kCompare:
      return CompareRefuted(e, b);
    case ExprKind::kInList: {
      const Expr& input = *e.children()[0];
      if (input.kind() != ExprKind::kColumn) return false;
      size_t field = schema_.FindField(input.column_name());
      if (field == Schema::npos) return false;
      const BlockHeader& h = cols_[field].headers[b];
      if (h.null_count == h.rows) return h.rows > 0;
      const Field& spec = schema_.field(field);
      for (const Value& v : e.in_list()) {
        if (v.is_null) continue;  // = NULL matches nothing; skip the value
        if (spec.type == ValueType::kString) {
          if (v.type != ValueType::kString) return false;
          if (Dict(field)->Find(v.s) != StringDict::kNotFound) {
            return false;
          }
        } else if ((h.flags & kFlagHasMinMax) == 0 ||
                   v.type == ValueType::kString) {
          return false;
        } else if (spec.type == ValueType::kFloat64 ||
                   v.type == ValueType::kFloat64) {
          double min = spec.type == ValueType::kFloat64
                           ? BitsF64(h.min_bits)
                           : static_cast<double>(
                                 static_cast<int64_t>(h.min_bits));
          double max = spec.type == ValueType::kFloat64
                           ? BitsF64(h.max_bits)
                           : static_cast<double>(
                                 static_cast<int64_t>(h.max_bits));
          if (!RangeRefutes(CompareOp::kEq, v.AsDouble(), min, max)) {
            return false;
          }
        } else if (!RangeRefutes(CompareOp::kEq, v.i,
                                 static_cast<int64_t>(h.min_bits),
                                 static_cast<int64_t>(h.max_bits))) {
          return false;
        }
      }
      return !e.in_list().empty();
    }
    case ExprKind::kIsNull: {
      const Expr& input = *e.children()[0];
      if (input.kind() != ExprKind::kColumn) return false;
      size_t field = schema_.FindField(input.column_name());
      if (field == Schema::npos) return false;
      const BlockHeader& h = cols_[field].headers[b];
      return h.rows > 0 && h.null_count == 0;
    }
    case ExprKind::kNot: {
      const Expr& input = *e.children()[0];
      // NOT (col IS NULL): refuted when every row is null.
      if (input.kind() == ExprKind::kIsNull &&
          input.children()[0]->kind() == ExprKind::kColumn) {
        size_t field = schema_.FindField(input.children()[0]->column_name());
        if (field == Schema::npos) return false;
        const BlockHeader& h = cols_[field].headers[b];
        return h.rows > 0 && h.null_count == h.rows;
      }
      return false;
    }
    default:
      return false;
  }
}

ScanStats BlockTable::stats() const {
  ScanStats s;
  s.blocks_read = blocks_read_.load(std::memory_order_relaxed);
  s.blocks_skipped = blocks_skipped_.load(std::memory_order_relaxed);
  s.rows_read = rows_read_.load(std::memory_order_relaxed);
  s.rows_skipped = rows_skipped_.load(std::memory_order_relaxed);
  return s;
}

void BlockTable::ResetStats() const {
  blocks_read_.store(0, std::memory_order_relaxed);
  blocks_skipped_.store(0, std::memory_order_relaxed);
  rows_read_.store(0, std::memory_order_relaxed);
  rows_skipped_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Catalog helpers
// ---------------------------------------------------------------------------

std::vector<std::string> ListTables(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    if (std::filesystem::exists(entry.path() / "table.meta")) {
      names.push_back(entry.path().filename().string());
    }
  }
  CheckArg(!ec, "cannot list " + dir);
  std::sort(names.begin(), names.end());
  return names;
}

Catalog OpenCatalog(const std::string& dir) {
  Catalog catalog;
  std::vector<std::string> names = ListTables(dir);
  CheckArg(!names.empty(), "no wakeblock tables under " + dir);
  for (const auto& name : names) {
    catalog.Add(std::make_shared<PartitionedTable>(
        PartitionedTable::OpenWakeblock(dir, name)));
  }
  return catalog;
}

}  // namespace wakeblock
}  // namespace wake
