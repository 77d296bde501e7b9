#include "ingest/live_table.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/failpoint.h"
#include "storage/wakeblock.h"

namespace wake {

namespace fs = std::filesystem;

namespace {

// Published tablet directories are "t<8-digit seq>"; the staging name
// hides the tablet until the publishing rename.
std::string TabletDirName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%08llu",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseTabletDirName(const std::string& base, uint64_t* seq) {
  if (base.size() < 2 || base[0] != 't') return false;
  uint64_t v = 0;
  for (size_t i = 1; i < base.size(); ++i) {
    if (base[i] < '0' || base[i] > '9') return false;
    v = v * 10 + static_cast<uint64_t>(base[i] - '0');
  }
  *seq = v;
  return true;
}

bool SchemaMatches(const Schema& a, const Schema& b) {
  if (a.num_fields() != b.num_fields()) return false;
  for (size_t i = 0; i < a.num_fields(); ++i) {
    if (a.field(i).name != b.field(i).name) return false;
    if (a.field(i).type != b.field(i).type) return false;
  }
  return true;
}

// Appends are never checked against a key order, so a live table claims
// no clustering key (the contract in storage/partitioned_table.h).
Schema WithoutClusteringKey(Schema schema) {
  schema.set_clustering_key({});
  return schema;
}

}  // namespace

LiveTable::TabletHolder::~TabletHolder() {
  if (!evicted || dir.empty()) return;
  std::error_code ec;
  fs::remove_all(dir, ec);  // best effort; leftovers re-validate on recovery
}

LiveTable::LiveTable(std::string name, Schema schema, LiveTableOptions options)
    : name_(std::move(name)),
      schema_(WithoutClusteringKey(std::move(schema))),
      options_(std::move(options)) {
  CheckArg(!name_.empty(), "live table name must be non-empty");
  for (char c : name_) {
    CheckArg(std::isalnum(static_cast<unsigned char>(c)) || c == '_',
             "live table name must be [A-Za-z0-9_]: '" + name_ + "'");
  }
  CheckArg(schema_.num_fields() > 0, "live table schema must be non-empty");
  CheckArg(options_.seal_rows > 0 || options_.seal_bytes > 0,
           "at least one seal threshold must be set");
  if (!options_.spill_dir.empty()) RecoverSpillDir();
}

void LiveTable::RecoverSpillDir() {
  const fs::path root(options_.spill_dir);
  fs::create_directories(root);
  std::vector<std::pair<uint64_t, fs::path>> published;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string base = entry.path().filename().string();
    if (base.rfind(".staging", 0) == 0) {
      // A crash mid-flush leaves staging debris; it was never published,
      // so it holds no acknowledged rows — discard it.
      std::error_code ec;
      fs::remove_all(entry.path(), ec);
      continue;
    }
    uint64_t seq = 0;
    if (ParseTabletDirName(base, &seq)) published.emplace_back(seq, entry.path());
  }
  std::sort(published.begin(), published.end());

  for (const auto& [seq, dir] : published) {
    bool opened = false;
    PartitionedTable table;
    try {
      // Open fully validates: meta CRC, file extents, every block header
      // and dictionary page. Torn or corrupt tablets throw kProtocol.
      table = PartitionedTable::OpenWakeblock(dir.string(), name_);
      opened = true;
    } catch (const Error&) {
      const fs::path qdir = root / "quarantine";
      fs::create_directories(qdir);
      std::error_code ec;
      fs::remove_all(qdir / dir.filename(), ec);
      fs::rename(dir, qdir / dir.filename(), ec);
      if (ec) fs::remove_all(dir, ec);  // quarantine failed: drop it
      ++tablets_quarantined_;
    }
    if (!opened) continue;
    // A valid tablet with the wrong shape is a configuration error, not
    // corruption — refuse to start rather than silently quarantine data.
    CheckArg(SchemaMatches(table.schema(), schema_),
             "recovered tablet schema mismatch for live table '" + name_ +
                 "' at " + dir.string());
    auto holder = std::make_shared<TabletHolder>();
    holder->table = std::move(table);
    holder->dir = dir.string();
    ColdTablet cold;
    cold.start_row = rows_appended_;
    cold.rows = holder->table.total_rows();
    cold.seq = seq;
    cold.holder = std::move(holder);
    rows_appended_ += cold.rows;
    next_seq_ = std::max(next_seq_, seq + 1);
    cold_.push_back(std::move(cold));
    ++tablets_recovered_;
  }
  ApplyRetentionLocked();  // recovered set must respect retention too
}

uint64_t LiveTable::Append(const DataFrame& rows) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rows.num_rows() == 0) return epoch_;
  CheckArg(SchemaMatches(rows.schema(), schema_),
           "append schema mismatch for live table '" + name_ + "'");
  auto chunk = std::make_shared<DataFrame>(rows);  // immutable copy
  for (size_t c = 0; c < chunk->num_columns(); ++c) {
    // A slice of a larger frame shares that frame's whole dictionary:
    // the hot chunk would keep every string of the source alive, and the
    // tablet sealed from it would adopt, and write, all of them. Give
    // such a column a dictionary of its own rows.
    const Column& col = chunk->column(c);
    if (col.is_dict() && col.dict()->size() > col.size()) {
      Column own(ValueType::kString);  // its first append starts a dict
      own.Reserve(col.size());
      for (size_t r = 0; r < col.size(); ++r) {
        if (col.IsNull(r)) {
          own.AppendNull();
        } else {
          own.AppendString(col.StringAt(r));
        }
      }
      *chunk->mutable_column(c) = std::move(own);
    }
  }
  hot_rows_ += chunk->num_rows();
  hot_bytes_ += chunk->ByteSize();
  rows_appended_ += chunk->num_rows();
  hot_chunks_.push_back(std::move(chunk));
  const bool seal =
      (options_.seal_rows > 0 && hot_rows_ >= options_.seal_rows) ||
      (options_.seal_bytes > 0 && hot_bytes_ >= options_.seal_bytes);
  if (seal) SealHotLocked();
  return ++epoch_;
}

uint64_t LiveTable::SealHot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (hot_chunks_.empty()) return epoch_;
  SealHotLocked();
  return ++epoch_;
}

void LiveTable::SealHotLocked() {
  // Freeze the hot chunks into one contiguous partition: the sealed
  // tablet covers global rows [start, start + hot_rows_).
  DataFrame frozen(schema_);
  for (const auto& chunk : hot_chunks_) frozen.Append(*chunk);
  const uint64_t start = rows_appended_ - hot_rows_;
  const uint64_t seq = next_seq_++;

  PartitionedTable tablet(name_, schema_);
  tablet.AddPartition(std::make_shared<DataFrame>(std::move(frozen)));

  auto holder = std::make_shared<TabletHolder>();
  bool flushed = false;
  if (!options_.spill_dir.empty()) {
    const fs::path root(options_.spill_dir);
    const fs::path staging = root / (".staging_" + TabletDirName(seq));
    const fs::path final_dir = root / TabletDirName(seq);
    try {
      WAKE_FAILPOINT("ingest.flush");
      std::error_code ec;
      fs::remove_all(staging, ec);
      fs::create_directories(staging);
      // Write into staging, publish with one atomic rename: a crash at
      // any byte of the write leaves no visible tablet.
      wakeblock::Write(tablet, staging.string());
      fs::rename(staging, final_dir);
      // Reopen lazily so cold scans get synopses and block skipping.
      holder->table = PartitionedTable::OpenWakeblock(final_dir.string(), name_);
      holder->dir = final_dir.string();
      flushed = true;
      ++tablets_flushed_;
    } catch (const Error&) {
      // Flush failed: keep the sealed tablet in memory — the rows stay
      // queryable, nothing is lost, only block skipping is forgone.
      std::error_code ec;
      fs::remove_all(staging, ec);
      ++flush_failures_;
    }
  }
  if (!flushed) holder->table = std::move(tablet);

  ColdTablet cold;
  cold.start_row = start;
  cold.rows = hot_rows_;
  cold.seq = seq;
  cold.holder = std::move(holder);
  cold_.push_back(std::move(cold));
  hot_chunks_.clear();
  hot_rows_ = 0;
  hot_bytes_ = 0;
  ApplyRetentionLocked();
}

void LiveTable::ApplyRetentionLocked() {
  if (options_.retain_tablets == 0) return;
  while (cold_.size() > options_.retain_tablets) {
    // Mark evicted; the holder deletes its directory when the last
    // snapshot lease referencing it is released.
    cold_.front().holder->evicted = true;
    rows_evicted_ += cold_.front().rows;
    cold_.erase(cold_.begin());
  }
}

std::vector<LiveTabletRef> LiveTable::SegmentsLocked() const {
  std::vector<LiveTabletRef> out;
  out.reserve(cold_.size() + 1);
  for (const auto& t : cold_) {
    // Aliasing share: the snapshot leases the holder, keeping an evicted
    // tablet's data (and directory) alive until the snapshot dies.
    TablePtr table(t.holder, &t.holder->table);
    out.push_back(LiveTabletRef{std::move(table), t.start_row, t.rows, false});
  }
  if (!hot_chunks_.empty()) {
    auto hot = std::make_shared<PartitionedTable>(name_, schema_);
    for (const auto& chunk : hot_chunks_) hot->AddPartition(chunk);
    out.push_back(LiveTabletRef{std::move(hot), rows_appended_ - hot_rows_,
                                hot_rows_, true});
  }
  return out;
}

TablePtr LiveTable::Snapshot() const { return SnapshotInfo().table; }

LiveSnapshot LiveTable::SnapshotInfo() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveSnapshot snap;
  snap.epoch = epoch_;
  snap.start_row = rows_evicted_;
  snap.end_row = rows_appended_;
  snap.tablets = SegmentsLocked();
  std::vector<TablePtr> segments;
  segments.reserve(snap.tablets.size());
  for (const auto& t : snap.tablets) segments.push_back(t.table);
  snap.table = std::make_shared<PartitionedTable>(
      PartitionedTable::FromSegments(name_, schema_, std::move(segments)));
  return snap;
}

LiveTableStats LiveTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  LiveTableStats s;
  s.epoch = epoch_;
  s.rows_appended = rows_appended_;
  s.rows_evicted = rows_evicted_;
  s.hot_rows = hot_rows_;
  s.hot_chunks = hot_chunks_.size();
  s.cold_tablets = cold_.size();
  s.tablets_flushed = tablets_flushed_;
  s.flush_failures = flush_failures_;
  s.tablets_recovered = tablets_recovered_;
  s.tablets_quarantined = tablets_quarantined_;
  return s;
}

}  // namespace wake
