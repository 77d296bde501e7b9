// Schema: ordered list of named, typed fields plus key metadata.
//
// Wake tracks two key notions per the paper (§3.1, §4.3):
//  - primary key: constant attributes uniquely identifying rows;
//  - clustering key: attributes the rows arrive sorted by (the contract
//    in storage/partitioned_table.h; drives merge-join and
//    local-vs-shuffle aggregation).
// Schemas also record which attributes are *mutable* (their values may
// still change while the edf evolves, §2.3).
#ifndef WAKE_FRAME_SCHEMA_H_
#define WAKE_FRAME_SCHEMA_H_

#include <cstddef>
#include <string>
#include <vector>

#include "frame/value.h"

namespace wake {

/// One named, typed column slot.
struct Field {
  std::string name;
  ValueType type = ValueType::kInt64;
  /// True if values in this attribute may change across edf states (§2.3).
  bool mutable_attr = false;

  Field() = default;
  Field(std::string n, ValueType t, bool mut = false)
      : name(std::move(n)), type(t), mutable_attr(mut) {}

  bool operator==(const Field& other) const {
    return name == other.name && type == other.type;
  }
};

/// Ordered field list with primary/clustering key metadata.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t num_fields() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  Field* mutable_field(size_t i) { return &fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of `name`; throws wake::Error if absent.
  size_t FieldIndex(const std::string& name) const;

  /// Index of `name`, or npos if absent.
  size_t FindField(const std::string& name) const;
  static constexpr size_t npos = static_cast<size_t>(-1);

  bool HasField(const std::string& name) const {
    return FindField(name) != npos;
  }

  void AddField(Field f) { fields_.push_back(std::move(f)); }

  /// Primary key column names (may be empty for raw fact rows).
  const std::vector<std::string>& primary_key() const { return primary_key_; }
  void set_primary_key(std::vector<std::string> key) {
    primary_key_ = std::move(key);
  }

  /// Clustering key column names: rows arrive in non-decreasing order of
  /// these columns (empty = no order promised).
  const std::vector<std::string>& clustering_key() const {
    return clustering_key_;
  }
  void set_clustering_key(std::vector<std::string> key) {
    clustering_key_ = std::move(key);
  }

  /// True if `cols` contains every clustering key column (so a group-by on
  /// `cols` is a *local* operation, Case 1 in §2.2).
  bool ClusteringContainedIn(const std::vector<std::string>& cols) const;

  /// True if any field named in `names` is mutable.
  bool AnyMutable(const std::vector<std::string>& names) const;

  /// Schema narrowed to the named fields, in the given order; throws on
  /// unknown or duplicated names. Primary/clustering keys are kept only
  /// if every key column survives (a partial key identifies nothing).
  Schema Select(const std::vector<std::string>& names) const;

  /// For each field of this (full) schema: the matching field index in
  /// `narrowed`, or npos when the field was projected away. dbgen uses
  /// this to map generated fields to output slots.
  std::vector<size_t> ProjectionSlots(const Schema& narrowed) const;

  bool SameFields(const Schema& other) const {
    return fields_ == other.fields_;
  }

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::vector<std::string> primary_key_;
  std::vector<std::string> clustering_key_;
};

}  // namespace wake

#endif  // WAKE_FRAME_SCHEMA_H_
