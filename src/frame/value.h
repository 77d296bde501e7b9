// Scalar value type and the logical type enum shared by columns, schemas,
// and expressions.
//
// Dates are stored as int64 days since 1970-01-01 (proleptic Gregorian) so
// date arithmetic and range filters are plain integer operations; kDate is
// a distinct logical type only for printing, YEAR's type check and the
// parser's DATE +/- INTERVAL fold.
#ifndef WAKE_FRAME_VALUE_H_
#define WAKE_FRAME_VALUE_H_

#include <cstdint>
#include <string>

namespace wake {

/// Logical column / scalar types.
enum class ValueType : uint8_t {
  kInt64,
  kFloat64,
  kString,
  kDate,  // int64 days since 1970-01-01
  kBool,  // int64 0/1
};

/// Human-readable type name ("int64", "float64", ...).
const char* ValueTypeName(ValueType type);

/// True for types physically stored as int64 (kInt64, kDate, kBool).
inline bool IsIntPhysical(ValueType type) {
  return type == ValueType::kInt64 || type == ValueType::kDate ||
         type == ValueType::kBool;
}

/// True for kInt64/kFloat64/kDate/kBool (usable in arithmetic).
inline bool IsNumeric(ValueType type) { return type != ValueType::kString; }

/// A nullable scalar. Small, copyable; used at API boundaries and in tests
/// (bulk data lives in columns).
struct Value {
  ValueType type = ValueType::kInt64;
  bool is_null = false;
  int64_t i = 0;
  double d = 0.0;
  std::string s;

  static Value Null(ValueType t) {
    Value v;
    v.type = t;
    v.is_null = true;
    return v;
  }
  static Value Int(int64_t x) {
    Value v;
    v.type = ValueType::kInt64;
    v.i = x;
    return v;
  }
  static Value Float(double x) {
    Value v;
    v.type = ValueType::kFloat64;
    v.d = x;
    return v;
  }
  static Value Str(std::string x) {
    Value v;
    v.type = ValueType::kString;
    v.s = std::move(x);
    return v;
  }
  static Value Date(int64_t days) {
    Value v;
    v.type = ValueType::kDate;
    v.i = days;
    return v;
  }
  static Value Bool(bool b) {
    Value v;
    v.type = ValueType::kBool;
    v.i = b ? 1 : 0;
    return v;
  }

  /// Numeric view (int types promote to double).
  double AsDouble() const { return IsIntPhysical(type) ? static_cast<double>(i) : d; }

  std::string ToString() const;

  bool operator==(const Value& other) const;
  bool operator<(const Value& other) const;
};

/// Days since epoch for a calendar date (proleptic Gregorian; y >= 1600).
int64_t DateToDays(int year, int month, int day);

/// Inverse of DateToDays.
void DaysToDate(int64_t days, int* year, int* month, int* day);

/// Formats days-since-epoch as "YYYY-MM-DD".
std::string FormatDate(int64_t days);

/// Parses "YYYY-MM-DD" into days-since-epoch. Throws wake::Error on
/// malformed input.
int64_t ParseDate(const std::string& text);

/// Year component of a days-since-epoch date.
int ExtractYear(int64_t days);

}  // namespace wake

#endif  // WAKE_FRAME_VALUE_H_
