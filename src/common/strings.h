// Small string helpers shared by the tbl reader, dbgen, and the SQL-LIKE
// matcher used in filter expressions.
#ifndef WAKE_COMMON_STRINGS_H_
#define WAKE_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace wake {

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// SQL LIKE match with '%' (any run) and '_' (any one char) wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// True if `s` starts with / ends with `prefix`/`suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...);

}  // namespace wake

#endif  // WAKE_COMMON_STRINGS_H_
