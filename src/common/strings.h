// Small string helpers: joining, printf-style formatting, and the SQL-LIKE
// matcher used in filter expressions.
#ifndef WAKE_COMMON_STRINGS_H_
#define WAKE_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace wake {

/// Joins `parts` with `delim`.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& delim);

/// SQL LIKE match with '%' (any run) and '_' (any one char) wildcards.
bool LikeMatch(std::string_view text, std::string_view pattern);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...);

}  // namespace wake

#endif  // WAKE_COMMON_STRINGS_H_
