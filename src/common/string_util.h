// Small string helpers shared across the engine (case folding, joining,
// exact double rendering).

#ifndef SELTRIG_COMMON_STRING_UTIL_H_
#define SELTRIG_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace seltrig {

// ASCII-lowercases `s`. SQL identifiers in seltrig are case-insensitive and
// are normalized to lower case at parse time.
std::string ToLower(std::string_view s);

// ASCII-uppercases `s`.
std::string ToUpper(std::string_view s);

// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Evaluates the SQL LIKE operator: '%' matches any run (including empty),
// '_' matches exactly one character. Matching is case-sensitive, as in
// standard SQL.
bool LikeMatch(std::string_view text, std::string_view pattern);

// Renders `d` with 17 significant digits (%.17g): the shortest fixed width
// that strtod always reads back to the same bits. Snapshot CSVs and the CSV
// loader's INSERT literals both use it, so no digit is lost on a reload.
std::string FormatDoubleExact(double d);

}  // namespace seltrig

#endif  // SELTRIG_COMMON_STRING_UTIL_H_
