// Minimal RFC-4180-style CSV reading, used for bulk-loading tables.

#ifndef SELTRIG_COMMON_CSV_H_
#define SELTRIG_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace seltrig {

// Parses one CSV record (no trailing newline). Supports double-quoted fields
// with "" escapes; unquoted fields are taken verbatim. With `quoted_fields`
// set, it also receives, per field, whether the field was enclosed in
// quotes: that is what tells a quoted empty field ("", an empty string) from
// an unquoted one (a missing value).
Result<std::vector<std::string>> ParseCsvLine(
    const std::string& line, std::vector<bool>* quoted_fields = nullptr);

// Splits `text` into physical lines, honoring newlines inside quoted fields.
std::vector<std::string> SplitCsvRecords(const std::string& text);

}  // namespace seltrig

#endif  // SELTRIG_COMMON_CSV_H_
