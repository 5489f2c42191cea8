// CSV bulk loading. ReadCsvRows parses CSV text into rows typed by a table's
// schema; two loaders share it and differ only in how the rows reach storage:
//
//  - LoadCsvIntoTable (the shell's .import) runs one INSERT statement per
//    row, so DML triggers, sensitive-ID view maintenance and the journal
//    observe every row exactly as they would a user's INSERT.
//  - LoadSnapshot (engine/snapshot.h) appends the rows with Table::Insert,
//    as journal replay does, because nothing can observe them yet.
//
// Field conventions: an unquoted empty field is NULL; a quoted empty field
// ("") is the empty string in a VARCHAR column (NULL in any other). Other
// fields are coerced to the column type; DOUBLE fields are read with strtod,
// so a value written by FormatDoubleExact (common/string_util.h) comes back
// with the same bits.

#ifndef SELTRIG_ENGINE_CSV_LOADER_H_
#define SELTRIG_ENGINE_CSV_LOADER_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "engine/database.h"
#include "types/schema.h"
#include "types/value.h"

namespace seltrig {

// Receives one typed row. A non-OK status stops the read.
using CsvRowSink = std::function<Status(Row row)>;

// Parses `csv_text` and hands each non-empty record to `sink`, in order, as a
// Row with one value per schema column. With `has_header`, the first record
// must name the schema's columns (case-insensitive, in order). Every error,
// the sink's included, is prefixed with the 1-based number of the record it
// arose at ("CSV record 7: ..."; a header is record 1).
Status ReadCsvRows(const Schema& schema, const std::string& csv_text, bool has_header,
                   const CsvRowSink& sink);

// Returns the number of rows loaded, each through its own INSERT statement.
Result<int64_t> LoadCsvIntoTable(Database* db, const std::string& table,
                                 const std::string& csv_text, bool has_header);

// Convenience: reads `path` and delegates to LoadCsvIntoTable.
Result<int64_t> LoadCsvFileIntoTable(Database* db, const std::string& table,
                                     const std::string& path, bool has_header);

}  // namespace seltrig

#endif  // SELTRIG_ENGINE_CSV_LOADER_H_
