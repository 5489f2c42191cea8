#include "engine/csv_loader.h"

#include <cerrno>
#include <cstdlib>

#include "common/csv.h"
#include "common/file_util.h"
#include "common/string_util.h"
#include "types/date.h"

namespace seltrig {

namespace {

Status AtRecord(int64_t record, const Status& status) {
  return Status(status.code(),
                "CSV record " + std::to_string(record) + ": " + status.message());
}

Result<Value> CoerceField(std::string field, bool quoted, TypeId type,
                          const std::string& column) {
  if (field.empty()) {
    return quoted && type == TypeId::kString ? Value::String("") : Value::Null();
  }
  switch (type) {
    case TypeId::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || errno == ERANGE) {
        return Status::InvalidArgument("'" + field + "' is not an INT for column " +
                                       column);
      }
      return Value::Int(v);
    }
    case TypeId::kDouble: {
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        return Status::InvalidArgument("'" + field + "' is not a DOUBLE for column " +
                                       column);
      }
      return Value::Double(v);
    }
    case TypeId::kString:
      return Value::String(std::move(field));
    case TypeId::kDate: {
      SELTRIG_ASSIGN_OR_RETURN(int32_t days, ParseDate(field));
      return Value::Date(days);
    }
    case TypeId::kBool: {
      std::string lower = ToLower(field);
      if (lower == "true" || lower == "1" || lower == "t") return Value::Bool(true);
      if (lower == "false" || lower == "0" || lower == "f") return Value::Bool(false);
      return Status::InvalidArgument("'" + field + "' is not a BOOLEAN for column " +
                                     column);
    }
    case TypeId::kNull:
      return Value::Null();
  }
  return Status::Internal("bad column type");
}

// Renders `v` as a SQL literal that the parser reads back as the same value
// (a non-finite DOUBLE has no such literal and fails to bind).
std::string SqlLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case TypeId::kString: {
      std::string quoted = "'";
      for (char ch : v.AsString()) {
        quoted += ch;
        if (ch == '\'') quoted += '\'';
      }
      return quoted + "'";
    }
    case TypeId::kDate:
      return "DATE '" + FormatDate(v.AsDate()) + "'";
    case TypeId::kDouble: {
      // An integral rendering ("-0", "173665") would lex as an INT literal;
      // the ".0" keeps it a DOUBLE, so -0.0 keeps its sign.
      std::string text = FormatDoubleExact(v.AsDouble());
      if (text.find_first_not_of("-0123456789") == std::string::npos) text += ".0";
      return text;
    }
    default:
      return v.ToString();
  }
}

}  // namespace

Status ReadCsvRows(const Schema& schema, const std::string& csv_text, bool has_header,
                   const CsvRowSink& sink) {
  std::vector<std::string> records = SplitCsvRecords(csv_text);
  size_t start = 0;
  if (has_header && !records.empty()) {
    Result<std::vector<std::string>> header = ParseCsvLine(records[0]);
    if (!header.ok()) return AtRecord(1, header.status());
    if (header->size() != schema.size()) {
      return AtRecord(1, Status::InvalidArgument(
                             "header has " + std::to_string(header->size()) +
                             " columns; the table has " + std::to_string(schema.size())));
    }
    for (size_t i = 0; i < header->size(); ++i) {
      if (ToLower((*header)[i]) != schema.column(i).name) {
        return AtRecord(1, Status::InvalidArgument(
                               "header column '" + (*header)[i] +
                               "' does not match table column '" +
                               schema.column(i).name + "'"));
      }
    }
    start = 1;
  }

  std::vector<bool> quoted;
  for (size_t r = start; r < records.size(); ++r) {
    if (records[r].empty()) continue;
    const int64_t record = static_cast<int64_t>(r) + 1;
    Result<std::vector<std::string>> fields = ParseCsvLine(records[r], &quoted);
    if (!fields.ok()) return AtRecord(record, fields.status());
    if (fields->size() != schema.size()) {
      return AtRecord(record, Status::InvalidArgument(
                                  "has " + std::to_string(fields->size()) +
                                  " fields; expected " + std::to_string(schema.size())));
    }
    Row row;
    row.reserve(fields->size());
    for (size_t c = 0; c < fields->size(); ++c) {
      Result<Value> v = CoerceField(std::move((*fields)[c]), quoted[c],
                                    schema.column(c).type, schema.column(c).name);
      if (!v.ok()) return AtRecord(record, v.status());
      row.push_back(std::move(v).value());
    }
    Status consumed = sink(std::move(row));
    if (!consumed.ok()) return AtRecord(record, consumed);
  }
  return Status::OK();
}

Result<int64_t> LoadCsvIntoTable(Database* db, const std::string& table_name,
                                 const std::string& csv_text, bool has_header) {
  SELTRIG_ASSIGN_OR_RETURN(Table * table, db->catalog()->GetTable(table_name));
  // Each row goes through the SQL layer so that DML triggers, audit-view
  // maintenance and the journal observe it.
  int64_t loaded = 0;
  SELTRIG_RETURN_IF_ERROR(ReadCsvRows(
      table->schema(), csv_text, has_header, [&](Row row) {
        std::string sql = "INSERT INTO " + table_name + " VALUES (";
        for (size_t c = 0; c < row.size(); ++c) {
          if (c > 0) sql += ", ";
          sql += SqlLiteral(row[c]);
        }
        sql += ")";
        SELTRIG_RETURN_IF_ERROR(db->Execute(sql).status());
        ++loaded;
        return Status::OK();
      }));
  return loaded;
}

Result<int64_t> LoadCsvFileIntoTable(Database* db, const std::string& table,
                                     const std::string& path, bool has_header) {
  SELTRIG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return LoadCsvIntoTable(db, table, text, has_header);
}

}  // namespace seltrig
