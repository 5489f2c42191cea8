#include "common/csv.h"

namespace seltrig {

Result<std::vector<std::string>> ParseCsvLine(const std::string& line,
                                              std::vector<bool>* quoted_fields) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  bool field_quoted = false;
  if (quoted_fields != nullptr) quoted_fields->clear();
  auto end_field = [&] {
    fields.push_back(std::move(field));
    field.clear();
    if (quoted_fields != nullptr) quoted_fields->push_back(field_quoted);
    field_quoted = false;
  };
  size_t i = 0;
  while (i < line.size()) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        quoted = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"' && field.empty()) {
      quoted = true;
      field_quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      end_field();
      ++i;
      continue;
    }
    field += c;
    ++i;
  }
  if (quoted) return Status::InvalidArgument("unterminated quote in CSV record");
  end_field();
  return fields;
}

std::vector<std::string> SplitCsvRecords(const std::string& text) {
  std::vector<std::string> records;
  std::string current;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"') quoted = !quoted;
    if (c == '\n' && !quoted) {
      if (!current.empty() && current.back() == '\r') current.pop_back();
      records.push_back(std::move(current));
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty() && current.back() == '\r') current.pop_back();
  if (!current.empty()) records.push_back(std::move(current));
  return records;
}

}  // namespace seltrig
