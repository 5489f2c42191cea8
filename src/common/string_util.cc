#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace seltrig {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

namespace {

// Recursive matcher with memo-free greedy backtracking over '%' positions.
bool LikeMatchImpl(const char* t, const char* t_end, const char* p,
                   const char* p_end) {
  while (p != p_end) {
    if (*p == '%') {
      // Collapse consecutive '%'.
      while (p != p_end && *p == '%') ++p;
      if (p == p_end) return true;
      // Try to match the rest of the pattern at every remaining position.
      for (const char* s = t; s <= t_end; ++s) {
        if (LikeMatchImpl(s, t_end, p, p_end)) return true;
      }
      return false;
    }
    if (t == t_end) return false;
    if (*p != '_' && *p != *t) return false;
    ++p;
    ++t;
  }
  return t == t_end;
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  return LikeMatchImpl(text.data(), text.data() + text.size(), pattern.data(),
                       pattern.data() + pattern.size());
}

std::string FormatDoubleExact(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace seltrig
