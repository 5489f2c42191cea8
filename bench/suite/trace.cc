#include "trace.h"

#include <cstdio>

namespace seltrig::bench {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

Tracer::Buffer* Tracer::NewBuffer(const std::string& thread_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.emplace_back(static_cast<int>(buffers_.size()) + 1, thread_name);
  return &buffers_.back();
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const Buffer& b : buffers_) n += b.spans_.size();
  return n;
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::map<std::string, std::string>& metadata) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  auto separator = [&]() {
    if (!first) std::fputs(",\n", out);
    first = false;
  };
  for (const Buffer& b : buffers_) {
    separator();
    std::fprintf(out,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
                 "\"args\":{\"name\":%s}}",
                 b.tid_, JsonString(b.thread_name_).c_str());
    for (const Span& s : b.spans_) {
      separator();
      std::fprintf(out,
                   "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                   "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                   JsonString(s.name).c_str(), JsonString(s.category).c_str(),
                   Micros(s.start - origin_), Micros(s.end - s.start), b.tid_,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent));
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{", out);
  bool first_meta = true;
  for (const auto& [key, value] : metadata) {
    std::fprintf(out, "%s%s:%s", first_meta ? "" : ",", JsonString(key).c_str(),
                 JsonString(value).c_str());
    first_meta = false;
  }
  std::fputs("}}\n", out);
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace seltrig::bench
