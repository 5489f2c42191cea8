// Span recording for the traced run of seltrig_bench. Spans are taken by the
// benchmark around its calls into the engine's public functions (nothing
// inside the library is instrumented), kept in memory, and written once at
// exit as Chrome trace-event JSON, which chrome://tracing and Perfetto load.

#ifndef SELTRIG_BENCH_SUITE_TRACE_H_
#define SELTRIG_BENCH_SUITE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace seltrig::bench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// `s` as a JSON string literal, quotes included.
std::string JsonString(const std::string& s);

class Tracer {
 public:
  struct Span {
    const char* name;      // string literal or a string with program lifetime
    const char* category;  // the layer the timed call belongs to
    Clock::time_point start;
    Clock::time_point end;
    uint64_t id = 0;
    uint64_t parent = 0;   // span that caused this one; 0 for a root
  };

  // Spans of one thread. Only that thread appends; the tracer reads the
  // buffer after the thread has been joined.
  class Buffer {
   public:
    Buffer(int tid, std::string thread_name)
        : tid_(tid), thread_name_(std::move(thread_name)) {}
    void Add(const Span& span) { spans_.push_back(span); }

   private:
    friend class Tracer;
    int tid_;
    std::string thread_name_;
    std::vector<Span> spans_;
  };

  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // A new per-thread buffer; the pointer stays valid for the tracer's life.
  Buffer* NewBuffer(const std::string& thread_name);
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  size_t span_count() const;

  // Writes every span as a complete ("X") event, plus thread names and
  // `metadata` under "otherData". Call only after every recording thread
  // has been joined. Returns false if the file cannot be written.
  bool WriteChromeJson(const std::string& path,
                       const std::map<std::string, std::string>& metadata) const;

 private:
  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::deque<Buffer> buffers_;  // guarded by mutex_; deque keeps addresses
};

}  // namespace seltrig::bench

#endif  // SELTRIG_BENCH_SUITE_TRACE_H_
