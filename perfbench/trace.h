// In-memory span recorder for the benchmark's traced runs.
//
// A span is (id, parent, name, start, end, thread). Names are string
// literals of the form "<layer>.<what>", where <layer> is a src/ module
// (stream, runtime, hash, sketch, core, serve) or "bench" for the
// benchmark's own time (pacing, pass bookkeeping). Spans are recorded only
// around calls the benchmark makes into the library's public API, or by
// decorators the benchmark hands to the library; nothing inside src/ is
// instrumented. Spans stay in memory and are written once, at exit.

#ifndef STREAMKC_PERFBENCH_TRACE_H_
#define STREAMKC_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace streamkc::perf {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Small dense index of the calling thread (0 = first thread to ask).
inline uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t index = next.fetch_add(1);
  return index;
}

class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t thread = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(uint64_t id, uint64_t parent, const char* name, uint64_t start_ns,
              uint64_t end_ns) {
    Span s{id, parent, name, start_ns, end_ns, ThreadIndex()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  // Writes {"spans": [[id, parent, name, start_ns, end_ns, thread], ...]}.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"spans\": [", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n[%llu, %llu, \"%s\", %llu, %llu, %u]",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.thread);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records one span over its lifetime when `tracer` is non-null, and adds
// its duration to `*total_ns` when given; a no-op otherwise, so untraced
// runs pay one branch.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t parent,
            uint64_t* total_ns = nullptr)
      : tracer_(tracer), name_(name), parent_(parent), total_ns_(total_ns) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NewId();
      start_ns_ = NowNs();
    }
  }
  ~SpanScope() {
    if (tracer_ != nullptr) {
      uint64_t end_ns = NowNs();
      tracer_->Record(id_, parent_, name_, start_ns_, end_ns);
      if (total_ns_ != nullptr) *total_ns_ += end_ns - start_ns_;
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  uint64_t parent_;
  uint64_t* total_ns_;
  uint64_t id_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace streamkc::perf

#endif  // STREAMKC_PERFBENCH_TRACE_H_
