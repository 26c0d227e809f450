// In-memory tracing for the benchmark's traced run (--trace 1).
//
// The benchmark times its own calls into each layer's public functions;
// nothing inside the library is instrumented. Two records come out of a
// traced run:
//
//   LayerTotals  busy time, call count and work units (bytes, entries)
//                per layer, summed over every traced request. The
//                per-layer metrics are computed from these.
//   SpanLog      individual spans (name, start, end, parent, trace id)
//                for a sample of the traced requests, kept in memory and
//                written out as JSON lines when the run ends. Spans of
//                one request share its trace id; a request's root span
//                is opened before its children so they can name it.
//
// Span capacity is fixed up front so the log never reallocates inside
// the timed loop; once full, further spans are dropped (the totals keep
// counting).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Busy time of one layer, accumulated at the benchmark's call sites.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t ns = 0;
  uint64_t units = 0;  ///< layer-specific work: bytes, keys or entries

  void Add(uint64_t dur_ns, uint64_t calls_n = 1, uint64_t units_n = 0) {
    calls += calls_n;
    ns += dur_ns;
    units += units_n;
  }
  /// 0 when the layer was never called (the metric then reads "unused").
  double NsPerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
  double NsPerUnit() const {
    return units == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(units);
  }
  double UnitsPerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(units) / static_cast<double>(calls);
  }
};

class SpanLog {
 public:
  static constexpr uint32_t kNone = ~uint32_t{0};

  explicit SpanLog(size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a span whose end is set by Close(). Returns its id, or kNone
  /// when the log is full (Close and child parents then ignore it).
  uint32_t Open(const char* name, const char* kind, uint64_t trace,
                uint32_t parent, uint64_t start_ns) {
    if (spans_.size() >= capacity_) return kNone;
    spans_.push_back(Span{name, kind, trace, parent, start_ns, start_ns});
    return static_cast<uint32_t>(spans_.size() - 1);
  }

  void Close(uint32_t id, uint64_t end_ns) {
    if (id != kNone) spans_[id].end_ns = end_ns;
  }

  void Add(const char* name, const char* kind, uint64_t trace,
           uint32_t parent, uint64_t start_ns, uint64_t end_ns) {
    Close(Open(name, kind, trace, parent, start_ns), end_ns);
  }

  /// Moves another log's spans in after this one's, renumbering ids and
  /// parents (used to merge a helper thread's log after it has joined).
  void Append(const SpanLog& other) {
    const uint32_t base = static_cast<uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent != kNone) s.parent += base;
      spans_.push_back(s);
    }
  }

  size_t size() const { return spans_.size(); }

  /// One JSON object per line; times are steady-clock nanoseconds.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"parent\":%lld,\"trace\":\"%s-%llu\","
                   "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   i,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   s.kind, static_cast<unsigned long long>(s.trace), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  ///< static string
    const char* kind;  ///< trace id namespace: "req" or "event"
    uint64_t trace;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };

  size_t capacity_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
