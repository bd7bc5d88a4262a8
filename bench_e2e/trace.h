// In-memory span recorder for the traced benchmark run.
//
// The benchmark times calls into each engine layer from the outside: a
// span wraps one call into a public function (the wire Execute, an
// in-process ExecutePrepared, a Session step, GetRows, PinAll, Append,
// the reply codec). Spans of one sampled request share a request id and
// point at their parent span, so a layer's self time is its duration
// minus the part of its interval that child spans cover.
//
// Each recording thread owns one TraceBuffer (no locking on the hot
// path); the Tracer merges them when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Which part of a run a span belongs to.
enum class Phase : uint8_t { kTimed, kProbe };

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  ///< index into the same buffer; -1 for a root
  int32_t query = 0;    ///< SNB short read 1..7, 0 when not a read
  Phase phase = Phase::kTimed;
  uint64_t bytes = 0;  ///< payload size, for spans that move bytes

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class TraceBuffer {
 public:
  /// Opens a span starting now; returns its index for End()/children.
  int32_t Begin(const char* name, uint64_t request, int32_t parent, int32_t query,
                Phase phase);
  void End(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  void SetBytes(int32_t span, uint64_t bytes) {
    spans_[static_cast<size_t>(span)].bytes = bytes;
  }
  /// Records a span whose interval is already known (e.g. the queue/exec
  /// split a QueryResult reports).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request, int32_t parent, int32_t query, Phase phase);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// A recorded span with its buffer-independent identity and self time.
struct FlatSpan {
  Span span;
  uint32_t buffer = 0;
  double self_micros = 0;
};

class Tracer {
 public:
  /// A fresh buffer for one thread (owned by the tracer).
  TraceBuffer* NewBuffer();

  /// All spans of all buffers with self times derived.
  std::vector<FlatSpan> Collect() const;

 private:
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<TraceBuffer>> buffers_;
};

/// RAII span: Begin on construction, End on destruction. A null buffer
/// makes it a no-op, which is how untraced requests skip recording.
class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buf, const char* name, uint64_t request,
             int32_t parent, int32_t query, Phase phase)
      : buf_(buf),
        id_(buf ? buf->Begin(name, request, parent, query, phase) : -1) {}
  ~ScopedSpan() {
    if (buf_) buf_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  TraceBuffer* buf_;
  int32_t id_;
};

/// Writes one JSON object per span (name, request, parent, start/end, self
/// time) to `path`. Returns false when the file cannot be written.
bool WriteSpans(const std::vector<FlatSpan>& spans, const std::string& path);

}  // namespace bench
