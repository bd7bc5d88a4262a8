#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace bench {

int32_t TraceBuffer::Begin(const char* name, uint64_t request, int32_t parent,
                           int32_t query, Phase phase) {
  const int64_t now = NowNs();
  return Add(name, now, now, request, parent, query, phase);
}

int32_t TraceBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                         uint64_t request, int32_t parent, int32_t query,
                         Phase phase) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.request = request;
  s.parent = parent;
  s.query = query;
  s.phase = phase;
  spans_.push_back(s);
  return static_cast<int32_t>(spans_.size() - 1);
}

TraceBuffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<TraceBuffer>());
  return buffers_.back().get();
}

std::vector<FlatSpan> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FlatSpan> out;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    const std::vector<Span>& spans = buffers_[b]->spans();
    // Children of each span, as (start, end) intervals.
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Self time: duration minus the union of child intervals clipped to
      // the span.
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
      FlatSpan f;
      f.span = s;
      f.buffer = static_cast<uint32_t>(b);
      f.self_micros = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
      out.push_back(f);
    }
  }
  return out;
}

bool WriteSpans(const std::vector<FlatSpan>& spans, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const FlatSpan& fs : spans) {
    const Span& s = fs.span;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"phase\":\"%s\",\"buffer\":%u,"
                 "\"request\":%llu,\"parent\":%d,\"query\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_us\":%.3f,"
                 "\"bytes\":%llu}\n",
                 s.name, s.phase == Phase::kTimed ? "timed" : "probe", fs.buffer,
                 static_cast<unsigned long long>(s.request), s.parent, s.query,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), fs.self_micros,
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

}  // namespace bench
