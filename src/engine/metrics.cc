#include "engine/metrics.h"

namespace idf {

std::string FormatCounters(const CounterValues& values) {
  std::string out = "metrics{";
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (i > 0) out += ", ";
    out += kCounterNames[i];
    out += '=';
    out += std::to_string(values[i]);
  }
  return out + "}";
}

void QueryMetrics::Reset() {
  for (auto& v : values_) v.store(0, std::memory_order_relaxed);
}

CounterValues QueryMetrics::Snapshot() const {
  CounterValues out;
  for (size_t i = 0; i < kNumCounters; ++i) {
    out[i] = values_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void QueryMetrics::DrainInto(QueryMetrics* total) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const uint64_t v = values_[i].load(std::memory_order_relaxed);
    if (v == 0) continue;
    total->values_[i].fetch_add(v, std::memory_order_relaxed);
    values_[i].store(0, std::memory_order_relaxed);
  }
}

}  // namespace idf
