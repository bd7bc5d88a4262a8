// StreamingDriver: the paper's demonstration scenario (§4) — a continuous
// update stream mutating the graph while queries run concurrently against
// consistent snapshots. Producer thread(s) emit row batches into a bounded
// queue (the Kafka stand-in); an appender drains it into the Indexed
// DataFrame; query threads measure lookup latency while data grows.
#pragma once

#include <functional>
#include <vector>

#include "common/result.h"
#include "indexed/indexed_dataframe.h"
#include "stream/bounded_queue.h"

namespace idf {

/// Collects latency samples (microseconds) and reports percentiles.
class LatencyRecorder {
 public:
  void Add(double micros) { samples_.push_back(micros); }
  void Merge(const LatencyRecorder& other);

  size_t count() const { return samples_.size(); }
  double Mean() const;
  /// p in [0, 100].
  double Percentile(double p) const;

 private:
  mutable std::vector<double> samples_;
};

struct StreamingConfig {
  size_t num_batches = 200;
  size_t rows_per_batch = 10;
  size_t queue_capacity = 64;
  int num_query_threads = 1;
  /// Delay between queries per thread (0 = back-to-back).
  size_t query_pause_micros = 0;
  /// When set, the appender commits each batch through this instead of
  /// writing to the IndexedDataFrame directly. Used to route the stream
  /// through an epoch-gated path — e.g. QueryService::Append, so standing
  /// queries (src/view) see every commit as a delta.
  std::function<Status(const RowVec&)> append_override;
};

struct StreamingReport {
  size_t rows_appended = 0;
  size_t batches_appended = 0;
  size_t queries_run = 0;
  size_t final_rows = 0;
  double wall_seconds = 0;
  LatencyRecorder append_latency;   // per-batch append latency
  LatencyRecorder query_latency;    // per-query latency
  std::string ToString() const;
};

/// Runs the concurrent update+query workload:
///  * a producer generating `config.num_batches` batches via `make_batch`,
///  * an appender feeding them into `idf` (fine-grained appendRows),
///  * `config.num_query_threads` threads repeatedly running `query` (e.g.
///    an index lookup of a hot key) until the stream is drained — each at
///    least once, however quickly the stream drains.
Result<StreamingReport> RunStreamingWorkload(
    const IndexedDataFrame& idf,
    const std::function<RowVec(size_t batch_no)>& make_batch,
    const std::function<Status()>& query, const StreamingConfig& config);

}  // namespace idf
