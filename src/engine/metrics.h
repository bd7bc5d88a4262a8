// Execution metrics: rows/bytes shuffled, tasks run, index probes. Used by
// benchmarks and tests to assert which physical path actually executed
// (e.g. "this query probed the index and shuffled nothing").
//
// Every counter the engine, the query service and the view manager keep
// is one line of IDF_COUNTERS below. QueryMetrics, ServiceStats, the
// service's per-query fold, Reset, ToString, ToJson and the README table
// (checked by scripts/check_metric_docs.py) are all generated from or
// looped over this list, so adding a counter is adding one line here.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace idf {

// X(CamelName, snake_name): QueryMetrics gets Add<CamelName>(n = 1) and
// snake_name(); ServiceStats gets a `snake_name` field; exports use
// snake_name as the key.
#define IDF_COUNTERS(X)                                                        \
  /* Engine: exchange, tasks, probes, scans. */                                \
  X(ShuffledRows, shuffled_rows)                                               \
  X(ShuffledBytes, shuffled_bytes)                                             \
  X(BroadcastBytes, broadcast_bytes)                                           \
  X(Task, tasks_run)                                                           \
  X(IndexProbes, index_probes)                                                 \
  X(IndexHits, index_hits)                                                     \
  X(RowsScanned, rows_scanned)                                                 \
  X(BlocksSkipped, blocks_skipped)                                             \
  X(RowsProduced, rows_produced)                                               \
  X(Morsels, morsels_dispatched)                                               \
  X(ShuffleEncodedBytes, shuffle_encoded_bytes)                                \
  X(DecodesAvoided, decodes_avoided)                                           \
  /* Engine: compiled, vectorized and fused-aggregate evaluation. */           \
  X(PredicatesCompiled, predicates_compiled)                                   \
  X(RowsFilteredEncoded, rows_filtered_encoded)                                \
  X(RowsFilteredVectorized, rows_filtered_vectorized)                          \
  X(VectorBatches, vector_batches_evaluated)                                   \
  X(AggMorsels, agg_morsels)                                                   \
  X(AggPartialsMerged, agg_partials_merged)                                    \
  X(RowsAggregatedEncoded, rows_aggregated_encoded)                            \
  /* Engine: write path and background compaction. */                         \
  X(AppendBatches, append_batches)                                             \
  X(AppendPartitionLocks, append_partition_locks)                              \
  X(RowsAppendedParallel, rows_appended_parallel)                              \
  X(CompactionsRun, compactions_run)                                           \
  X(ChainLinksRewritten, chain_links_rewritten)                                \
  X(BytesReclaimed, bytes_reclaimed)                                           \
  /* Engine: secondary-index probes and their append-time upkeep. */           \
  X(BitmapProbes, bitmap_probes)                                               \
  X(RangeProbes, range_probes)                                                 \
  X(IndexScansAvoided, index_scans_avoided)                                    \
  X(BitmapMaintenanceUs, bitmap_maintenance_us)                                \
  X(RangeMaintenanceUs, range_maintenance_us)                                  \
  /* Service: query outcomes. */                                               \
  X(Submitted, submitted)                                                      \
  X(Succeeded, succeeded)                                                      \
  X(Rejected, rejected)                                                        \
  X(Cancelled, cancelled)                                                      \
  X(DeadlineExceeded, deadline_exceeded)                                       \
  X(Failed, failed)                                                            \
  /* Service: prepared statements and the plan cache. */                       \
  X(StatementsPrepared, statements_prepared)                                   \
  X(PlanCacheHits, plan_cache_hits)                                            \
  X(PlanCacheMisses, plan_cache_misses)                                        \
  X(PreparedExecutions, prepared_executions)                                   \
  X(PreparedReplans, prepared_replans)                                         \
  /* Service: network front end. */                                            \
  X(NetConnections, net_connections)                                           \
  X(NetRequests, net_requests)                                                 \
  X(NetBusyRejections, net_busy_rejections)                                    \
  /* Views: incremental maintenance. */                                        \
  X(ArrangementsShared, arrangements_shared)                                   \
  X(DeltasPropagated, deltas_propagated)                                       \
  X(RowsMaintainedIncrementally, rows_maintained_incrementally)                \
  X(ViewsRecomputed, views_recomputed)                                         \
  X(MaintenanceErrors, maintenance_errors)

enum class Counter : size_t {
#define IDF_COUNTER_ENUM(Camel, snake) k##Camel,
  IDF_COUNTERS(IDF_COUNTER_ENUM)
#undef IDF_COUNTER_ENUM
};

#define IDF_COUNTER_ONE(Camel, snake) +1
inline constexpr size_t kNumCounters = 0 IDF_COUNTERS(IDF_COUNTER_ONE);
#undef IDF_COUNTER_ONE

/// Export names, indexed by Counter.
inline constexpr std::array<const char*, kNumCounters> kCounterNames = {
#define IDF_COUNTER_NAME(Camel, snake) #snake,
    IDF_COUNTERS(IDF_COUNTER_NAME)
#undef IDF_COUNTER_NAME
};

/// A plain copy of every counter, indexed by Counter.
using CounterValues = std::array<uint64_t, kNumCounters>;

/// Renders `values` as "metrics{name=value, ...}" in registry order.
std::string FormatCounters(const CounterValues& values);

class QueryMetrics {
 public:
#define IDF_COUNTER_ACCESSORS(Camel, snake)                      \
  void Add##Camel(uint64_t n = 1) { Add(Counter::k##Camel, n); } \
  uint64_t snake() const { return Get(Counter::k##Camel); }
  IDF_COUNTERS(IDF_COUNTER_ACCESSORS)
#undef IDF_COUNTER_ACCESSORS

  void Reset();
  CounterValues Snapshot() const;
  /// Adds every non-zero counter into `total` and zeroes it here (the
  /// service folds each finished query's private block into its own).
  void DrainInto(QueryMetrics* total);
  std::string ToString() const { return FormatCounters(Snapshot()); }

 private:
  void Add(Counter c, uint64_t n) {
    values_[static_cast<size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Get(Counter c) const {
    return values_[static_cast<size_t>(c)].load(std::memory_order_relaxed);
  }

  std::array<std::atomic<uint64_t>, kNumCounters> values_{};
};

}  // namespace idf
