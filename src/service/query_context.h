// Per-query request/response types of the query service: submission
// options (deadline, external cancellation) and the result envelope
// (status, rows, the epoch the query read, the plan it ran, and its latency
// breakdown).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/cancellation.h"
#include "sql/physical_plan.h"
#include "types/row.h"
#include "types/schema.h"

namespace idf {

/// Options for one query submission.
struct QueryOptions {
  /// Deadline for the whole query, queueing included. Zero means "use the
  /// service's default timeout" (which may itself be none).
  std::chrono::nanoseconds timeout{0};

  /// Caller-held cancellation handle. The service polls it while the query
  /// waits for admission and at every morsel boundary during execution;
  /// Cancel() frees the query's admission slot within milliseconds. When
  /// null the service creates an internal token (deadline-only control).
  CancellationTokenPtr cancel;
};

/// The outcome of one query.
struct QueryResult {
  Status status;

  SchemaPtr schema;
  RowVec rows;

  /// The epoch boundary the query's snapshot was pinned at: every row
  /// reflects exactly the append batches committed before this epoch,
  /// across all tables the query touched.
  uint64_t epoch = 0;

  /// The physical plan the query ran (null unless it succeeded). Read-only:
  /// walk its operators or render it with TreeString(); it holds the pins
  /// of `epoch` only as long as the result is kept.
  std::shared_ptr<const PhysicalOp> plan;

  uint64_t queue_micros = 0;  ///< admission wait
  uint64_t exec_micros = 0;   ///< plan + execute
  uint64_t total_micros = 0;  ///< submission to completion

  bool ok() const { return status.ok(); }
};

}  // namespace idf
