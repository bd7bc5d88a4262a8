// Parameterized plan cache for prepared statements (DESIGN.md §15).
//
// A prepared statement is parsed, analyzed, type-inferred, and optimized
// ONCE, over unpinned relation reads: the cached artifact is an optimized
// logical tree that holds no MVCC pins — and thus no retired storage
// generations — between executions. An execution pins exactly the indexes
// the statement reads at one epoch boundary (SnapshotManager::Pin),
// attaches those pins to the reads (RebindSnapshots) — scans, lookups,
// secondary probes and indexed-join build sides alike — lowers the tree
// to physical operators WITHOUT re-running the optimizer
// (Session::PlanOptimized), and re-binds the parameter values in place:
// compiled predicates patch immediate slots (CompiledPredicate::
// BindParams), interpreted filter/project expressions substitute
// literals, and lookup operators fill key slots — no recompilation on the
// hot path. The lowered plan is memoized with its pins under the
// statement's mutex: executions share one physical tree until an append
// reaches one of the statement's indexes (or a DDL change), which is the
// only thing that triggers re-lowering.
//
// The cache is an LRU keyed on a normalized SQL fingerprint (lowercased
// outside string literals, whitespace collapsed). Statements are
// immutable after construction except for the per-epoch bound plan;
// concurrent ExecutePrepared calls are safe.
#pragma once

#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "service/snapshot_manager.h"
#include "sql/logical_plan.h"
#include "sql/physical_plan.h"

namespace idf {

/// Normalized cache key: lowercase outside single-quoted string literals,
/// runs of whitespace collapsed to one space, trimmed. `SELECT * FROM t`
/// and `select *   from t` share one cache entry; `WHERE s = 'ABC'` and
/// `WHERE s = 'abc'` do not.
std::string NormalizeSql(const std::string& sql);

/// The distinct indexes `plan` reads (see MapRelationReads), in first-read
/// order. Internal error for a relation of a foreign implementation.
Result<std::vector<IndexedRelationPtr>> ReadRelations(const LogicalPlanPtr& plan);

/// Attaches `pins` to every relation read in `plan`, matching reads to
/// pins by relation identity. Internal error when a read has no pin.
Result<LogicalPlanPtr> RebindSnapshots(const LogicalPlanPtr& plan,
                                       const IndexPins& pins);

/// A lowered physical plan and the pins it reads at. The rebound logical
/// tree holds the pins, keeping the frozen versions alive for exactly as
/// long as this BoundPlan is the statement's current one (plus in-flight
/// executions that still share the pointer).
struct BoundPlan {
  uint64_t epoch = 0;       ///< latest epoch the pins were current at
  IndexPins pins;           ///< one per PreparedStatement::relations entry
  LogicalPlanPtr rebound;   ///< pin-holding logical tree (keeps pins alive)
  PhysicalOpPtr physical;   ///< lowered operators (immutable, share-safe)
};

/// A prepared statement: the cached planning artifact plus its per-epoch
/// bound plan. Immutable after construction except `bound` (guarded by
/// `mu`).
struct PreparedStatement {
  std::string sql;
  std::string fingerprint;
  size_t num_params = 0;
  std::vector<TypeId> param_types;  ///< inferred, one per ordinal
  SchemaPtr result_schema;

  /// Analyzed, typed, unpinned tree (the substitute-and-replan fallback
  /// re-optimizes this per execution).
  LogicalPlanPtr analyzed;
  /// Optimized unpinned tree, reduced to the paths it scans
  /// (ScannedPathsOnly); set only when `patchable`.
  LogicalPlanPtr optimized;
  /// The indexes an execution pins: those `optimized` reads when
  /// patchable, else every access path of `analyzed` (the fallback
  /// re-optimizes it, so it may read any of them).
  std::vector<IndexedRelationPtr> relations;
  /// True when every parameter sits in a position the physical operators
  /// re-bind per execution (sql/parameters.h); false forces the fallback.
  bool patchable = false;

  /// Service DDL version at prepare time; a mismatch invalidates the
  /// statement (schema may have changed under the cached plan).
  uint64_t ddl_version = 0;

  std::mutex mu;  ///< guards `bound`
  std::shared_ptr<const BoundPlan> bound;
};

using PreparedStatementPtr = std::shared_ptr<PreparedStatement>;

/// LRU cache of prepared statements keyed on the SQL fingerprint.
/// Thread-safe. Eviction only drops the cache's reference: outstanding
/// handles keep their statement alive and executable.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// Returns the statement for `fingerprint` (bumping its recency) or
  /// null.
  PreparedStatementPtr Lookup(const std::string& fingerprint);

  /// Inserts (or replaces) the statement, evicting the least recently
  /// used entry beyond capacity.
  void Insert(const PreparedStatementPtr& stmt);

  /// Drops one entry (DDL invalidation of a single stale statement).
  void Erase(const std::string& fingerprint);

  /// Drops everything (DDL invalidation).
  void Clear();

  size_t size() const;
  uint64_t evictions() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  // MRU-first recency list; the map holds list iterators for O(1) bumps.
  std::list<PreparedStatementPtr> lru_;
  std::unordered_map<std::string, std::list<PreparedStatementPtr>::iterator>
      by_fingerprint_;
  uint64_t evictions_ = 0;
};

}  // namespace idf
