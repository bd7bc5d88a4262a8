// SnapshotManager: MVCC epoch boundaries for the query service. All
// updatable tables a service exposes register here; appends and snapshot
// pinning are then serialized against each other by a single
// reader/writer gate so a pinned snapshot always sits on an epoch
// boundary:
//
//  - An append batch holds the gate SHARED for the whole batch — across
//    every partition it touches and every index it fans out to (a
//    multi-indexed table keeps one IndexedRelation per index). Appenders
//    therefore run concurrently with each other, exactly as without the
//    manager.
//  - A pin holds the gate EXCLUSIVE while it captures the per-partition
//    views (commit records) of the indexes it pins. No batch can be
//    mid-flight at that instant, so a reader never observes a torn batch:
//    half of a multi-partition append, or a row present in one index of a
//    table but missing from another.
//
// Pinning is two acquire loads per pinned partition (its generation and
// commit record), so the exclusive section is microseconds even with many
// tables; appends are delayed by at most that.
//
// Each index keeps its last pin. While no batch has reached an index since
// then, that pin is current and is handed out again: a pin whose indexes
// are all current takes no gate at all. Readers therefore never wait
// behind an in-flight append batch (its version bumps only land at
// commit) and never take the exclusive gate for an index no batch touched
// — which keeps reader tail latency flat under a continuous append stream.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "indexed/indexed_relation.h"
#include "indexed/multi_indexed_table.h"
#include "sql/session.h"

namespace idf {

/// Indexes paired with their pins.
using IndexPins = std::vector<std::pair<IndexedRelationPtr, PinnedSnapshotPtr>>;

/// One registered table's pins, captured at one epoch. `pins[i]` pairs
/// the table's i-th index (registration order) with its pin; `primary()`
/// is the first (only) index for single-index tables.
struct PinnedTable {
  std::string table;
  IndexPins pins;

  const PinnedSnapshotPtr& primary() const { return pins.front().second; }
};

/// Pins of some indexes, all captured at one epoch boundary.
struct EpochPins {
  uint64_t epoch = 0;
  IndexPins pins;
};

/// A consistent cross-table snapshot: every pin reflects the same epoch
/// boundary, with no append batch mid-flight.
struct ServiceSnapshot {
  uint64_t epoch = 0;
  std::vector<PinnedTable> tables;

  const PinnedTable* find(const std::string& table) const {
    for (const PinnedTable& t : tables) {
      if (t.table == table) return &t;
    }
    return nullptr;
  }
};

/// Registered schema/index shape of one table (planning metadata for the
/// view subsystem: no pins, no data).
struct TableInfo {
  std::string name;
  SchemaPtr schema;
  std::vector<int> indexed_columns;  // one ordinal per index
};

class SnapshotManager {
 public:
  /// \brief Observer of committed append batches (the delta feed of the
  /// materialized-view subsystem).
  ///
  /// When a sink is installed and `wants_deltas()`, every Append commit
  /// hands it the batch's rows tagged with the epoch that commit produced.
  /// OnCommit calls are serialized and arrive in strict epoch order (a
  /// small commit mutex covers the epoch bump and the callback), so the
  /// sink sees a gap-free, ordered delta stream. The callback runs inside
  /// the shared gate section on the appender's thread: it must be quick
  /// (enqueue, don't process) and must never call back into the manager.
  class CommitSink {
   public:
    virtual ~CommitSink() = default;
    /// Polled before capturing a delta; false skips the copy and the
    /// commit mutex entirely (zero overhead while no view is live).
    virtual bool wants_deltas() const = 0;
    virtual void OnCommit(const std::string& table,
                          std::shared_ptr<const RowVec> rows,
                          uint64_t epoch) = 0;
  };

  /// `exec` powers the parallel append path (partition fan-out).
  explicit SnapshotManager(ExecutorContextPtr exec) : exec_(std::move(exec)) {}

  /// Installs (or clears, with nullptr) the commit sink. Not owned; the
  /// sink must outlive all Append calls.
  void SetCommitSink(CommitSink* sink) {
    sink_.store(sink, std::memory_order_release);
  }

  /// Registers a single-index table. Names must be unique.
  Status RegisterTable(const std::string& name, IndexedRelationPtr relation);

  /// Registers a multi-index table: appends through the manager reach all
  /// of its indexes inside one epoch.
  Status RegisterTable(const std::string& name,
                       std::shared_ptr<MultiIndexedTable> table);

  /// Appends one batch to `table` (all its indexes) as a single epoch
  /// step. Concurrent appends to any tables run in parallel; pinners wait.
  Status Append(const std::string& table, const RowVec& rows);

  /// Pin() over every index of every registered table, grouped by table.
  /// Every commit up to the returned epoch has also reached the commit
  /// sink (the view subsystem relies on this to drain its delta queue up
  /// to the pin).
  ServiceSnapshot PinAll();

  /// Pins just `relations` (e.g. the indexes one query reads) at one epoch
  /// boundary: the latest committed epoch. An index no batch has reached
  /// since its last pin keeps that pin — pinning again would only take the
  /// exclusive gate for an identical version — and indexes a query does not
  /// read are never pinned on its behalf.
  /// When every index still has a current pin, no gate is taken at all.
  EpochPins Pin(const std::vector<IndexedRelationPtr>& relations) {
    return PinIndexes(relations, /*require_sunk=*/false);
  }

  /// Registers every table with `session` as one scan leaf whose access
  /// paths are all its indexes, unpinned: a plan over them is pinned
  /// afterwards (Pin + RebindSnapshots) at the epoch it runs at.
  Status RegisterTables(Session& session) const;

  /// Epochs committed so far (monotonic; one per Append batch).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  std::vector<std::string> TableNames() const;

  /// Name, schema, and indexed-column ordinals of every registered table
  /// (the planning metadata Subscribe() needs — no pinning involved).
  std::vector<TableInfo> TableInfos() const;

  /// Every registered IndexedRelation (one per index of every table), for
  /// maintenance machinery such as the Compactor.
  std::vector<IndexedRelationPtr> Relations() const;

 private:
  /// Pin(); with `require_sunk`, the gate-free path is taken only when the
  /// epoch has not moved past the last exclusive section, so every commit
  /// up to the returned epoch has finished its OnCommit call.
  EpochPins PinIndexes(const std::vector<IndexedRelationPtr>& relations,
                       bool require_sunk);

  struct Entry {
    // Every index of the table; one element for single-index tables. The
    // multi-table handle (when present) owns the fan-out append.
    std::vector<IndexedRelationPtr> indexes;
    std::shared_ptr<MultiIndexedTable> multi;
  };

  ExecutorContextPtr exec_;
  // The epoch gate (see file comment). Also guards `tables_` mutation.
  mutable std::shared_mutex gate_;
  std::atomic<uint64_t> epoch_{0};
  std::map<std::string, Entry> tables_;

  // Delta feed. `commit_mu_` makes {epoch bump, OnCommit} atomic so the
  // sink's delta stream is ordered exactly like the epochs; it is taken
  // only when a sink wants deltas, so the plain append path is unchanged.
  std::atomic<CommitSink*> sink_{nullptr};
  std::mutex commit_mu_;

  // Each index's last pin, while it is current: an entry that has gone
  // stale is dropped at the next exclusive section, so a pin no query
  // wants does not keep a retired generation alive. Guarded by cache_mu_
  // (a tiny lock held for pointer copies); written only under the
  // exclusive gate.
  mutable std::mutex cache_mu_;
  std::map<IndexedRelationPtr, PinnedSnapshotPtr> last_pins_;
  // The epoch seen inside the last exclusive section: every commit up to
  // it had finished (OnCommit included) when that section began.
  std::atomic<uint64_t> gated_epoch_{0};
};

}  // namespace idf
