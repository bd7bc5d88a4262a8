// IndexedDataFrame: the public API of the paper (Listing 1).
//
//   // creating an index
//   auto indexed = IndexedDataFrame::CreateIndex(regular_df, col_no);
//   // caching the indexed data frame
//   indexed = indexed->Cache();
//   // looking up keys returns a data frame containing all rows
//   DataFrame result = indexed->GetRows(Value(int64_t{1234}));
//   // appending all the rows of a regular dataframe
//   auto new_indexed = indexed->AppendRows(a_regular_df);
//   // index-powered, efficient join
//   DataFrame joined = indexed->Join(regular_df, "c1", "c2");
//
// An IndexedDataFrame is a DataFrame whose plan reads from an
// IndexedRelation; creating one also installs the indexed Catalyst rules
// into the session, so subsequent regular Filter/Join DataFrame operations
// over it are rewritten to indexed execution transparently.
#pragma once

#include <memory>
#include <string>

#include "indexed/indexed_relation.h"
#include "sql/dataframe.h"
#include "sql/session.h"

namespace idf {

class IndexedDataFrame {
 public:
  /// Builds an index over column ordinal `col_no` of `df` (executes `df`,
  /// hash-partitions the rows by the key, builds the per-partition cTries
  /// and row batches). Installs the indexed optimizer rules and physical
  /// strategy into the session.
  static Result<IndexedDataFrame> CreateIndex(const DataFrame& df, int col_no,
                                              const std::string& name = "indexed");

  /// Same, by column name.
  static Result<IndexedDataFrame> CreateIndex(const DataFrame& df,
                                              const std::string& column,
                                              const std::string& name = "indexed");

  /// The Indexed DataFrame lives in executor memory from creation; Cache()
  /// exists for API parity with Listing 1 and marks the handle cached.
  IndexedDataFrame Cache() const;
  bool cached() const { return cached_; }

  /// Point lookup: returns a (small) DataFrame of all rows with this key.
  DataFrame GetRows(const Value& key) const;

  /// Multi-key lookup (one consistent snapshot across all keys): the plan
  /// form of `col IN (...)` over the index.
  DataFrame GetRowsMulti(std::vector<Value> keys) const;

  /// Appends all rows of `df` (fine-grained or batch mode depending on how
  /// many rows the caller put in `df`); returns a new handle sharing the
  /// underlying multi-versioned storage.
  Result<IndexedDataFrame> AppendRows(const DataFrame& df) const;

  /// Appends raw rows directly (streaming hot path; skips plan execution).
  Status AppendRowsDirect(const RowVec& rows) const;

  /// Index-powered join: this (indexed) relation is the build side, `probe`
  /// is shuffled or broadcast. The result is a regular DataFrame.
  Result<DataFrame> Join(const DataFrame& probe, ExprPtr indexed_key,
                         ExprPtr probe_key) const;
  Result<DataFrame> Join(const DataFrame& probe, const std::string& indexed_col,
                         const std::string& probe_col) const;

  /// View of this indexed relation as a regular DataFrame (scans decode
  /// the binary row batches). Filters/joins on it still get indexed
  /// execution via the optimizer rules.
  DataFrame ToDataFrame() const;

  /// \brief A pinned version: reads are frozen at Pin() time while the
  /// live Indexed DataFrame keeps absorbing appends — the user-facing form
  /// of the cTrie's multi-version concurrency.
  class PinnedView {
   public:
    /// Frozen scan as a DataFrame (composable with Filter/Join/...).
    DataFrame ToDataFrame() const;
    /// Frozen point lookup.
    RowVec GetRows(const Value& key) const { return snapshot_->GetRows(key); }
    uint64_t version() const { return snapshot_->version(); }
    size_t NumRows() const { return snapshot_->num_rows(); }

   private:
    friend class IndexedDataFrame;
    PinnedView(SessionPtr session, IndexedRelationPtr rel,
               PinnedSnapshotPtr snapshot)
        : session_(std::move(session)),
          rel_(std::move(rel)),
          snapshot_(std::move(snapshot)) {}
    SessionPtr session_;
    IndexedRelationPtr rel_;
    PinnedSnapshotPtr snapshot_;
  };

  /// Captures a pinned version (O(partitions); no data copied).
  PinnedView Pin() const;

  const IndexedRelationPtr& relation() const { return rel_; }
  const SessionPtr& session() const { return session_; }
  Result<SchemaPtr> schema() const { return rel_->schema(); }

  /// Number of rows currently visible.
  size_t NumRows() const { return rel_->num_rows(); }

  /// Memory overhead of the index relative to the stored data.
  double IndexOverheadRatio() const;

 private:
  IndexedDataFrame(SessionPtr session, IndexedRelationPtr rel, bool cached)
      : session_(std::move(session)), rel_(std::move(rel)), cached_(cached) {}

  SessionPtr session_;
  IndexedRelationPtr rel_;
  bool cached_ = false;
};

}  // namespace idf
