// Indexed physical operators: the execution layer the paper's Catalyst
// rules dispatch to — IndexedScan (full scan of the row batches),
// IndexLookup (cTrie point lookup), and IndexedEquiJoin (probe-side-only
// shuffle or broadcast against the pre-built index). Every operator reads
// its relation through a ScanSource, pinned or not: one operator per
// access, whatever the version.
#pragma once

#include <optional>

#include "indexed/indexed_relation.h"
#include "sql/physical_operators.h"
#include "sql/physical_plan.h"
#include "sql/predicate_compiler.h"

namespace idf {

/// A filter pushed into a physical read path: an optional compiled program
/// evaluated against the encoded payload (rejected rows are never decoded)
/// plus an optional interpreter residual evaluated on the decoded row. A
/// row survives iff the compiled part Matches() and the residual is TRUE.
struct PushedFilter {
  std::optional<CompiledPredicate> compiled;
  ExprPtr residual;

  bool has_any() const { return compiled.has_value() || residual != nullptr; }

  /// True when either part still references prepared-statement parameters
  /// and must be Bind()-ed before rows are evaluated.
  bool has_params() const {
    return (compiled.has_value() && compiled->has_params()) ||
           (residual != nullptr && ExprHasParameters(residual));
  }

  /// Returns a copy with the compiled program's immediate slots patched
  /// (CompiledPredicate::BindParams — no recompilation) and the residual's
  /// ParameterRefs substituted with literals.
  Result<PushedFilter> Bind(const std::vector<Value>& params) const;

  static PushedFilter FromSplit(PredicateSplit split) {
    return PushedFilter{std::move(split.compiled), std::move(split.residual)};
  }
};

/// The physical form of a RelationRead: the relation every indexed
/// operator reads, plus an optional pin. A pinned source always reads the
/// frozen version; an unpinned one captures a fresh snapshot when its
/// operator starts executing.
struct ScanSource {
  IndexedRelationPtr rel;
  PinnedSnapshotPtr pin;

  ScanSource(IndexedRelationPtr r,  // NOLINT(runtime/explicit)
             PinnedSnapshotPtr p = nullptr)
      : rel(std::move(r)), pin(std::move(p)) {}

  /// The source of a logical read; Internal error for a relation or pin of
  /// a foreign implementation.
  static Result<ScanSource> Of(const RelationRead& read);

  const SchemaPtr& schema() const { return rel->schema(); }
  /// `name`, or `name@vN` when pinned.
  std::string Label() const;

  /// The snapshot to read: the frozen one for a pin (shared with the pin,
  /// not copied: concurrent executions of one pinned plan would contend on
  /// every view's reference counts), otherwise freshly captured.
  std::shared_ptr<const IndexedRelationSnapshot> Snapshot() const {
    if (pin) return {pin, &pin->snapshot()};
    return std::make_shared<const IndexedRelationSnapshot>(rel->Snapshot());
  }
};

/// Full scan of an indexed relation's row batches (decodes binary rows:
/// the row-major representation the paper notes is slower to project than
/// Spark's columnar cache).
class IndexedScanOp : public PhysicalOp {
 public:
  explicit IndexedScanOp(ScanSource source)
      : PhysicalOp(source.schema()), source_(std::move(source)) {}
  std::string name() const override {
    return "IndexedScan[" + source_.Label() + "]";
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
};

/// Fused scan + compiled filter over the row batches: the compiled program
/// runs against the encoded payload (rows it rejects are never decoded),
/// the interpreter residual — if any — runs on the decoded survivors, and
/// only matches materialize (optionally just the projected columns). This
/// is the lazy-decoding advantage of the binary row layout; the planner
/// fuses `[Project over] Filter(pred)` over an IndexedScan into this
/// operator whenever at least one conjunct of the predicate compiles.
class IndexedScanFilterOp : public PhysicalOp {
 public:
  /// `project_cols` empty means "all columns" (then `schema` must be the
  /// relation's schema).
  IndexedScanFilterOp(ScanSource source, ExprPtr predicate, PushedFilter filter,
                      std::vector<int> project_cols = {},
                      SchemaPtr schema = nullptr)
      : PhysicalOp(schema ? std::move(schema) : source.schema()),
        source_(std::move(source)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        project_cols_(std::move(project_cols)) {}
  std::string name() const override {
    return "IndexedScanFilter[" + source_.Label() + "] " + predicate_->ToString() +
           (filter_.compiled ? " (compiled)" : "") +
           (project_cols_.empty() ? "" : " (pruned)");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<int> project_cols_;
};

/// Secondary-index probe: per partition, the view's bitmap or range index
/// yields the matching row positions (several ANDed probes intersect their
/// sorted position lists — the bitmap-AND path) and the payload directory
/// resolves positions to encoded payloads. The survivors feed the same pushed
/// filter + projection machinery as the fused scan. Views lacking the
/// index fall back to a full scan of that partition, so results never
/// depend on index registration racing a query.
class SecondaryIndexProbeOp : public PhysicalOp {
 public:
  /// `probes` ordered driver-first (lowest selectivity); `predicate` is the
  /// original full filter predicate (for display), `filter` the residual
  /// not implied by the probes. `project_cols` empty means "all columns".
  SecondaryIndexProbeOp(ScanSource source, std::vector<SecondaryProbe> probes,
                        ExprPtr predicate, PushedFilter filter,
                        std::vector<int> project_cols = {},
                        SchemaPtr schema = nullptr)
      : PhysicalOp(schema ? std::move(schema) : source.schema()),
        source_(std::move(source)),
        probes_(std::move(probes)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        project_cols_(std::move(project_cols)) {}
  std::string name() const override;
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
  std::vector<SecondaryProbe> probes_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<int> project_cols_;
};

/// Fused scan + column projection over the row batches: decodes only the
/// projected columns per row (column pruning for the row store).
class IndexedScanProjectOp : public PhysicalOp {
 public:
  IndexedScanProjectOp(ScanSource source, std::vector<int> cols,
                       SchemaPtr schema)
      : PhysicalOp(std::move(schema)),
        source_(std::move(source)),
        cols_(std::move(cols)) {}
  std::string name() const override {
    return "IndexedScanProject[" + source_.Label() + "]";
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
  std::vector<int> cols_;
};

/// Fused scan + compiled filter + morsel-parallel partial aggregation over
/// encoded rows: the compiled predicate rejects rows on the payload bytes,
/// then group keys and aggregate inputs are read straight from the
/// surviving payloads via CompiledAccessor — a row whose groups and inputs
/// are all fixed-slot column refs is aggregated without ever materializing
/// a decoded Row (counted in rows_aggregated_encoded). Non-column-ref
/// aggregate args and interpreter residuals decode lazily, once per row.
/// Thread-local partial hash tables per morsel feed the hash-partitioned
/// parallel merge of MergePartialGroups. The planner fuses
/// `Aggregate([Filter] over IndexedScan)` into this operator.
class IndexedScanAggregateOp : public PhysicalOp {
 public:
  /// `predicate` is the original filter predicate (may be null when the
  /// aggregate sits directly on the scan); `schema` is the aggregate's
  /// output schema (group columns then aggregate columns).
  IndexedScanAggregateOp(ScanSource source, ExprPtr predicate,
                         PushedFilter filter, std::vector<ExprPtr> group_exprs,
                         std::vector<AggSpec> aggs, SchemaPtr schema)
      : PhysicalOp(std::move(schema)),
        source_(std::move(source)),
        predicate_(std::move(predicate)),
        filter_(std::move(filter)),
        group_exprs_(std::move(group_exprs)),
        aggs_(std::move(aggs)) {}
  std::string name() const override {
    return "IndexedScanAggregate[" + source_.Label() + "]" +
           (predicate_ ? " " + predicate_->ToString() : "") +
           (filter_.compiled ? " (compiled)" : "");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
  ExprPtr predicate_;
  PushedFilter filter_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
};

/// Point lookup of one or more keys: each key routes to its home partition
/// and the backward-pointer chain is walked. One snapshot — the pin's, or
/// one captured at execution start — covers all keys of a multi-key
/// (IN-list) lookup. A pushed residual filter is applied during the chain
/// walk while the node is cache-hot (the compiled part before decoding, the
/// interpreted part on the decoded row).
class IndexLookupOp : public PhysicalOp {
 public:
  /// `key_params` parallels `keys`: entry i >= 0 marks keys[i] as a
  /// placeholder filled from that prepared-statement parameter ordinal at
  /// execution time (empty = all literal keys).
  IndexLookupOp(ScanSource source, std::vector<Value> keys,
                PushedFilter filter = {}, std::vector<int> key_params = {})
      : PhysicalOp(source.schema()),
        source_(std::move(source)),
        keys_(std::move(keys)),
        filter_(std::move(filter)),
        key_params_(std::move(key_params)) {}
  std::string name() const override;
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource source_;
  std::vector<Value> keys_;
  PushedFilter filter_;
  std::vector<int> key_params_;
};

/// Indexed equi-join. The indexed relation, read at the build source's
/// version, is always the build side ("as it is actually pre-built due to
/// the index"); the probe side is shuffled to the index's hash
/// partitioning, or — when small enough to broadcast efficiently —
/// broadcast to all partitions (paper §2, Indexed Join).
/// Both routings share one probe loop. An optional build-side filter
/// (from a pushed-down predicate on the indexed relation) runs
/// batch-at-a-time on the encoded build rows the chain walks collected,
/// before any of them is decoded or concatenated.
class IndexedJoinOp : public PhysicalOp {
 public:
  IndexedJoinOp(ScanSource build, PhysicalOpPtr probe, ExprPtr probe_key,
                bool indexed_on_left, bool broadcast_probe, SchemaPtr schema,
                PushedFilter build_filter = {})
      : PhysicalOp(std::move(schema), {probe}),
        build_(std::move(build)),
        probe_key_(std::move(probe_key)),
        indexed_on_left_(indexed_on_left),
        broadcast_probe_(broadcast_probe),
        build_filter_(std::move(build_filter)) {}
  std::string name() const override {
    return "IndexedEquiJoin[" + build_.Label() + "] (" +
           (broadcast_probe_ ? "broadcast" : "shuffled") + " probe)" +
           (build_filter_.has_any() ? " (build filtered)" : "");
  }
  Result<PartitionVec> Execute(ExecutorContext& ctx) override;

 private:
  ScanSource build_;
  ExprPtr probe_key_;
  bool indexed_on_left_;
  bool broadcast_probe_;
  PushedFilter build_filter_;
};

}  // namespace idf
