#include "indexed/indexed_operators.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>

#include "sql/aggregate_common.h"
#include "sql/compiled_accessor.h"
#include "sql/vectorized_eval.h"

namespace idf {

Result<PushedFilter> PushedFilter::Bind(const std::vector<Value>& params) const {
  PushedFilter out;
  if (compiled.has_value()) {
    IDF_ASSIGN_OR_RETURN(CompiledPredicate bound, compiled->BindParams(params));
    out.compiled = std::move(bound);
  }
  if (residual != nullptr) {
    IDF_ASSIGN_OR_RETURN(out.residual, SubstituteParameters(residual, params));
  }
  return out;
}

namespace {

/// Resolves an operator's pushed filter against the execution context's
/// bound parameters. Parameter-free filters pass through as a copy.
Result<PushedFilter> BindPushedFilter(const PushedFilter& filter,
                                      ExecutorContext& ctx) {
  if (!filter.has_params()) return filter;
  const std::vector<Value>* params = ctx.parameters();
  if (params == nullptr) {
    return Status::Internal(
        "parameterized pushed filter executed without bound parameters");
  }
  return filter.Bind(*params);
}

/// Resolves lookup key placeholders against the context's bound parameters.
/// A null binding is dropped — `key = NULL` matches no row, exactly like
/// the equivalent ad-hoc comparison.
Result<std::vector<Value>> ResolveLookupKeys(const std::vector<Value>& keys,
                                             const std::vector<int>& key_params,
                                             ExecutorContext& ctx) {
  bool any = false;
  for (int p : key_params) any = any || p >= 0;
  if (!any) return keys;
  const std::vector<Value>* params = ctx.parameters();
  if (params == nullptr) {
    return Status::Internal(
        "parameterized lookup executed without bound parameters");
  }
  std::vector<Value> out;
  out.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const int p = i < key_params.size() ? key_params[i] : -1;
    if (p < 0) {
      out.push_back(keys[i]);
      continue;
    }
    if (static_cast<size_t>(p) >= params->size()) {
      return Status::Internal("lookup key parameter ordinal out of range");
    }
    if ((*params)[static_cast<size_t>(p)].is_null()) continue;
    out.push_back((*params)[static_cast<size_t>(p)]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Morsel-driven execution helpers
//
// Scans read a snapshot block by block: each partition view offers its
// sealed directory blocks (BlockDirectory::kBlockRows rows, with a zone
// map) and then its open tail. The blocks of all partitions form one flat
// index space and ThreadPool::ParallelForRange hands out runs of blocks
// via an atomic cursor, so a skewed partition is processed by many workers
// instead of serializing the query on one partition-granular task. Each
// block walk starts at the block's recorded location; per-chunk outputs
// are reassembled in chunk order, which preserves append order within
// every partition. Other operators (joins, lookups) morsel over their
// probe rows the same way.
//
// Every parallel region is given the context's cancellation token: a
// cancelled or timed-out query drains its remaining morsels without running
// them, and the driver converts the token state into Cancelled /
// DeadlineExceeded instead of returning partial output.
// ---------------------------------------------------------------------------

static_assert(BlockDirectory::kBlockRows == VectorizedPredicate::kBatchRows,
              "a block filters as one vectorized batch");

/// First partition whose flat range contains index `i`.
size_t PartitionOfIndex(const std::vector<size_t>& part_end, size_t i) {
  return static_cast<size_t>(
      std::upper_bound(part_end.begin(), part_end.end(), i) - part_end.begin());
}

/// The block scan driver. Calls `per_block(state, p, view, b, payloads)`
/// for every block `b` of partition `p` that `prune` (when set) cannot rule
/// out, where `state` belongs to the block's morsel (one task owns it, so
/// it needs no locking) and `payloads` are the block's rows in append
/// order. Returns the per-morsel states in morsel order. Rows of walked
/// blocks count as scanned; pruned blocks count as skipped.
template <typename State, typename PerBlock>
Result<std::vector<State>> ScanBlocks(ExecutorContext& ctx,
                                      const IndexedRelationSnapshot& snap,
                                      const CompiledPredicate* prune,
                                      const PerBlock& per_block) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  std::vector<size_t> part_end(num_parts);
  size_t total = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    total += snap.view(static_cast<int>(p)).num_blocks();
    part_end[p] = total;
  }
  const size_t grain = std::max<size_t>(
      1, ctx.MorselGrain(snap.num_rows()) / BlockDirectory::kBlockRows);
  std::vector<State> states(total == 0 ? 0 : (total + grain - 1) / grain);
  const size_t dispatched = ctx.pool().ParallelForRange(
      total, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        State& state = states[begin / grain];
        std::vector<const uint8_t*> payloads;
        payloads.reserve(BlockDirectory::kBlockRows);
        uint64_t scanned = 0;
        uint64_t skipped = 0;
        size_t p = PartitionOfIndex(part_end, begin);
        for (size_t i = begin; i < end; ++i) {
          while (i >= part_end[p]) ++p;
          const IndexedPartition::View& view = snap.view(static_cast<int>(p));
          const uint64_t b = i - (p == 0 ? 0 : part_end[p - 1]);
          if (prune != nullptr && view.BlockSealed(b) &&
              !prune->MayMatch(view.ZoneMap(b))) {
            ++skipped;
            continue;
          }
          payloads.clear();
          view.BlockPayloads(b, &payloads);
          scanned += payloads.size();
          per_block(state, p, view, b, payloads);
        }
        ctx.metrics().AddRowsScanned(scanned);
        if (skipped > 0) ctx.metrics().AddBlocksSkipped(skipped);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  return states;
}

/// Output of one morsel restricted to one partition.
struct MorselPiece {
  size_t partition;
  RowVec rows;
};

/// Chunk-local filter bookkeeping: rows the compiled predicate rejected on
/// the encoded payload (never decoded), vector-path counters, and the
/// first interpreter-residual error. Flushed to the shared metrics/error
/// state once per chunk so the hot loop touches no atomics.
struct ChunkStats {
  uint64_t filtered_encoded = 0;
  uint64_t filtered_vectorized = 0;  // subset of filtered_encoded
  uint64_t vector_batches = 0;
  Status error;
};

/// Flushes a chunk's filter counters to the shared metrics. Encoded
/// rejects also count as avoided decodes (the row never materialized).
void FlushChunkStats(ExecutorContext& ctx, const ChunkStats& stats) {
  if (stats.filtered_encoded > 0) {
    ctx.metrics().AddRowsFilteredEncoded(stats.filtered_encoded);
    ctx.metrics().AddDecodesAvoided(stats.filtered_encoded);
  }
  if (stats.filtered_vectorized > 0) {
    ctx.metrics().AddRowsFilteredVectorized(stats.filtered_vectorized);
  }
  if (stats.vector_batches > 0) {
    ctx.metrics().AddVectorBatches(stats.vector_batches);
  }
}

/// Residual check on a decoded row: TRUE passes, NULL/false rejects, the
/// first Eval error lands in `*error` and rejects.
bool ResidualPasses(const Expr* residual, const Row& row, Status* error) {
  auto v = residual->Eval(row);
  if (!v.ok()) {
    if (error->ok()) *error = v.status();
    return false;
  }
  return !v->is_null() && v->bool_value();
}

/// Reassembles per-chunk pieces into per-partition row vectors; chunk order
/// preserves the original row order within each partition.
PartitionVec AssemblePieces(ExecutorContext& ctx, size_t num_parts,
                            std::vector<std::vector<MorselPiece>>& chunks) {
  // Size pass first: reserving each partition's exact total makes the
  // reassembly a single move per row instead of a realloc chain.
  std::vector<size_t> totals(num_parts, 0);
  uint64_t produced = 0;
  for (const auto& pieces : chunks) {
    for (const MorselPiece& piece : pieces) {
      totals[piece.partition] += piece.rows.size();
      produced += piece.rows.size();
    }
  }
  std::vector<RowVec> rows(num_parts);
  for (auto& pieces : chunks) {
    for (MorselPiece& piece : pieces) {
      RowVec& dst = rows[piece.partition];
      if (dst.empty() && piece.rows.size() == totals[piece.partition]) {
        dst = std::move(piece.rows);  // sole piece: adopt the buffer
        continue;
      }
      if (dst.capacity() < totals[piece.partition]) {
        dst.reserve(totals[piece.partition]);
      }
      dst.insert(dst.end(), std::make_move_iterator(piece.rows.begin()),
                 std::make_move_iterator(piece.rows.end()));
    }
  }
  ctx.metrics().AddRowsProduced(produced);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

/// Block scan for 1:1 row transforms (`per_row(payload)` returns the output
/// row): a block's rows have known output positions, so morsels write
/// directly into the preallocated result — no per-chunk buffers, no
/// reassembly.
template <typename PerRow>
Result<PartitionVec> MorselScanDense(ExecutorContext& ctx,
                                     const IndexedRelationSnapshot& snap,
                                     const PerRow& per_row) {
  const size_t num_parts = static_cast<size_t>(snap.num_partitions());
  std::vector<RowVec> rows(num_parts);
  size_t n = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    rows[p].resize(snap.view(static_cast<int>(p)).num_rows());
    n += rows[p].size();
  }
  struct NoState {};
  IDF_RETURN_NOT_OK(
      ScanBlocks<NoState>(
          ctx, snap, /*prune=*/nullptr,
          [&](NoState&, size_t p, const IndexedPartition::View& view,
              uint64_t b, const std::vector<const uint8_t*>& payloads) {
            Row* dst = rows[p].data() + view.BlockFirstRow(b);
            for (const uint8_t* payload : payloads) *dst++ = per_row(payload);
          })
          .status());
  ctx.metrics().AddRowsProduced(n);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

/// One aggregate's input in the fused scan-aggregate: a compiled accessor
/// reading the argument column straight from the payload, or an expression
/// needing the decoded row. Both empty for COUNT(*).
struct FusedAggInput {
  std::optional<CompiledAccessor> acc;
  const Expr* expr = nullptr;
};

/// UpdateState specialized for a payload-resident input column: SUM/AVG/
/// COUNT fold the raw slot value without boxing; MIN/MAX box once (they
/// keep a Value anyway). Matches UpdateState(.., DecodeColumn(..)) exactly.
void UpdateStateFromPayload(AggState* s, AggFn fn, const CompiledAccessor& acc,
                            const uint8_t* payload) {
  switch (fn) {
    case AggFn::kCountStar:
      ++s->count;
      return;
    case AggFn::kCount:
      if (!acc.IsNull(payload)) ++s->count;
      return;
    case AggFn::kSum:
      if (!acc.IsNull(payload)) {
        s->any = true;
        if (acc.type() == TypeId::kFloat64) {
          s->dsum += acc.GetDouble(payload);
        } else {
          const int64_t v = acc.GetInt64(payload);
          s->isum += v;
          s->dsum += static_cast<double>(v);
        }
      }
      return;
    case AggFn::kAvg:
      if (!acc.IsNull(payload)) {
        s->any = true;
        s->dsum += acc.GetDouble(payload);
        ++s->count;
      }
      return;
    case AggFn::kMin:
    case AggFn::kMax:
      if (!acc.IsNull(payload)) UpdateState(s, fn, acc.GetValue(payload));
      return;
  }
}

/// Materializes one payload that passed the compiled filter: residual check
/// on the decoded row, then the full row or just the projected columns.
/// Shared by the vectorized and residual-only scan-filter paths.
void EmitFilteredRow(const uint8_t* payload, const Schema& schema,
                     const Expr* residual, const std::vector<int>& project_cols,
                     RowVec* out, ChunkStats* stats) {
  if (residual) {
    Row row = DecodeRow(payload, schema);
    if (!ResidualPasses(residual, row, &stats->error)) return;
    if (project_cols.empty()) {
      out->push_back(std::move(row));
    } else {
      Row pruned;
      pruned.reserve(project_cols.size());
      for (int c : project_cols) pruned.push_back(row[static_cast<size_t>(c)]);
      out->push_back(std::move(pruned));
    }
    return;
  }
  if (project_cols.empty()) {
    out->push_back(DecodeRow(payload, schema));
  } else {
    Row row;
    row.reserve(project_cols.size());
    for (int c : project_cols) row.push_back(DecodeColumn(payload, schema, c));
    out->push_back(std::move(row));
  }
}

/// The chunk's output piece for partition `p`: blocks arrive in append
/// order, so only the last piece can belong to `p` already.
RowVec& PieceFor(std::vector<MorselPiece>* pieces, size_t p) {
  if (pieces->empty() || pieces->back().partition != p) {
    pieces->push_back(MorselPiece{p, {}});
  }
  return pieces->back().rows;
}

/// Per-morsel state of the filtering scans.
struct FilterChunk {
  std::vector<MorselPiece> pieces;
  ChunkStats stats;
  VectorScratch vs;
  std::vector<uint32_t> sel;
};

/// Block-at-a-time scan-filter driver: the compiled program (when set)
/// skips every block its zone map rules out, evaluates each remaining block
/// at once (sql/vectorized_eval.h), and only the selection-vector survivors
/// materialize. Without a compiled part every row goes to the residual.
/// Output is identical to running Matches row-at-a-time over every row.
Result<PartitionVec> ScanFilter(ExecutorContext& ctx,
                                const IndexedRelationSnapshot& snap,
                                const Schema& schema,
                                const CompiledPredicate* compiled,
                                const Expr* residual,
                                const std::vector<int>& project_cols) {
  std::optional<VectorizedPredicate> vec;
  if (compiled != nullptr) vec.emplace(*compiled);
  IDF_ASSIGN_OR_RETURN(
      std::vector<FilterChunk> states,
      ScanBlocks<FilterChunk>(
          ctx, snap, compiled,
          [&](FilterChunk& st, size_t p, const IndexedPartition::View&,
              uint64_t, const std::vector<const uint8_t*>& payloads) {
            const size_t cnt = payloads.size();
            RowVec& out = PieceFor(&st.pieces, p);
            if (!vec) {
              for (const uint8_t* payload : payloads) {
                EmitFilteredRow(payload, schema, residual, project_cols, &out,
                                &st.stats);
              }
              return;
            }
            if (st.sel.size() < cnt) st.sel.resize(cnt);
            const size_t kept =
                vec->FilterBatch(payloads.data(), cnt, st.sel.data(), &st.vs);
            st.stats.vector_batches += VectorizedPredicate::NumBatches(cnt);
            st.stats.filtered_vectorized += cnt - kept;
            st.stats.filtered_encoded += cnt - kept;
            for (size_t j = 0; j < kept; ++j) {
              EmitFilteredRow(payloads[st.sel[j]], schema, residual,
                              project_cols, &out, &st.stats);
            }
          }));
  std::vector<std::vector<MorselPiece>> chunks;
  chunks.reserve(states.size());
  for (FilterChunk& st : states) FlushChunkStats(ctx, st.stats);
  for (FilterChunk& st : states) {
    IDF_RETURN_NOT_OK(st.stats.error);
    chunks.push_back(std::move(st.pieces));
  }
  return AssemblePieces(ctx, static_cast<size_t>(snap.num_partitions()), chunks);
}

/// Folds the selected lanes of one fused-aggregate input straight off the
/// encoded payloads. Integer SUM and the COUNTs fold branch-free over the
/// selection vector (a null lane contributes a masked zero, which is exact
/// for integers — and for the shadow double sum, whose partial results are
/// never -0.0); float SUM/AVG keep the null guard so the running double
/// accumulation stays bit-identical to UpdateStateFromPayload (adding +0.0
/// could flip a -0.0 accumulator); MIN/MAX box once per selected lane, as
/// UpdateStateFromPayload does.
void AccumulateSelectedLanes(AggState* s, AggFn fn,
                             const std::optional<CompiledAccessor>& acc_opt,
                             const uint8_t* const* payloads,
                             const uint32_t* sel, size_t kept) {
  if (fn == AggFn::kCountStar) {
    s->count += kept;
    return;
  }
  const CompiledAccessor& acc = *acc_opt;
  switch (fn) {
    case AggFn::kCountStar:
      return;  // handled above; no accessor to read
    case AggFn::kCount: {
      uint64_t c = 0;
      for (size_t j = 0; j < kept; ++j) {
        c += acc.IsNull(payloads[sel[j]]) ? 0u : 1u;
      }
      s->count += c;
      return;
    }
    case AggFn::kSum:
      if (acc.type() == TypeId::kFloat64) {
        for (size_t j = 0; j < kept; ++j) {
          const uint8_t* payload = payloads[sel[j]];
          if (!acc.IsNull(payload)) {
            s->any = true;
            s->dsum += acc.GetDouble(payload);
          }
        }
      } else {
        uint64_t nonnull = 0;
        for (size_t j = 0; j < kept; ++j) {
          const uint8_t* payload = payloads[sel[j]];
          // A null lane reads its (defined but meaningless) slot bytes and
          // folds a masked zero — no branch in the loop body.
          const int64_t m = acc.IsNull(payload) ? 0 : 1;
          const int64_t v = m * acc.GetInt64(payload);
          s->isum += v;
          s->dsum += static_cast<double>(v);
          nonnull += static_cast<uint64_t>(m);
        }
        if (nonnull > 0) s->any = true;
      }
      return;
    case AggFn::kAvg:
      for (size_t j = 0; j < kept; ++j) {
        const uint8_t* payload = payloads[sel[j]];
        if (!acc.IsNull(payload)) {
          s->any = true;
          s->dsum += acc.GetDouble(payload);
          ++s->count;
        }
      }
      return;
    case AggFn::kMin:
    case AggFn::kMax:
      for (size_t j = 0; j < kept; ++j) {
        const uint8_t* payload = payloads[sel[j]];
        if (!acc.IsNull(payload)) UpdateState(s, fn, acc.GetValue(payload));
      }
      return;
  }
}

/// The build side as the join's probe loop sees it: the compiled filter's
/// batch form (null when no compilable filter was pushed), the interpreter
/// residual on decoded build rows, and the output column order.
struct JoinBuildSide {
  const Schema& schema;
  const VectorizedPredicate* filter;
  const Expr* residual;
  bool indexed_on_left;
};

/// Build-side candidates of one join probe segment: chain walks append
/// (encoded build row, probe id) pairs, and Flush filters them
/// batch-at-a-time before any row decodes. A probe's candidates are
/// contiguous (appended during its chain walk), which the memoized decode
/// of shuffled probe rows relies on.
class BuildCandidates {
 public:
  /// Pending candidates at which a segment flushes early, so survivors
  /// decode while their build payloads are still cache-resident.
  static constexpr size_t kFlushAt = VectorizedPredicate::kBatchRows;

  void Add(const uint8_t* payload, size_t probe_id) {
    payloads_.push_back(payload);
    probe_.push_back(probe_id);
  }
  size_t size() const { return payloads_.size(); }

  /// Emits the surviving concatenated rows in probe-major chain order.
  /// `probe_row_of(probe_id)` supplies the probe row (possibly decoding it
  /// lazily); it runs before the build residual, so a probe row
  /// materializes once any of its candidates passes the compiled filter.
  template <typename ProbeRowFn>
  void Flush(const JoinBuildSide& build, RowVec* out, ChunkStats* stats,
             ProbeRowFn&& probe_row_of) {
    const size_t n = payloads_.size();
    if (n == 0) return;
    size_t kept = n;
    if (build.filter != nullptr) {
      if (sel_.size() < n) sel_.resize(n);
      kept = build.filter->FilterBatch(payloads_.data(), n, sel_.data(), &vs_);
      stats->vector_batches += VectorizedPredicate::NumBatches(n);
      stats->filtered_vectorized += n - kept;
      stats->filtered_encoded += n - kept;
    }
    for (size_t j = 0; j < kept; ++j) {
      const size_t c = build.filter != nullptr ? sel_[j] : j;
      const Row& probe_row = probe_row_of(probe_[c]);
      Row build_row = DecodeRow(payloads_[c], build.schema);
      if (build.residual &&
          !ResidualPasses(build.residual, build_row, &stats->error)) {
        continue;
      }
      out->push_back(build.indexed_on_left ? ConcatRows(build_row, probe_row)
                                           : ConcatRows(probe_row, build_row));
    }
    payloads_.clear();
    probe_.clear();
  }

 private:
  std::vector<const uint8_t*> payloads_;
  std::vector<size_t> probe_;
  std::vector<uint32_t> sel_;
  VectorScratch vs_;
};

/// Point-lookup driver: each key routes to
/// its home partition and the backward-pointer chain is walked, applying a
/// pushed filter while each node is cache-hot — the compiled part against
/// the encoded payload (rejects never decode), the residual on the decoded
/// row. Lookups are heavier per item than scan rows (trie descent + chain
/// walk), so an IN-list splits into small per-task key ranges instead of
/// counting as one task.
Result<PartitionVec> LookupKeys(ExecutorContext& ctx,
                                const IndexedRelationSnapshot& snap,
                                const std::vector<Value>& keys,
                                const PushedFilter& filter) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const Schema& schema = *snap.schema();
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();
  const size_t n = keys.size();
  const size_t threads = static_cast<size_t>(ctx.config().num_threads);
  const size_t grain = std::max<size_t>(
      1, std::min(ctx.config().morsel_rows, (n + threads * 4 - 1) / (threads * 4)));
  std::vector<RowVec> chunks(n == 0 ? 0 : (n + grain - 1) / grain);
  Status first_error;
  std::mutex error_mu;
  size_t dispatched = ctx.pool().ParallelForRange(
      n, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        RowVec rows;
        uint64_t hits = 0;
        ChunkStats stats;
        for (size_t k = begin; k < end; ++k) {
          const Value& key = keys[k];
          const IndexedPartition::View& view =
              snap.view(snap.partitioner().PartitionOf(key));
          size_t matched = view.ForEachRawRow(key, [&](const uint8_t* payload) {
            if (compiled && !compiled->Matches(payload)) {
              ++stats.filtered_encoded;
              return;
            }
            Row row = DecodeRow(payload, schema);
            if (residual && !ResidualPasses(residual, row, &stats.error)) return;
            rows.push_back(std::move(row));
          });
          if (matched > 0) ++hits;
        }
        ctx.metrics().AddIndexProbes(end - begin);
        ctx.metrics().AddIndexHits(hits);
        FlushChunkStats(ctx, stats);
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
        chunks[begin / grain] = std::move(rows);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  RowVec rows;
  for (RowVec& c : chunks) {
    rows.insert(rows.end(), std::make_move_iterator(c.begin()),
                std::make_move_iterator(c.end()));
  }
  ctx.metrics().AddRowsProduced(rows.size());
  PartitionVec out;
  out.push_back(PartitionData(std::move(rows)));
  return out;
}

}  // namespace

Result<ScanSource> ScanSource::Of(const RelationRead& read) {
  auto rel = std::dynamic_pointer_cast<IndexedRelation>(read.rel);
  if (rel == nullptr) {
    return Status::Internal("indexed read of a foreign relation type: " +
                            read.name());
  }
  auto pin = std::dynamic_pointer_cast<PinnedSnapshot>(read.pin);
  if (read.pin != nullptr && pin == nullptr) {
    return Status::Internal("indexed read at a foreign snapshot type: " +
                            read.name());
  }
  return ScanSource(std::move(rel), std::move(pin));
}

std::string ScanSource::Label() const { return RelationRead(rel, pin).Label(); }

Result<PartitionVec> IndexedScanOp::Execute(ExecutorContext& ctx) {
  const auto snap = source_.Snapshot();
  const Schema& schema = *source_.schema();
  return MorselScanDense(ctx, *snap, [&schema](const uint8_t* payload) {
    return DecodeRow(payload, schema);
  });
}

Result<PartitionVec> IndexedScanFilterOp::Execute(ExecutorContext& ctx) {
  const auto snap = source_.Snapshot();
  const Schema& schema = *source_.schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();
  // Encoded-first: the compiled program prunes blocks and evaluates
  // batch-at-a-time on the payloads, so rows it rejects are never decoded.
  // A filter with no compilable part runs its residual on every decoded
  // row.
  return ScanFilter(ctx, *snap, schema, compiled, residual, project_cols_);
}

std::string SecondaryIndexProbeOp::name() const {
  std::string out = "SecondaryIndexProbe[" + source_.Label() + "] ";
  for (size_t i = 0; i < probes_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += probes_[i].ToString();
  }
  if (filter_.has_any()) out += " (+residual)";
  if (!project_cols_.empty()) out += " (pruned)";
  return out;
}

Result<PartitionVec> SecondaryIndexProbeOp::Execute(ExecutorContext& ctx) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  const auto snap = source_.Snapshot();
  const Schema& schema = *source_.schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();

  // Partition-granular parallelism: a selective probe emits few rows per
  // partition, so the morsel machinery's flattening would cost more than
  // it balances. Each task probes its view's index (or falls back to a
  // full partition scan) and filters/projects the survivors in place.
  const size_t num_parts = static_cast<size_t>(snap->num_partitions());
  std::vector<RowVec> rows(num_parts);
  std::vector<ChunkStats> part_stats(num_parts);
  std::atomic<uint64_t> bitmap_probes{0};
  std::atomic<uint64_t> range_probes{0};
  std::atomic<uint64_t> scans_avoided{0};
  std::atomic<uint64_t> rows_scanned{0};
  ctx.pool().ParallelFor(
      num_parts,
      [&](size_t p) {
        ctx.metrics().AddTask();
        std::vector<const uint8_t*> payloads;
        SecondaryProbeStats pstats;
        snap->view(static_cast<int>(p))
            .ProbeSecondary(probes_, &payloads, &pstats);
        if (pstats.used_index) {
          for (const SecondaryProbe& probe : probes_) {
            if (probe.kind == SecondaryIndexKind::kBitmap) {
              bitmap_probes.fetch_add(1, std::memory_order_relaxed);
            } else {
              range_probes.fetch_add(1, std::memory_order_relaxed);
            }
          }
          scans_avoided.fetch_add(pstats.rows_avoided,
                                  std::memory_order_relaxed);
        }
        rows_scanned.fetch_add(pstats.rows_examined, std::memory_order_relaxed);
        ChunkStats& stats = part_stats[p];
        RowVec& dst = rows[p];
        dst.reserve(payloads.size());
        for (const uint8_t* payload : payloads) {
          if (compiled != nullptr && !compiled->Matches(payload)) {
            ++stats.filtered_encoded;
            continue;
          }
          EmitFilteredRow(payload, schema, residual, project_cols_, &dst,
                          &stats);
        }
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddBitmapProbes(bitmap_probes.load(std::memory_order_relaxed));
  ctx.metrics().AddRangeProbes(range_probes.load(std::memory_order_relaxed));
  ctx.metrics().AddIndexScansAvoided(
      scans_avoided.load(std::memory_order_relaxed));
  ctx.metrics().AddRowsScanned(rows_scanned.load(std::memory_order_relaxed));
  size_t produced = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    FlushChunkStats(ctx, part_stats[p]);
    IDF_RETURN_NOT_OK(part_stats[p].error);
    produced += rows[p].size();
  }
  ctx.metrics().AddRowsProduced(produced);
  PartitionVec out;
  out.reserve(num_parts);
  for (RowVec& r : rows) out.push_back(PartitionData(std::move(r)));
  return out;
}

Result<PartitionVec> IndexedScanProjectOp::Execute(ExecutorContext& ctx) {
  const auto snap = source_.Snapshot();
  const Schema& schema = *source_.schema();
  return MorselScanDense(ctx, *snap, [this, &schema](const uint8_t* payload) {
    Row row;
    row.reserve(cols_.size());
    for (int c : cols_) row.push_back(DecodeColumn(payload, schema, c));
    return row;
  });
}

Result<PartitionVec> IndexedScanAggregateOp::Execute(ExecutorContext& ctx) {
  const auto snap = source_.Snapshot();
  const Schema& schema = *source_.schema();
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  if (filter.compiled) ctx.metrics().AddPredicatesCompiled(1);
  const CompiledPredicate* compiled =
      filter.compiled ? &*filter.compiled : nullptr;
  const Expr* residual = filter.residual.get();

  const size_t num_groups = group_exprs_.size();
  const size_t num_aggs = aggs_.size();
  std::vector<TypeId> out_types;
  out_types.reserve(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    out_types.push_back(
        this->schema()->field(static_cast<int>(num_groups + a)).type);
  }

  // The fusion rule only builds this operator when every group expression
  // is a bound column reference, so the key reads straight off the payload.
  std::vector<CompiledAccessor> key_acc;
  key_acc.reserve(num_groups);
  for (const ExprPtr& g : group_exprs_) {
    auto acc = CompiledAccessor::FromExpr(g, schema);
    if (!acc) {
      return Status::Internal(
          "IndexedScanAggregate group expression is not a bound column ref");
    }
    key_acc.push_back(*acc);
  }
  std::vector<FusedAggInput> inputs(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (aggs_[a].fn == AggFn::kCountStar) continue;
    auto acc = CompiledAccessor::FromExpr(aggs_[a].arg, schema);
    if (acc) {
      inputs[a].acc = *acc;
    } else {
      inputs[a].expr = aggs_[a].arg.get();
    }
  }

  std::optional<VectorizedPredicate> vec;
  if (compiled != nullptr) vec.emplace(*compiled);
  // Ungrouped aggregates whose every input reads straight off the payload
  // (or is COUNT(*)), with no residual, accumulate over the selection
  // vector without building a key or touching a Row at all.
  bool ungrouped_fast = num_groups == 0 && residual == nullptr;
  for (size_t a = 0; a < num_aggs && ungrouped_fast; ++a) {
    if (aggs_[a].fn != AggFn::kCountStar && !inputs[a].acc) {
      ungrouped_fast = false;
    }
  }

  struct AggChunk {
    GroupStateMap groups;
    ChunkStats stats;
    uint64_t encoded_rows = 0;
    VectorScratch vs;
    // Selection vector of one batch; without a compiled filter it stays
    // the identity (every lane survives).
    std::vector<uint32_t> sel;
  };
  // Accumulates one row that passed the compiled filter.
  auto accumulate_row = [&](AggChunk& st, const uint8_t* payload) {
    Row decoded;
    bool has_decoded = false;
    if (residual) {
      decoded = DecodeRow(payload, schema);
      has_decoded = true;
      if (!ResidualPasses(residual, decoded, &st.stats.error)) return;
    }
    Row key;
    key.reserve(num_groups);
    for (const CompiledAccessor& acc : key_acc) {
      key.push_back(acc.GetValue(payload));
    }
    auto [it, inserted] = st.groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (inputs[a].acc) {
        UpdateStateFromPayload(&it->second[a], aggs_[a].fn, *inputs[a].acc,
                               payload);
      } else if (inputs[a].expr != nullptr) {
        if (!has_decoded) {
          decoded = DecodeRow(payload, schema);
          has_decoded = true;
        }
        auto v = inputs[a].expr->Eval(decoded);
        if (!v.ok()) {
          if (st.stats.error.ok()) st.stats.error = v.status();
          continue;
        }
        UpdateState(&it->second[a], aggs_[a].fn, std::move(v).ValueUnsafe());
      } else {
        ++it->second[a].count;  // COUNT(*)
      }
    }
    if (!has_decoded) ++st.encoded_rows;
  };
  IDF_ASSIGN_OR_RETURN(
      std::vector<AggChunk> states,
      ScanBlocks<AggChunk>(
          ctx, *snap, compiled,
          [&](AggChunk& st, size_t, const IndexedPartition::View&, uint64_t,
              const std::vector<const uint8_t*>& block) {
            if (st.sel.empty()) {
              st.sel.resize(VectorizedPredicate::kBatchRows);
              std::iota(st.sel.begin(), st.sel.end(), 0u);
            }
            // One kBatchRows batch at a time (only an open tail holds
            // more): filter, then accumulate the survivors while their
            // payloads are still cache-resident.
            for (size_t i = 0; i < block.size();
                 i += VectorizedPredicate::kBatchRows) {
              const uint8_t* const* payloads = block.data() + i;
              const size_t cnt =
                  std::min(block.size() - i, VectorizedPredicate::kBatchRows);
              size_t kept = cnt;
              if (vec) {
                kept = vec->FilterBatch(payloads, cnt, st.sel.data(), &st.vs);
                ++st.stats.vector_batches;
                st.stats.filtered_vectorized += cnt - kept;
                st.stats.filtered_encoded += cnt - kept;
              }
              if (kept == 0) continue;
              if (ungrouped_fast) {
                auto [it, inserted] = st.groups.try_emplace(Row{});
                if (inserted) it->second.resize(num_aggs);
                for (size_t a = 0; a < num_aggs; ++a) {
                  AccumulateSelectedLanes(&it->second[a], aggs_[a].fn,
                                          inputs[a].acc, payloads,
                                          st.sel.data(), kept);
                }
                st.encoded_rows += kept;
              } else {
                for (size_t j = 0; j < kept; ++j) {
                  accumulate_row(st, payloads[st.sel[j]]);
                }
              }
            }
          }));
  ctx.metrics().AddAggMorsels(states.size());
  std::vector<GroupStateMap> chunk_maps;
  chunk_maps.reserve(states.size());
  for (AggChunk& st : states) {
    FlushChunkStats(ctx, st.stats);
    if (st.encoded_rows > 0) {
      ctx.metrics().AddRowsAggregatedEncoded(st.encoded_rows);
      ctx.metrics().AddDecodesAvoided(st.encoded_rows);
    }
  }
  for (AggChunk& st : states) {
    IDF_RETURN_NOT_OK(st.stats.error);
    chunk_maps.push_back(std::move(st.groups));
  }
  return MergePartialGroups(ctx, std::move(chunk_maps), num_groups, aggs_,
                            out_types);
}

std::string IndexLookupOp::name() const {
  std::string out = "IndexLookup[" + source_.Label() + "] key=";
  if (filter_.has_any()) out = "Filtered" + out;
  if (keys_.size() != 1) {
    return out + "{" + std::to_string(keys_.size()) + " keys}";
  }
  return out + (!key_params_.empty() && key_params_[0] >= 0
                    ? "$" + std::to_string(key_params_[0] + 1)
                    : keys_[0].ToString());
}

Result<PartitionVec> IndexLookupOp::Execute(ExecutorContext& ctx) {
  const auto snap = source_.Snapshot();
  IDF_ASSIGN_OR_RETURN(std::vector<Value> keys,
                       ResolveLookupKeys(keys_, key_params_, ctx));
  IDF_ASSIGN_OR_RETURN(PushedFilter filter, BindPushedFilter(filter_, ctx));
  return LookupKeys(ctx, *snap, keys, filter);
}

Result<PartitionVec> IndexedJoinOp::Execute(ExecutorContext& ctx) {
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  IDF_ASSIGN_OR_RETURN(PartitionVec probe_parts, children()[0]->Execute(ctx));
  const auto snap = build_.Snapshot();
  const Schema& probe_schema = *children()[0]->schema();
  const size_t num_parts = static_cast<size_t>(snap->num_partitions());

  // Build-side filter from a pushed-down predicate on the indexed
  // relation: the compiled part runs batch-at-a-time on the encoded build
  // rows a chain walk collected (rejects are never decoded or
  // concatenated), the residual on the decoded build row.
  IDF_ASSIGN_OR_RETURN(PushedFilter build_filter,
                       BindPushedFilter(build_filter_, ctx));
  std::optional<VectorizedPredicate> build_vec;
  if (build_filter.compiled) {
    ctx.metrics().AddPredicatesCompiled(1);
    build_vec.emplace(*build_filter.compiled);
  }
  const JoinBuildSide build{*build_.schema(),
                            build_vec ? &*build_vec : nullptr,
                            build_filter.residual.get(), indexed_on_left_};

  // Every probe row is routed to the partition that owns its key (hash
  // partitioning makes ownership exact); null keys never match and are
  // dropped. A broadcast probe stays one shared row vector: keys evaluate
  // once and each partition lists the rows it owns. A shuffled probe
  // crosses the binary exchange encoded (the build side moves nothing: it
  // is the index) and decodes lazily — only the key column when the key
  // is a bound column ref, the full row once a candidate survives.
  BroadcastRows bc;
  std::vector<Value> keys;                 // broadcast: per probe row
  std::vector<std::vector<size_t>> owned;  // broadcast: rows per partition
  BinaryPartitions shuffled;               // shuffled: rows per partition
  if (broadcast_probe_) {
    bc = MakeBroadcast(ctx, CollectRows(probe_parts));
    keys.resize(bc.rows->size());
    owned.resize(num_parts);
    for (size_t r = 0; r < bc.rows->size(); ++r) {
      IDF_ASSIGN_OR_RETURN(Value key, probe_key_->Eval((*bc.rows)[r]));
      if (key.is_null()) continue;
      owned[static_cast<size_t>(snap->partitioner().PartitionOf(key))].push_back(r);
      keys[r] = std::move(key);
    }
  } else {
    IDF_ASSIGN_OR_RETURN(shuffled,
                         ShuffleEncodedByKeyExpr(ctx, probe_parts, probe_schema,
                                                 probe_key_, snap->partitioner()));
  }
  int probe_key_col = -1;
  if (probe_key_->kind() == ExprKind::kColumnRef) {
    const auto* ref = static_cast<const ColumnRefExpr*>(probe_key_.get());
    if (ref->bound()) probe_key_col = ref->index();
  }
  std::vector<size_t> part_end(num_parts);
  size_t total = 0;
  for (size_t p = 0; p < num_parts; ++p) {
    total += broadcast_probe_ ? owned[p].size() : shuffled[p].num_rows();
    part_end[p] = total;
  }

  // One probe loop for both routings: each morsel walks the index chain of
  // every probe row it owns, collecting build candidates that flush
  // through the build filter into concatenated rows.
  const size_t grain = ctx.MorselGrain(total);
  std::vector<std::vector<MorselPiece>> chunks(
      total == 0 ? 0 : (total + grain - 1) / grain);
  Status first_error;
  std::mutex error_mu;
  size_t dispatched = ctx.pool().ParallelForRange(
      total, grain,
      [&](size_t begin, size_t end) {
        ctx.metrics().AddTask();
        std::vector<MorselPiece> pieces;
        uint64_t probes = 0;
        uint64_t hits = 0;
        uint64_t avoided = 0;
        ChunkStats stats;
        BuildCandidates cand;
        size_t i = begin;
        size_t p = PartitionOfIndex(part_end, begin);
        while (i < end) {
          const size_t pstart = p == 0 ? 0 : part_end[p - 1];
          const size_t pend = std::min(end, part_end[p]);
          const IndexedPartition::View& view = snap->view(static_cast<int>(p));
          MorselPiece piece{p, {}};
          // Broadcast probe ids index the shared rows; a shuffled probe row
          // decodes on its first surviving candidate and serves the rest.
          size_t last = static_cast<size_t>(-1);
          Row decoded;
          uint64_t materialized = 0;
          auto probe_row_of = [&](size_t id) -> const Row& {
            if (broadcast_probe_) return (*bc.rows)[id];
            if (id != last) {
              decoded = DecodeRow(shuffled[p].payload(id), probe_schema);
              last = id;
              ++materialized;
            }
            return decoded;
          };
          const size_t seg_begin = i;
          for (; i < pend; ++i) {
            size_t id = i - pstart;
            Value decoded_key;
            const Value* key = &decoded_key;
            if (broadcast_probe_) {
              id = owned[p][id];
              key = &keys[id];
            } else if (probe_key_col >= 0) {
              decoded_key = DecodeColumn(shuffled[p].payload(id), probe_schema,
                                         probe_key_col);
            } else {
              auto v = probe_key_->Eval(
                  DecodeRow(shuffled[p].payload(id), probe_schema));
              if (!v.ok()) {
                if (stats.error.ok()) stats.error = v.status();
                continue;
              }
              decoded_key = std::move(v).ValueUnsafe();
            }
            ++probes;
            size_t matched = view.ForEachRawRow(
                *key, [&](const uint8_t* payload) { cand.Add(payload, id); });
            if (matched > 0) ++hits;
            if (cand.size() >= BuildCandidates::kFlushAt) {
              cand.Flush(build, &piece.rows, &stats, probe_row_of);
            }
          }
          cand.Flush(build, &piece.rows, &stats, probe_row_of);
          if (!broadcast_probe_ && probe_key_col >= 0) {
            avoided += (pend - seg_begin) - materialized;
          }
          if (!piece.rows.empty()) pieces.push_back(std::move(piece));
          ++p;
        }
        ctx.metrics().AddIndexProbes(probes);
        ctx.metrics().AddIndexHits(hits);
        ctx.metrics().AddDecodesAvoided(avoided);
        FlushChunkStats(ctx, stats);
        if (!stats.error.ok()) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (first_error.ok()) first_error = stats.error;
        }
        chunks[begin / grain] = std::move(pieces);
      },
      ctx.cancellation());
  IDF_RETURN_NOT_OK(first_error);
  IDF_RETURN_NOT_OK(ctx.CheckCancelled());
  ctx.metrics().AddMorsels(dispatched);
  return AssemblePieces(ctx, num_parts, chunks);
}

}  // namespace idf
