#include "indexed/indexed_rules.h"

#include <algorithm>

#include "indexed/indexed_operators.h"
#include "sql/compiled_accessor.h"
#include "sql/index_costing.h"

namespace idf {

namespace {

/// Flattens an AND tree into conjuncts.
void CollectConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr*>(expr.get())->op() == LogicalOp::kAnd) {
    CollectConjuncts(expr->children()[0], out);
    CollectConjuncts(expr->children()[1], out);
    return;
  }
  out->push_back(expr);
}

ExprPtr ConjoinAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) acc = And(acc, conjuncts[i]);
  return acc;
}

/// Ordinal of `key` when it is a plain bound column reference, else -1.
int KeyColumn(const ExprPtr& key) {
  if (key->kind() != ExprKind::kColumnRef) return -1;
  const auto* ref = static_cast<const ColumnRefExpr*>(key.get());
  return ref->bound() ? ref->index() : -1;
}

/// Matches an OR-tree of `col = literal` / `col = $n` comparisons all on
/// column `want_col` (the desugared form of `col IN (...)`), collecting
/// the literals. A parameter equality contributes a placeholder key plus
/// its ordinal in `key_params` (literal keys record -1), to be resolved
/// from the bound parameters at execution time.
bool MatchInList(const ExprPtr& expr, int want_col, std::vector<Value>* keys,
                 std::vector<int>* key_params, bool* any_param) {
  if (expr->kind() == ExprKind::kLogical &&
      static_cast<const LogicalExpr*>(expr.get())->op() == LogicalOp::kOr) {
    return MatchInList(expr->children()[0], want_col, keys, key_params,
                       any_param) &&
           MatchInList(expr->children()[1], want_col, keys, key_params,
                       any_param);
  }
  int col = -1;
  Value literal;
  if (MatchEqualityFilter(expr, &col, &literal)) {
    if (col != want_col) return false;
    keys->push_back(std::move(literal));
    key_params->push_back(-1);
    return true;
  }
  // `col = $n` (either order): the lookup key arrives with the bindings.
  if (expr->kind() != ExprKind::kComparison) return false;
  const auto* cmp = static_cast<const ComparisonExpr*>(expr.get());
  if (cmp->op() != CompareOp::kEq) return false;
  const ExprPtr& l = cmp->left();
  const ExprPtr& r = cmp->right();
  const ExprPtr& col_side = l->kind() == ExprKind::kColumnRef ? l : r;
  const ExprPtr& param_side = l->kind() == ExprKind::kColumnRef ? r : l;
  if (col_side->kind() != ExprKind::kColumnRef ||
      param_side->kind() != ExprKind::kParameterRef) {
    return false;
  }
  const auto* ref = static_cast<const ColumnRefExpr*>(col_side.get());
  if (!ref->bound() || ref->index() != want_col) return false;
  keys->push_back(Value());  // placeholder, filled at bind time
  key_params->push_back(
      static_cast<const ParameterRefExpr*>(param_side.get())->ordinal());
  *any_param = true;
  return true;
}

}  // namespace

Result<LogicalPlanPtr> IndexedFilterRule::Apply(const LogicalPlanPtr& node) const {
  if (node->kind() != PlanKind::kFilter) return LogicalPlanPtr(nullptr);
  const auto* filter = static_cast<const FilterNode*>(node.get());
  const LogicalPlanPtr& child = filter->children()[0];
  if (child->kind() != PlanKind::kIndexedScan) return LogicalPlanPtr(nullptr);
  const auto* scan = static_cast<const IndexedScanNode*>(child.get());

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(filter->predicate(), &conjuncts);
  // Access paths in registration order, so the first index wins when
  // several could serve the filter; the lookup reads the path at the
  // scan's version (a pinned path keeps its per-partition tries).
  for (const RelationRead& path : scan->access_paths()) {
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      // Single equality, or an OR-of-equalities on the indexed column (the
      // desugared `col IN (...)`) — both become (multi-key) index lookups.
      // Prepared-statement parameter equalities become placeholder key
      // slots.
      std::vector<Value> keys;
      std::vector<int> key_params;
      bool any_param = false;
      if (!MatchInList(conjuncts[i], path.indexed_column(), &keys, &key_params,
                       &any_param)) {
        continue;
      }
      if (!any_param) key_params.clear();
      LogicalPlanPtr lookup = std::make_shared<IndexedLookupNode>(
          path, std::move(keys), std::move(key_params));
      std::vector<ExprPtr> rest;
      for (size_t j = 0; j < conjuncts.size(); ++j) {
        if (j != i) rest.push_back(conjuncts[j]);
      }
      if (rest.empty()) return lookup;
      return LogicalPlanPtr(std::make_shared<FilterNode>(
          std::move(lookup), ConjoinAll(rest), node->output_schema()));
    }
  }
  return LogicalPlanPtr(nullptr);
}

Result<LogicalPlanPtr> SecondaryIndexFilterRule::Apply(
    const LogicalPlanPtr& node) const {
  if (max_selectivity_ <= 0.0) return LogicalPlanPtr(nullptr);
  if (node->kind() != PlanKind::kFilter) return LogicalPlanPtr(nullptr);
  const auto* filter = static_cast<const FilterNode*>(node.get());
  const LogicalPlanPtr& child = filter->children()[0];
  if (child->kind() != PlanKind::kIndexedScan) return LogicalPlanPtr(nullptr);
  // Secondary indexes are registered on every access path of a table, so
  // the scanned path serves the probe.
  const RelationRead& read =
      static_cast<const IndexedScanNode*>(child.get())->read();
  const size_t total_rows = read.num_rows();

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(filter->predicate(), &conjuncts);
  auto kind_of = [&read](int col) { return read.secondary_index_kind(col); };
  std::vector<SecondaryProbeCandidate> candidates =
      CollectSecondaryProbeCandidates(conjuncts, *read.schema(), kind_of);
  if (candidates.empty()) return LogicalPlanPtr(nullptr);

  // Index-kind costing: estimated matches from the index statistics become
  // a selectivity per candidate; the probe only beats the vectorized
  // scan's sequential bandwidth when selective enough.
  for (SecondaryProbeCandidate& c : candidates) {
    const uint64_t est = read.EstimateSecondaryMatches(c.probe);
    c.probe.selectivity =
        total_rows == 0
            ? 0.0
            : std::min(1.0, static_cast<double>(est) /
                                static_cast<double>(total_rows));
  }
  const int driver = ChooseSecondaryProbe(candidates, max_selectivity_);
  if (driver < 0) return LogicalPlanPtr(nullptr);

  // Absorb the driver plus every other candidate under the threshold as
  // ANDed probes (sorted-position intersection — the bitmap-AND path).
  std::vector<SecondaryProbe> probes;
  std::vector<bool> consumed(conjuncts.size(), false);
  auto absorb = [&](SecondaryProbeCandidate& c) {
    for (size_t ord : c.consumed) {
      if (consumed[ord]) return;  // conjunct already served by another probe
    }
    for (size_t ord : c.consumed) consumed[ord] = true;
    probes.push_back(std::move(c.probe));
  };
  absorb(candidates[static_cast<size_t>(driver)]);
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (static_cast<int>(i) == driver) continue;
    if (candidates[i].probe.selectivity <= max_selectivity_) {
      absorb(candidates[i]);
    }
  }
  if (probes.empty()) return LogicalPlanPtr(nullptr);

  LogicalPlanPtr probe_node =
      std::make_shared<SecondaryProbeNode>(read, std::move(probes));
  std::vector<ExprPtr> rest;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (!consumed[i]) rest.push_back(conjuncts[i]);
  }
  if (rest.empty()) return probe_node;
  return LogicalPlanPtr(std::make_shared<FilterNode>(
      std::move(probe_node), ConjoinAll(rest), node->output_schema()));
}

namespace {

/// Matches a join side that is an IndexedScan with an access path indexed
/// on the side's join key, possibly under a Filter (whose predicate is then
/// bound to the relation's own schema, since the FilterNode's child is the
/// scan). A matched filter becomes the join's build-side predicate,
/// evaluated against the encoded build rows during the chain walk instead
/// of as a separate pass over a materialized scan.
bool MatchBuildSide(const LogicalPlanPtr& side, const ExprPtr& key,
                    RelationRead* build, ExprPtr* build_pred) {
  const LogicalPlanPtr* scan = &side;
  *build_pred = nullptr;
  if (side->kind() == PlanKind::kFilter) {
    scan = &side->children()[0];
    *build_pred = static_cast<const FilterNode*>(side.get())->predicate();
  }
  if ((*scan)->kind() != PlanKind::kIndexedScan) return false;
  const RelationRead* path =
      static_cast<const IndexedScanNode*>(scan->get())->PathIndexedOn(KeyColumn(key));
  if (path == nullptr) return false;
  *build = *path;
  return true;
}

}  // namespace

Result<LogicalPlanPtr> IndexedJoinRule::Apply(const LogicalPlanPtr& node) const {
  if (node->kind() != PlanKind::kJoin) return LogicalPlanPtr(nullptr);
  const auto* join = static_cast<const JoinNode*>(node.get());
  // Indexed execution serves inner equi-joins; outer joins fall back.
  if (join->join_type() != JoinType::kInner) return LogicalPlanPtr(nullptr);

  // "In case of the indexed join, the indexed relation is always the build
  //  side". A Filter over the build-side scan is absorbed as the join's
  //  build predicate (children are optimized before parents, so an
  //  indexed-column equality filter has already become a lookup and no
  //  longer matches here).
  RelationRead left_build, right_build;
  ExprPtr left_pred, right_pred;
  const bool left_ok =
      MatchBuildSide(join->left(), join->left_key(), &left_build, &left_pred);
  const bool right_ok =
      MatchBuildSide(join->right(), join->right_key(), &right_build, &right_pred);
  // When both sides are indexed on their keys, the build side is the one
  // whose opposite input — the probe, which is scanned and exchanged in
  // full — is estimated smaller. Ties keep the left side.
  const bool build_left =
      left_ok && (!right_ok ||
                  EstimateRows(join->right()) <= EstimateRows(join->left()));
  if (build_left) {
    return LogicalPlanPtr(std::make_shared<IndexedJoinNode>(
        std::move(left_build), join->right(), join->right_key(),
        /*indexed_on_left=*/true, node->output_schema(), std::move(left_pred)));
  }
  if (right_ok) {
    return LogicalPlanPtr(std::make_shared<IndexedJoinNode>(
        std::move(right_build), join->left(), join->left_key(),
        /*indexed_on_left=*/false, node->output_schema(), std::move(right_pred)));
  }
  return LogicalPlanPtr(nullptr);
}

namespace {

/// If every projection expression is a bound column reference, fills
/// `cols` with their ordinals.
bool AllColumnRefs(const std::vector<ExprPtr>& exprs, std::vector<int>* cols) {
  cols->clear();
  for (const ExprPtr& e : exprs) {
    if (e->kind() != ExprKind::kColumnRef) return false;
    const auto* ref = static_cast<const ColumnRefExpr*>(e.get());
    if (!ref->bound()) return false;
    cols->push_back(ref->index());
  }
  return true;
}

/// The scanned source of an IndexedScan node.
Result<ScanSource> SourceOfScan(const LogicalPlanPtr& scan) {
  return ScanSource::Of(static_cast<const IndexedScanNode*>(scan.get())->read());
}

/// True when the aggregate can run on encoded payloads: every group
/// expression is a bound column ref (read via CompiledAccessor), and no
/// SUM/AVG takes a string column ref (those would fold raw slot bytes as
/// numbers — they fall back to the generic operator, which surfaces the
/// interpreter's behavior). Non-column-ref aggregate arguments are fine:
/// the fused operator lazily decodes the row for those.
bool AggregateIsFusable(const AggregateNode* agg, const Schema& schema) {
  for (const ExprPtr& g : agg->group_exprs()) {
    if (!CompiledAccessor::FromExpr(g, schema)) return false;
  }
  for (const AggSpec& spec : agg->aggs()) {
    if (spec.fn == AggFn::kCountStar) continue;
    auto acc = CompiledAccessor::FromExpr(spec.arg, schema);
    if (acc && (spec.fn == AggFn::kSum || spec.fn == AggFn::kAvg) &&
        acc->type() == TypeId::kString) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<PhysicalOpPtr> IndexedExecutionStrategy::Plan(
    const LogicalPlanPtr& node, std::vector<PhysicalOpPtr> children,
    const EngineConfig& config) const {
  auto is_scan = [](const LogicalPlanPtr& n) {
    return n->kind() == PlanKind::kIndexedScan;
  };
  // Fuse Aggregate over an IndexedScan — or over a Filter over one — into a
  // morsel-parallel scan-aggregate that reads group keys and aggregate
  // inputs straight from the encoded payloads. With a filter in between,
  // the same compiled-predicate gate as the scan-filter fusion applies: at
  // least one conjunct must compile, so survivor rows are selected on the
  // payload bytes and flow into the partial tables without a decoded
  // intermediate.
  if (node->kind() == PlanKind::kAggregate) {
    const auto* agg = static_cast<const AggregateNode*>(node.get());
    const LogicalPlanPtr& child = node->children()[0];
    if (is_scan(child)) {
      IDF_ASSIGN_OR_RETURN(ScanSource source, SourceOfScan(child));
      if (AggregateIsFusable(agg, *source.schema())) {
        return PhysicalOpPtr(std::make_shared<IndexedScanAggregateOp>(
            std::move(source), nullptr, PushedFilter{}, agg->group_exprs(),
            agg->aggs(), node->output_schema()));
      }
      return PhysicalOpPtr(nullptr);
    }
    if (child->kind() == PlanKind::kFilter && is_scan(child->children()[0])) {
      const auto* filter = static_cast<const FilterNode*>(child.get());
      IDF_ASSIGN_OR_RETURN(ScanSource source, SourceOfScan(child->children()[0]));
      if (AggregateIsFusable(agg, *source.schema())) {
        PredicateSplit split =
            SplitForCompilation(filter->predicate(), *source.schema());
        if (split.compiled.has_value()) {
          return PhysicalOpPtr(std::make_shared<IndexedScanAggregateOp>(
              std::move(source), filter->predicate(),
              PushedFilter::FromSplit(std::move(split)), agg->group_exprs(),
              agg->aggs(), node->output_schema()));
        }
      }
      return PhysicalOpPtr(nullptr);
    }
    return PhysicalOpPtr(nullptr);
  }
  // Fuse a Filter directly over an IndexedScan into a lazy-decoding
  // scan-filter whenever at least one conjunct of the predicate compiles
  // to an encoded-row program (the index itself only serves equality on an
  // indexed column; that case was already rewritten to IndexedLookup by
  // the optimizer rule and never reaches this branch). A filter over a
  // lookup or secondary probe pushes into that operator instead.
  // Predicates where nothing compiles (LIKE, arithmetic, col-vs-col) fall
  // back to the generic FilterOp over the scan.
  if (node->kind() == PlanKind::kFilter) {
    const auto* filter = static_cast<const FilterNode*>(node.get());
    const LogicalPlanPtr& child = node->children()[0];
    if (is_scan(child)) {
      IDF_ASSIGN_OR_RETURN(ScanSource source, SourceOfScan(child));
      PredicateSplit split =
          SplitForCompilation(filter->predicate(), *source.schema());
      if (split.compiled.has_value()) {
        return PhysicalOpPtr(std::make_shared<IndexedScanFilterOp>(
            std::move(source), filter->predicate(),
            PushedFilter::FromSplit(std::move(split))));
      }
      return PhysicalOpPtr(nullptr);  // fall back to Filter over the scan
    }
    if (child->kind() == PlanKind::kSecondaryProbe) {
      // Push the residual filter into the probe operator: the compiled
      // part gates survivors on the encoded payload, the interpreter rest
      // runs on the decoded row. No compilation gate — the probe already
      // restricted the row set, so even a fully interpreted residual over
      // few survivors beats a separate filter pass.
      const auto* probe = static_cast<const SecondaryProbeNode*>(child.get());
      IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(probe->read()));
      PredicateSplit split =
          SplitForCompilation(filter->predicate(), *source.schema());
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          std::move(source), probe->probes(), filter->predicate(),
          PushedFilter::FromSplit(std::move(split))));
    }
    if (child->kind() == PlanKind::kIndexedLookup) {
      const auto* lookup = static_cast<const IndexedLookupNode*>(child.get());
      IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(lookup->read()));
      PredicateSplit split =
          SplitForCompilation(filter->predicate(), *source.schema());
      return PhysicalOpPtr(std::make_shared<IndexLookupOp>(
          std::move(source), lookup->keys(),
          PushedFilter::FromSplit(std::move(split)), lookup->key_params()));
    }
    return PhysicalOpPtr(nullptr);
  }
  // Column pruning: Project(colrefs) over a scan decodes only the
  // projected columns; Project(colrefs) over Filter(cmp) over a scan
  // fuses all three.
  if (node->kind() == PlanKind::kProject) {
    const auto* project = static_cast<const ProjectNode*>(node.get());
    std::vector<int> cols;
    if (AllColumnRefs(project->exprs(), &cols)) {
      const LogicalPlanPtr& child = node->children()[0];
      if (is_scan(child)) {
        IDF_ASSIGN_OR_RETURN(ScanSource source, SourceOfScan(child));
        return PhysicalOpPtr(std::make_shared<IndexedScanProjectOp>(
            std::move(source), std::move(cols), node->output_schema()));
      }
      if (child->kind() == PlanKind::kFilter && is_scan(child->children()[0])) {
        const auto* filter = static_cast<const FilterNode*>(child.get());
        IDF_ASSIGN_OR_RETURN(ScanSource source,
                             SourceOfScan(child->children()[0]));
        PredicateSplit split =
            SplitForCompilation(filter->predicate(), *source.schema());
        if (split.compiled.has_value()) {
          return PhysicalOpPtr(std::make_shared<IndexedScanFilterOp>(
              std::move(source), filter->predicate(),
              PushedFilter::FromSplit(std::move(split)), std::move(cols),
              node->output_schema()));
        }
      }
      if (child->kind() == PlanKind::kSecondaryProbe) {
        const auto* probe = static_cast<const SecondaryProbeNode*>(child.get());
        IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(probe->read()));
        return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
            std::move(source), probe->probes(), nullptr, PushedFilter{},
            std::move(cols), node->output_schema()));
      }
      if (child->kind() == PlanKind::kFilter &&
          child->children()[0]->kind() == PlanKind::kSecondaryProbe) {
        const auto* filter = static_cast<const FilterNode*>(child.get());
        const auto* probe =
            static_cast<const SecondaryProbeNode*>(child->children()[0].get());
        IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(probe->read()));
        PredicateSplit split =
            SplitForCompilation(filter->predicate(), *source.schema());
        return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
            std::move(source), probe->probes(), filter->predicate(),
            PushedFilter::FromSplit(std::move(split)), std::move(cols),
            node->output_schema()));
      }
    }
    return PhysicalOpPtr(nullptr);
  }
  switch (node->kind()) {
    case PlanKind::kIndexedScan: {
      IDF_ASSIGN_OR_RETURN(ScanSource source, SourceOfScan(node));
      return PhysicalOpPtr(std::make_shared<IndexedScanOp>(std::move(source)));
    }
    case PlanKind::kIndexedLookup: {
      const auto* lookup = static_cast<const IndexedLookupNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(lookup->read()));
      return PhysicalOpPtr(std::make_shared<IndexLookupOp>(
          std::move(source), lookup->keys(), PushedFilter{},
          lookup->key_params()));
    }
    case PlanKind::kSecondaryProbe: {
      const auto* probe = static_cast<const SecondaryProbeNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ScanSource source, ScanSource::Of(probe->read()));
      return PhysicalOpPtr(std::make_shared<SecondaryIndexProbeOp>(
          std::move(source), probe->probes(), nullptr, PushedFilter{}));
    }
    case PlanKind::kIndexedJoin: {
      const auto* join = static_cast<const IndexedJoinNode*>(node.get());
      IDF_ASSIGN_OR_RETURN(ScanSource build, ScanSource::Of(join->build()));
      bool broadcast_probe =
          EstimateBytes(join->probe()) <=
          static_cast<double>(config.broadcast_threshold_bytes);
      PushedFilter build_filter;
      if (join->build_predicate()) {
        build_filter = PushedFilter::FromSplit(
            SplitForCompilation(join->build_predicate(), *build.schema()));
      }
      return PhysicalOpPtr(std::make_shared<IndexedJoinOp>(
          std::move(build), children[0], join->probe_key(),
          join->indexed_on_left(), broadcast_probe, node->output_schema(),
          std::move(build_filter)));
    }
    default:
      return PhysicalOpPtr(nullptr);
  }
}

void InstallIndexedExtensions(Session& session) {
  static const char kTag[] = "indexed-dataframe";
  if (session.HasExtension(kTag)) return;
  session.AddOptimizerRule(std::make_shared<IndexedFilterRule>());
  // After the primary-index rule: an equality on the indexed column becomes
  // a point lookup before secondary-index costing ever sees the filter.
  session.AddOptimizerRule(std::make_shared<SecondaryIndexFilterRule>(
      session.config().secondary_probe_max_selectivity));
  session.AddOptimizerRule(std::make_shared<IndexedJoinRule>());
  session.AddPhysicalStrategy(std::make_shared<IndexedExecutionStrategy>());
  session.MarkExtension(kTag);
}

}  // namespace idf
