#include "sql/dataframe.h"

#include <chrono>

#include "sql/analyzer.h"
#include "sql/session.h"

namespace idf {

Result<SchemaPtr> DataFrame::schema() const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  if (plan_->analyzed()) return plan_->output_schema();
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan_));
  return analyzed->output_schema();
}

ExprPtr DataFrame::col(const std::string& name) const { return Col(name); }

Result<DataFrame> DataFrame::Filter(ExprPtr predicate) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return DataFrame(session_,
                   std::make_shared<FilterNode>(plan_, std::move(predicate)));
}

Result<DataFrame> DataFrame::Select(const std::vector<std::string>& names) const {
  std::vector<ExprPtr> exprs;
  exprs.reserve(names.size());
  for (const std::string& n : names) exprs.push_back(Col(n));
  return SelectExprs(std::move(exprs),
                     std::vector<std::string>(names.begin(), names.end()));
}

Result<DataFrame> DataFrame::SelectExprs(std::vector<ExprPtr> exprs,
                                         std::vector<std::string> names) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return DataFrame(session_, std::make_shared<ProjectNode>(plan_, std::move(exprs),
                                                           std::move(names)));
}

Result<DataFrame> DataFrame::Join(const DataFrame& other, ExprPtr left_key,
                                  ExprPtr right_key, JoinType join_type) const {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("empty DataFrame handle");
  }
  if (session_ != other.session_) {
    return Status::InvalidArgument("cannot join DataFrames from different sessions");
  }
  return DataFrame(session_, std::make_shared<JoinNode>(
                                 plan_, other.plan_, std::move(left_key),
                                 std::move(right_key), join_type));
}

Result<DataFrame> DataFrame::Join(const DataFrame& other, const std::string& left_col,
                                  const std::string& right_col,
                                  JoinType join_type) const {
  return Join(other, Col(left_col), Col(right_col), join_type);
}

Result<DataFrame> DataFrame::Aggregate(std::vector<ExprPtr> group_exprs,
                                       std::vector<AggSpec> aggs) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return DataFrame(session_, std::make_shared<AggregateNode>(
                                 plan_, std::move(group_exprs),
                                 std::vector<std::string>{}, std::move(aggs)));
}

Result<DataFrame> DataFrame::GroupByAgg(const std::vector<std::string>& group_cols,
                                        std::vector<AggSpec> aggs) const {
  std::vector<ExprPtr> groups;
  groups.reserve(group_cols.size());
  for (const std::string& c : group_cols) groups.push_back(Col(c));
  return Aggregate(std::move(groups), std::move(aggs));
}

Result<DataFrame> DataFrame::UnionAll(const DataFrame& other) const {
  if (!valid() || !other.valid()) {
    return Status::InvalidArgument("empty DataFrame handle");
  }
  if (session_ != other.session_) {
    return Status::InvalidArgument(
        "cannot union DataFrames from different sessions");
  }
  return DataFrame(session_, std::make_shared<UnionAllNode>(
                                 std::vector<LogicalPlanPtr>{plan_, other.plan_}));
}

Result<DataFrame> DataFrame::Sort(std::vector<SortKey> keys) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return DataFrame(session_, std::make_shared<SortNode>(plan_, std::move(keys)));
}

Result<DataFrame> DataFrame::OrderBy(const std::string& col_name,
                                     bool ascending) const {
  return Sort({SortKey{Col(col_name), ascending}});
}

Result<DataFrame> DataFrame::Limit(size_t n) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return DataFrame(session_, std::make_shared<LimitNode>(plan_, n));
}

Result<RowVec> DataFrame::Collect() const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  return session_->ExecuteCollect(plan_);
}

Result<size_t> DataFrame::Count() const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  IDF_ASSIGN_OR_RETURN(PartitionVec parts, session_->ExecutePartitions(plan_));
  return TotalRows(parts);
}

Result<DataFrame> DataFrame::Cache(const std::string& name) const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  IDF_ASSIGN_OR_RETURN(SchemaPtr out_schema, schema());
  IDF_ASSIGN_OR_RETURN(PartitionVec parts, session_->ExecutePartitions(plan_));
  auto table = std::make_shared<CachedTable>();
  table->name = name;
  table->schema = out_schema;
  table->partitions.resize(parts.size());
  for (size_t p = 0; p < parts.size(); ++p) {
    RowVec rows = std::move(parts[p]).TakeRows();
    IDF_ASSIGN_OR_RETURN(table->partitions[p],
                         ColumnCache::FromRows(out_schema, rows));
    table->approx_bytes += table->partitions[p]->MemoryBytes();
  }
  return DataFrame(session_, std::make_shared<CacheScanNode>(std::move(table)));
}

Result<std::string> DataFrame::Explain() const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, session_->OptimizeOnly(plan_));
  IDF_ASSIGN_OR_RETURN(PhysicalOpPtr physical, session_->PlanQuery(plan_));
  return "== Optimized Logical Plan ==\n" + optimized->TreeString() +
         "== Physical Plan ==\n" + physical->TreeString();
}

Result<std::string> DataFrame::ExplainAnalyze() const {
  if (!valid()) return Status::InvalidArgument("empty DataFrame handle");
  IDF_ASSIGN_OR_RETURN(std::string plans, Explain());
  const CounterValues before = session_->metrics().Snapshot();
  auto t0 = std::chrono::steady_clock::now();
  IDF_ASSIGN_OR_RETURN(PartitionVec parts, session_->ExecutePartitions(plan_));
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  CounterValues delta = session_->metrics().Snapshot();
  for (size_t i = 0; i < kNumCounters; ++i) delta[i] -= before[i];
  char line[160];
  std::snprintf(line, sizeof(line),
                "== Execution ==\nwall_time: %.3f ms\nresult_rows: %zu\n", ms,
                TotalRows(parts));
  return plans + line + FormatCounters(delta) + "\n";
}

AggSpec CountStar(std::string out_name) {
  return AggSpec{AggFn::kCountStar, nullptr, std::move(out_name)};
}
AggSpec CountOf(ExprPtr arg, std::string out_name) {
  return AggSpec{AggFn::kCount, std::move(arg), std::move(out_name)};
}
AggSpec SumOf(ExprPtr arg, std::string out_name) {
  return AggSpec{AggFn::kSum, std::move(arg), std::move(out_name)};
}
AggSpec MinOf(ExprPtr arg, std::string out_name) {
  return AggSpec{AggFn::kMin, std::move(arg), std::move(out_name)};
}
AggSpec MaxOf(ExprPtr arg, std::string out_name) {
  return AggSpec{AggFn::kMax, std::move(arg), std::move(out_name)};
}
AggSpec AvgOf(ExprPtr arg, std::string out_name) {
  return AggSpec{AggFn::kAvg, std::move(arg), std::move(out_name)};
}

}  // namespace idf
