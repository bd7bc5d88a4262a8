// DataFrame: the user-facing relational API (the analogue of Spark's
// Dataset/DataFrame). A DataFrame is an immutable handle on a logical plan
// plus the session that can execute it; transformations build new plans
// lazily and actions (Collect/Count) run the full Catalyst-style pipeline.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/logical_plan.h"

namespace idf {

class Session;
using SessionPtr = std::shared_ptr<Session>;

class DataFrame {
 public:
  DataFrame() = default;
  DataFrame(SessionPtr session, LogicalPlanPtr plan)
      : session_(std::move(session)), plan_(std::move(plan)) {}

  bool valid() const { return session_ != nullptr && plan_ != nullptr; }
  const LogicalPlanPtr& plan() const { return plan_; }
  const SessionPtr& session() const { return session_; }

  /// Output schema (analyzes the plan if needed).
  Result<SchemaPtr> schema() const;

  /// Column reference scoped to this DataFrame (sugar over Col()).
  ExprPtr col(const std::string& name) const;

  // --- transformations (lazy) ---

  Result<DataFrame> Filter(ExprPtr predicate) const;
  /// Projection by column names.
  Result<DataFrame> Select(const std::vector<std::string>& names) const;
  /// Projection by expressions with optional output names.
  Result<DataFrame> SelectExprs(std::vector<ExprPtr> exprs,
                                std::vector<std::string> names = {}) const;
  /// Equi-join on `left_key` (from this) = `right_key` (from other).
  Result<DataFrame> Join(const DataFrame& other, ExprPtr left_key,
                         ExprPtr right_key,
                         JoinType join_type = JoinType::kInner) const;
  /// Convenience by column names.
  Result<DataFrame> Join(const DataFrame& other, const std::string& left_col,
                         const std::string& right_col,
                         JoinType join_type = JoinType::kInner) const;
  Result<DataFrame> Aggregate(std::vector<ExprPtr> group_exprs,
                              std::vector<AggSpec> aggs) const;
  Result<DataFrame> GroupByAgg(const std::vector<std::string>& group_cols,
                               std::vector<AggSpec> aggs) const;
  /// Bag union with another DataFrame of a compatible schema (UNION ALL).
  Result<DataFrame> UnionAll(const DataFrame& other) const;
  Result<DataFrame> Sort(std::vector<SortKey> keys) const;
  Result<DataFrame> OrderBy(const std::string& col_name, bool ascending = true) const;
  Result<DataFrame> Limit(size_t n) const;

  // --- actions (eager) ---

  /// Materializes all rows.
  Result<RowVec> Collect() const;
  /// Row count without materializing values where possible.
  Result<size_t> Count() const;
  /// Materializes this DataFrame into the columnar in-memory cache and
  /// returns a DataFrame reading from it (Spark's .cache()).
  Result<DataFrame> Cache(const std::string& name = "cached") const;

  /// Logical (analyzed + optimized) and physical plan rendering.
  Result<std::string> Explain() const;

  /// Runs the query and reports the plans plus wall time, result
  /// cardinality, and the engine metrics the execution produced (shuffle
  /// volume, index probes, ...): the difference of the session's counters
  /// across the run, which leaves them accumulating. Queries running
  /// concurrently on the same session add into that difference.
  Result<std::string> ExplainAnalyze() const;

 private:
  SessionPtr session_;
  LogicalPlanPtr plan_;
};

// Aggregate spec helpers.
AggSpec CountStar(std::string out_name = "");
AggSpec CountOf(ExprPtr arg, std::string out_name = "");
AggSpec SumOf(ExprPtr arg, std::string out_name = "");
AggSpec MinOf(ExprPtr arg, std::string out_name = "");
AggSpec MaxOf(ExprPtr arg, std::string out_name = "");
AggSpec AvgOf(ExprPtr arg, std::string out_name = "");

}  // namespace idf
