#include "sql/session.h"

#include <algorithm>

#include "engine/shuffle.h"
#include "sql/analyzer.h"
#include "sql/sql_parser.h"

namespace idf {

Session::Session(ExecutorContextPtr exec)
    : exec_(std::move(exec)),
      optimizer_(Optimizer::WithDefaultRules()),
      planner_(exec_->config()) {}

Result<SessionPtr> Session::Make(const EngineConfig& config) {
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec, ExecutorContext::Make(config));
  return SessionPtr(new Session(std::move(exec)));
}

Result<SessionPtr> Session::MakeWithContext(ExecutorContextPtr exec) {
  if (exec == nullptr) {
    return Status::InvalidArgument("MakeWithContext: null executor context");
  }
  return SessionPtr(new Session(std::move(exec)));
}

void Session::AddOptimizerRule(OptimizerRulePtr rule) {
  optimizer_.AddRule(std::move(rule));
}

void Session::AddPhysicalStrategy(PhysicalStrategyPtr strategy) {
  planner_.AddStrategy(std::move(strategy));
}

bool Session::HasExtension(const std::string& tag) const {
  return std::find(extensions_.begin(), extensions_.end(), tag) != extensions_.end();
}

void Session::MarkExtension(const std::string& tag) { extensions_.push_back(tag); }

Result<DataFrame> Session::CreateDataFrame(SchemaPtr schema, RowVec rows,
                                           const std::string& name) {
  for (const Row& row : rows) {
    IDF_RETURN_NOT_OK(ValidateRow(*schema, row));
  }
  auto table = std::make_shared<RawTable>();
  table->name = name;
  table->schema = std::move(schema);
  for (const Row& row : rows) table->approx_bytes += EstimateRowBytes(row);
  table->partitions = SplitContiguous(rows, exec_->num_partitions());
  return DataFrame(shared_from_this(), std::make_shared<ScanNode>(std::move(table)));
}

DataFrame Session::FromPlan(LogicalPlanPtr plan) {
  return DataFrame(shared_from_this(), std::move(plan));
}

Status Session::RegisterTable(const std::string& name, DataFrame df) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (!df.valid()) return Status::InvalidArgument("empty DataFrame handle");
  tables_[name] = df.plan();
  return Status::OK();
}

Result<DataFrame> Session::Table(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("table not registered: '" + name + "'");
  }
  return DataFrame(std::const_pointer_cast<Session>(shared_from_this()),
                   it->second);
}

std::vector<std::string> Session::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, df] : tables_) out.push_back(name);
  return out;
}

Result<DataFrame> Session::Sql(const std::string& query) {
  return ParseSql(shared_from_this(), query);
}

Result<LogicalPlanPtr> Session::OptimizeOnly(const LogicalPlanPtr& plan) {
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr analyzed, Analyze(plan));
  return optimizer_.Optimize(analyzed);
}

Result<PhysicalOpPtr> Session::PlanQuery(const LogicalPlanPtr& plan) {
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, OptimizeOnly(plan));
  return planner_.Plan(optimized);
}

Result<PhysicalOpPtr> Session::PlanOptimized(const LogicalPlanPtr& optimized) {
  return planner_.Plan(optimized);
}

Result<PartitionVec> Session::ExecutePartitions(const LogicalPlanPtr& plan) {
  IDF_ASSIGN_OR_RETURN(PhysicalOpPtr op, PlanQuery(plan));
  return op->Execute(*exec_);
}

Result<RowVec> Session::ExecuteCollect(const LogicalPlanPtr& plan) {
  IDF_ASSIGN_OR_RETURN(PartitionVec parts, ExecutePartitions(plan));
  return CollectRows(parts);
}

}  // namespace idf
