#include "service/query_service.h"

#include <sstream>

#include "indexed/indexed_rules.h"
#include "sql/parameters.h"
#include "sql/sql_parser.h"

namespace idf {

namespace {

using Clock = CancellationToken::Clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

// Parked submissions re-check their token at this cadence: a client
// Cancel() cannot signal the service's condition variable, so the wait
// polls. 1ms keeps cancel-while-queued prompt without measurable load.
constexpr std::chrono::milliseconds kAdmissionPoll{1};

}  // namespace

Status ServiceConfig::Validate() const {
  if (max_inflight == 0) {
    return Status::InvalidArgument("max_inflight must be at least 1");
  }
  return Status::OK();
}

QueryService::QueryService(ServiceConfig config, ExecutorContextPtr base_exec)
    : config_(std::move(config)),
      base_exec_(std::move(base_exec)),
      snapshots_(std::make_unique<SnapshotManager>(base_exec_)),
      views_(std::make_unique<MaterializedViewManager>(snapshots_.get(),
                                                       base_exec_)),
      plan_cache_(config_.plan_cache_capacity) {
  snapshots_->SetCommitSink(views_.get());
}

QueryService::~QueryService() {
  DisableCompaction();
  // Detach the delta feed before the view manager dies.
  snapshots_->SetCommitSink(nullptr);
}

Result<QueryServicePtr> QueryService::Make(const ServiceConfig& config) {
  IDF_RETURN_NOT_OK(config.Validate());
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec,
                       ExecutorContext::Make(config.engine));
  return QueryServicePtr(new QueryService(config, std::move(exec)));
}

Status QueryService::RegisterTable(const std::string& name,
                                   IndexedRelationPtr relation) {
  IDF_RETURN_NOT_OK(snapshots_->RegisterTable(name, std::move(relation)));
  // DDL: every cached plan may now be stale (new table shadows a name,
  // schema or index shape changed). Open handles re-prepare lazily.
  ddl_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Clear();
  return Status::OK();
}

Status QueryService::RegisterTable(const std::string& name,
                                   std::shared_ptr<MultiIndexedTable> table) {
  IDF_RETURN_NOT_OK(snapshots_->RegisterTable(name, std::move(table)));
  ddl_version_.fetch_add(1, std::memory_order_acq_rel);
  plan_cache_.Clear();
  return Status::OK();
}

Status QueryService::Append(const std::string& table, const RowVec& rows) {
  IDF_RETURN_NOT_OK(snapshots_->Append(table, rows));
  // Standing queries advance as part of the append path: the commit has
  // already landed and its delta is queued, so even if a concurrent
  // appender's pass picks it up first, this call just finds an empty
  // queue.
  if (views_->HasWork()) views_->Propagate();
  return Status::OK();
}

Result<ViewSubscriptionPtr> QueryService::Subscribe(
    const std::string& sql, ViewSubscription::Callback callback) {
  return views_->Subscribe(sql, std::move(callback));
}

Status QueryService::Unsubscribe(const ViewSubscriptionPtr& sub) {
  return views_->Unsubscribe(sub);
}

Status QueryService::EnableCompaction(const CompactionConfig& config) {
  std::lock_guard<std::mutex> lock(compaction_mu_);
  if (!compactors_.empty()) return Status::OK();
  std::vector<IndexedRelationPtr> relations = snapshots_->Relations();
  if (relations.empty()) {
    return Status::InvalidArgument(
        "EnableCompaction: no tables registered yet");
  }
  // The epoch callback only tags retirements for observability; the
  // service must outlive its compactors (they are members), so capturing
  // the raw manager pointer is safe.
  SnapshotManager* snapshots = snapshots_.get();
  for (IndexedRelationPtr& rel : relations) {
    compactors_.push_back(std::make_unique<Compactor>(
        std::move(rel), config, &base_exec_->metrics(),
        [snapshots] { return snapshots->epoch(); }));
    compactors_.back()->Start();
  }
  return Status::OK();
}

void QueryService::DisableCompaction() {
  std::lock_guard<std::mutex> lock(compaction_mu_);
  for (auto& c : compactors_) c->Stop();
  compactors_.clear();
}

Status QueryService::Admit(const CancellationToken* token) {
  std::unique_lock<std::mutex> lock(mu_);
  if (inflight_ < config_.max_inflight) {
    ++inflight_;
    return Status::OK();
  }
  if (waiting_ >= config_.max_queue) {
    return Status::CapacityError(
        "query rejected: " + std::to_string(inflight_) + " in flight and " +
        std::to_string(waiting_) + " queued (max_queue=" +
        std::to_string(config_.max_queue) + ")");
  }
  ++waiting_;
  while (inflight_ >= config_.max_inflight) {
    cv_.wait_for(lock, kAdmissionPoll);
    if (token != nullptr && token->stop_requested()) {
      --waiting_;
      return token->CheckStatus();
    }
  }
  --waiting_;
  ++inflight_;
  return Status::OK();
}

void QueryService::Release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

size_t QueryService::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

size_t QueryService::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiting_;
}

Result<ExecutorContextPtr> QueryService::AcquireExec() {
  {
    std::lock_guard<std::mutex> lock(exec_pool_mu_);
    if (!exec_pool_.empty()) {
      ExecutorContextPtr exec = std::move(exec_pool_.back());
      exec_pool_.pop_back();
      return exec;
    }
  }
  return ExecutorContext::MakeWithPool(config_.engine,
                                       base_exec_->shared_pool());
}

void QueryService::ReleaseExec(ExecutorContextPtr exec) {
  exec->metrics().DrainInto(&metrics());
  // A planning session may have baked this context into a memoized plan;
  // pooling it then would let two queries share mutable per-query state.
  // use_count()==1 proves we hold the only reference.
  if (exec.use_count() != 1) return;
  exec->SetCancellation(nullptr);
  exec->SetParameters(nullptr);
  std::lock_guard<std::mutex> lock(exec_pool_mu_);
  if (exec_pool_.size() < config_.max_inflight + config_.max_queue) {
    exec_pool_.push_back(std::move(exec));
  }
}

Status QueryService::RunAdmitted(const std::string& sql,
                                 const CancellationTokenPtr& token,
                                 QueryResult* result) {
  // A per-query planning session over the shared worker pool: private
  // metrics, private cancellation, shared threads.
  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec, AcquireExec());
  exec->SetCancellation(token);
  Status status = [&]() -> Status {
    IDF_ASSIGN_OR_RETURN(SessionPtr session, Session::MakeWithContext(exec));
    InstallIndexedExtensions(*session);
    IDF_RETURN_NOT_OK(snapshots_->RegisterTables(*session));

    // Plan over unpinned reads, then pin exactly the indexes the plan
    // reads, all at one epoch boundary: everything the query sees is
    // decided there, however long planning took.
    IDF_ASSIGN_OR_RETURN(DataFrame df, session->Sql(sql));
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized, session->OptimizeOnly(df.plan()));
    optimized = ScannedPathsOnly(optimized);
    IDF_ASSIGN_OR_RETURN(std::vector<IndexedRelationPtr> relations,
                         ReadRelations(optimized));
    EpochPins pins = snapshots_->Pin(relations);
    result->epoch = pins.epoch;
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr pinned,
                         RebindSnapshots(optimized, pins.pins));
    IDF_ASSIGN_OR_RETURN(PhysicalOpPtr plan, session->PlanOptimized(pinned));
    IDF_ASSIGN_OR_RETURN(PartitionVec parts, plan->Execute(*exec));
    result->rows = CollectRows(parts);
    result->plan = std::move(plan);
    IDF_ASSIGN_OR_RETURN(result->schema, df.schema());
    // The deadline may have expired after the last operator finished; a
    // final check keeps "completed" and "timed out" mutually exclusive.
    return exec->CheckCancelled();
  }();
  ReleaseExec(std::move(exec));
  return status;
}

QueryResult QueryService::Execute(const std::string& sql,
                                  const QueryOptions& options) {
  const Clock::time_point start = Clock::now();
  metrics().AddSubmitted();

  CancellationTokenPtr token =
      options.cancel != nullptr ? options.cancel : CancellationToken::Make();
  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : config_.default_timeout;
  // An explicit deadline on a caller token wins over the service default.
  if (timeout.count() > 0 && !token->has_deadline()) {
    token->SetDeadline(start + timeout);
  }

  QueryResult result;
  result.status = Admit(token.get());
  if (result.status.ok()) {
    result.queue_micros = MicrosSince(start);
    const Clock::time_point exec_start = Clock::now();
    result.status = RunAdmitted(sql, token, &result);
    result.exec_micros = MicrosSince(exec_start);
    Release();
  }
  result.total_micros = MicrosSince(start);

  if (result.status.ok()) {
    metrics().AddSucceeded();
    queue_hist_.Record(result.queue_micros);
    exec_hist_.Record(result.exec_micros);
    total_hist_.Record(result.total_micros);
  } else if (result.status.IsCapacityError()) {
    metrics().AddRejected();
  } else if (result.status.IsCancelled()) {
    metrics().AddCancelled();
  } else if (result.status.IsDeadlineExceeded()) {
    metrics().AddDeadlineExceeded();
  } else {
    metrics().AddFailed();
  }
  if (!result.status.ok()) {
    result.rows.clear();
    result.plan = nullptr;
  }
  return result;
}

Result<PreparedStatementPtr> QueryService::BuildStatement(
    const std::string& sql, const std::string& fingerprint) {
  // Planning reads no data, so it pins nothing: the statement caches
  // unpinned plans, which never hold storage generations alive between
  // executions.
  IDF_ASSIGN_OR_RETURN(
      ExecutorContextPtr exec,
      ExecutorContext::MakeWithPool(config_.engine, base_exec_->shared_pool()));
  IDF_ASSIGN_OR_RETURN(SessionPtr session, Session::MakeWithContext(exec));
  InstallIndexedExtensions(*session);
  IDF_RETURN_NOT_OK(snapshots_->RegisterTables(*session));

  IDF_ASSIGN_OR_RETURN(PreparedParse parsed, ParseSqlPrepared(session, sql));
  IDF_ASSIGN_OR_RETURN(LogicalPlanPtr optimized,
                       session->OptimizeOnly(parsed.plan));

  auto stmt = std::make_shared<PreparedStatement>();
  stmt->sql = sql;
  stmt->fingerprint = fingerprint;
  stmt->num_params = parsed.param_types.size();
  stmt->param_types = parsed.param_types;
  stmt->result_schema = parsed.plan->output_schema();
  stmt->patchable = PlanIsParameterPatchable(optimized);
  stmt->ddl_version = ddl_version_.load(std::memory_order_acquire);
  stmt->analyzed = parsed.plan;
  if (stmt->patchable) stmt->optimized = ScannedPathsOnly(optimized);
  IDF_ASSIGN_OR_RETURN(
      stmt->relations,
      ReadRelations(stmt->patchable ? stmt->optimized : stmt->analyzed));
  return stmt;
}

Result<PreparedInfo> QueryService::Prepare(const std::string& sql) {
  const std::string fingerprint = NormalizeSql(sql);
  PreparedStatementPtr stmt = plan_cache_.Lookup(fingerprint);
  if (stmt != nullptr &&
      stmt->ddl_version == ddl_version_.load(std::memory_order_acquire)) {
    metrics().AddPlanCacheHits();
  } else {
    if (stmt != nullptr) plan_cache_.Erase(fingerprint);  // stale: DDL raced
    metrics().AddPlanCacheMisses();
    IDF_ASSIGN_OR_RETURN(stmt, BuildStatement(sql, fingerprint));
    plan_cache_.Insert(stmt);
  }
  metrics().AddStatementsPrepared();

  PreparedInfo info;
  info.handle = next_handle_.fetch_add(1, std::memory_order_relaxed);
  info.num_params = stmt->num_params;
  info.param_types = stmt->param_types;
  info.result_schema = stmt->result_schema;
  {
    std::lock_guard<std::mutex> lock(handles_mu_);
    handles_[info.handle] = std::move(stmt);
  }
  return info;
}

Status QueryService::ClosePrepared(uint64_t handle) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  if (handles_.erase(handle) == 0) {
    return Status::InvalidArgument("unknown prepared statement handle " +
                                   std::to_string(handle));
  }
  return Status::OK();
}

Status QueryService::RunPreparedAdmitted(uint64_t handle,
                                         PreparedStatementPtr stmt,
                                         const std::vector<Value>& params,
                                         const CancellationTokenPtr& token,
                                         QueryResult* result) {
  // DDL after prepare: transparently re-prepare from the statement's SQL
  // so long-lived handles survive RegisterTable, at one replan's cost.
  if (stmt->ddl_version != ddl_version_.load(std::memory_order_acquire)) {
    metrics().AddPlanCacheMisses();
    IDF_ASSIGN_OR_RETURN(PreparedStatementPtr fresh,
                         BuildStatement(stmt->sql, stmt->fingerprint));
    plan_cache_.Insert(fresh);
    {
      std::lock_guard<std::mutex> lock(handles_mu_);
      auto it = handles_.find(handle);
      if (it != handles_.end()) it->second = fresh;
    }
    stmt = std::move(fresh);
  }

  IDF_ASSIGN_OR_RETURN(ExecutorContextPtr exec, AcquireExec());
  exec->SetCancellation(token);
  Status status = [&]() -> Status {
    if (stmt->patchable) {
      // Hot path: reuse the lowered physical plan. Parameters travel in
      // the executor context; the operators patch compiled-predicate
      // immediates and lookup key slots at Execute() entry, so nothing is
      // re-parsed, re-optimized, or re-compiled.
      exec->SetParameters(
          std::make_shared<const std::vector<Value>>(params));
      std::shared_ptr<const BoundPlan> bound;
      // If the memoized plan is current at the committed epoch, a single
      // atomic epoch read is the whole snapshot check: the bound plan's
      // reads hold their own pins, so nothing is pinned per execution.
      const uint64_t committed = snapshots_->epoch();
      {
        std::lock_guard<std::mutex> lock(stmt->mu);
        if (stmt->bound != nullptr && stmt->bound->epoch == committed) {
          bound = stmt->bound;
        }
      }
      if (bound == nullptr) {
        // Epoch moved (or first execution): pin the statement's indexes at
        // the current boundary. When no batch reached any of them, the
        // pins are the bound plan's own and it is current as it stands;
        // otherwise attach the new pins and re-lower — still no parse,
        // analyze, or optimize.
        EpochPins pins = snapshots_->Pin(stmt->relations);
        {
          std::lock_guard<std::mutex> lock(stmt->mu);
          if (stmt->bound != nullptr && stmt->bound->pins == pins.pins) {
            if (stmt->bound->epoch != pins.epoch) {
              auto moved = std::make_shared<BoundPlan>(*stmt->bound);
              moved->epoch = pins.epoch;
              stmt->bound = std::move(moved);
            }
            bound = stmt->bound;
          }
        }
        if (bound == nullptr) {
          IDF_ASSIGN_OR_RETURN(SessionPtr session,
                               Session::MakeWithContext(exec));
          InstallIndexedExtensions(*session);
          auto fresh = std::make_shared<BoundPlan>();
          fresh->epoch = pins.epoch;
          IDF_ASSIGN_OR_RETURN(fresh->rebound,
                               RebindSnapshots(stmt->optimized, pins.pins));
          fresh->pins = std::move(pins.pins);
          IDF_ASSIGN_OR_RETURN(fresh->physical,
                               session->PlanOptimized(fresh->rebound));
          {
            std::lock_guard<std::mutex> lock(stmt->mu);
            stmt->bound = fresh;
          }
          bound = std::move(fresh);
          metrics().AddPreparedReplans();
        }
      }
      result->epoch = bound->epoch;
      IDF_ASSIGN_OR_RETURN(PartitionVec parts, bound->physical->Execute(*exec));
      result->rows = CollectRows(parts);
      result->schema = stmt->result_schema;
      // The result takes over this execution's reference to the bound
      // plan rather than adding one to the shared physical tree: no extra
      // refcount traffic on the statement every connection shares.
      const PhysicalOp* ran = bound->physical.get();
      result->plan = std::shared_ptr<const PhysicalOp>(std::move(bound), ran);
      return exec->CheckCancelled();
    }
    // Fallback for non-patchable shapes (a parameter sits in a join key,
    // sort key, or aggregate): substitute the values as literals into the
    // analyzed tree and run the normal optimize-and-execute pipeline.
    metrics().AddPreparedReplans();
    EpochPins pins = snapshots_->Pin(stmt->relations);
    result->epoch = pins.epoch;
    IDF_ASSIGN_OR_RETURN(SessionPtr session, Session::MakeWithContext(exec));
    InstallIndexedExtensions(*session);
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr rebound,
                         RebindSnapshots(stmt->analyzed, pins.pins));
    IDF_ASSIGN_OR_RETURN(LogicalPlanPtr literal,
                         BindPlanParameters(rebound, params));
    IDF_ASSIGN_OR_RETURN(PhysicalOpPtr plan, session->PlanQuery(literal));
    IDF_ASSIGN_OR_RETURN(PartitionVec parts, plan->Execute(*exec));
    result->rows = CollectRows(parts);
    result->schema = stmt->result_schema;
    result->plan = std::move(plan);
    return exec->CheckCancelled();
  }();
  ReleaseExec(std::move(exec));
  return status;
}

QueryResult QueryService::ExecutePrepared(uint64_t handle,
                                          const std::vector<Value>& params,
                                          const QueryOptions& options) {
  const Clock::time_point start = Clock::now();
  metrics().AddSubmitted();
  QueryResult result;

  PreparedStatementPtr stmt;
  {
    std::lock_guard<std::mutex> lock(handles_mu_);
    auto it = handles_.find(handle);
    if (it != handles_.end()) stmt = it->second;
  }
  if (stmt == nullptr) {
    result.status = Status::InvalidArgument(
        "unknown prepared statement handle " + std::to_string(handle));
  } else if (params.size() != stmt->num_params) {
    result.status = Status::InvalidArgument(
        "prepared statement expects " + std::to_string(stmt->num_params) +
        " parameter(s), got " + std::to_string(params.size()));
  }
  if (!result.status.ok()) {
    metrics().AddFailed();
    result.total_micros = MicrosSince(start);
    return result;
  }

  // Coerce each value to its inferred type up front (NULLs pass through):
  // the compiled immediate slots are typed, and coercing once here keeps
  // prepared results byte-identical to the ad-hoc query with the coerced
  // literal spliced in.
  std::vector<Value> coerced;
  coerced.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].is_null()) {
      coerced.push_back(Value::Null());
      continue;
    }
    Result<Value> cast = params[i].CastTo(stmt->param_types[i]);
    if (!cast.ok()) {
      result.status = Status::InvalidArgument(
          "parameter $" + std::to_string(i + 1) + ": " +
          cast.status().message());
      metrics().AddFailed();
      result.total_micros = MicrosSince(start);
      return result;
    }
    coerced.push_back(std::move(cast).ValueOrDie());
  }

  CancellationTokenPtr token =
      options.cancel != nullptr ? options.cancel : CancellationToken::Make();
  const auto timeout =
      options.timeout.count() > 0 ? options.timeout : config_.default_timeout;
  if (timeout.count() > 0 && !token->has_deadline()) {
    token->SetDeadline(start + timeout);
  }

  result.status = Admit(token.get());
  if (result.status.ok()) {
    result.queue_micros = MicrosSince(start);
    const Clock::time_point exec_start = Clock::now();
    result.status =
        RunPreparedAdmitted(handle, std::move(stmt), coerced, token, &result);
    result.exec_micros = MicrosSince(exec_start);
    Release();
  }
  result.total_micros = MicrosSince(start);

  if (result.status.ok()) {
    metrics().AddSucceeded();
    metrics().AddPreparedExecutions();
    queue_hist_.Record(result.queue_micros);
    exec_hist_.Record(result.exec_micros);
    total_hist_.Record(result.total_micros);
  } else if (result.status.IsCapacityError()) {
    metrics().AddRejected();
  } else if (result.status.IsCancelled()) {
    metrics().AddCancelled();
  } else if (result.status.IsDeadlineExceeded()) {
    metrics().AddDeadlineExceeded();
  } else {
    metrics().AddFailed();
  }
  if (!result.status.ok()) {
    result.rows.clear();
    result.plan = nullptr;
  }
  return result;
}

void QueryService::ResetStats() {
  metrics().Reset();
  // The cache's lifetime eviction counter is monotone; remember the
  // watermark so Stats() reports evictions since the reset.
  eviction_baseline_.store(plan_cache_.evictions(), std::memory_order_relaxed);
  queue_hist_.Reset();
  exec_hist_.Reset();
  total_hist_.Reset();
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  stats.set_counters(base_exec_->metrics().Snapshot());
  stats.queue = queue_hist_.Summarize();
  stats.exec = exec_hist_.Summarize();
  stats.total = total_hist_.Summarize();
  stats.plan_cache_evictions =
      plan_cache_.evictions() -
      eviction_baseline_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(compaction_mu_);
    for (const auto& c : compactors_) {
      stats.retired_pending += c->stats().retired_pending;
    }
  }
  ViewManagerStats vs = views_->Stats();
  stats.views_registered = vs.views_registered;
  stats.view_subscribers = vs.view_subscribers;
  return stats;
}

CounterValues ServiceStats::counters() const {
#define IDF_STATS_GET(Camel, snake) snake,
  return {IDF_COUNTERS(IDF_STATS_GET)};
#undef IDF_STATS_GET
}

void ServiceStats::set_counters(const CounterValues& values) {
#define IDF_STATS_SET(Camel, snake) \
  snake = values[static_cast<size_t>(Counter::k##Camel)];
  IDF_COUNTERS(IDF_STATS_SET)
#undef IDF_STATS_SET
}

namespace {

/// The non-counter scalars of a ServiceStats, in export order.
std::vector<std::pair<const char*, uint64_t>> Gauges(const ServiceStats& s) {
  return {{"plan_cache_evictions", s.plan_cache_evictions},
          {"retired_pending", s.retired_pending},
          {"views_registered", s.views_registered},
          {"view_subscribers", s.view_subscribers}};
}

}  // namespace

std::string ServiceStats::ToJson() const {
  std::ostringstream out;
  out << "{\"queue\": " << queue.ToJson() << ", \"exec\": " << exec.ToJson()
      << ", \"total\": " << total.ToJson();
  const CounterValues values = counters();
  for (size_t i = 0; i < kNumCounters; ++i) {
    out << ", \"" << kCounterNames[i] << "\": " << values[i];
  }
  for (const auto& [name, value] : Gauges(*this)) {
    out << ", \"" << name << "\": " << value;
  }
  out << "}";
  return out.str();
}

std::string ServiceStats::ToString() const {
  std::ostringstream out;
  out << "total latency: p50=" << total.p50_micros
      << "us p95=" << total.p95_micros << "us p99=" << total.p99_micros
      << "us max=" << total.max_micros << "us (n=" << total.count << ")";
  // The gauges, then the non-zero counters, as name=value wrapped at 80
  // columns.
  std::vector<std::pair<const char*, uint64_t>> items = Gauges(*this);
  const CounterValues values = counters();
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (values[i] != 0) items.emplace_back(kCounterNames[i], values[i]);
  }
  size_t width = 80;
  for (const auto& [name, value] : items) {
    std::string item = std::string(name) + "=" + std::to_string(value);
    if (width + item.size() + 1 > 80) {
      out << "\n" << item;
      width = item.size();
    } else {
      out << " " << item;
      width += item.size() + 1;
    }
  }
  return out.str();
}

}  // namespace idf
