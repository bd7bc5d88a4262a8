#include "service/snapshot_manager.h"

namespace idf {

Status SnapshotManager::RegisterTable(const std::string& name,
                                      IndexedRelationPtr relation) {
  if (relation == nullptr) {
    return Status::InvalidArgument("RegisterTable: null relation");
  }
  std::unique_lock<std::shared_mutex> lock(gate_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already registered: " + name);
  }
  tables_[name] = Entry{{std::move(relation)}, nullptr};
  return Status::OK();
}

Status SnapshotManager::RegisterTable(const std::string& name,
                                      std::shared_ptr<MultiIndexedTable> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("RegisterTable: null table");
  }
  Entry entry;
  for (const std::string& col : table->IndexedColumns()) {
    IDF_ASSIGN_OR_RETURN(IndexedDataFrame idx, table->Index(col));
    entry.indexes.push_back(idx.relation());
  }
  if (entry.indexes.empty()) {
    return Status::InvalidArgument("multi-indexed table has no indexes: " + name);
  }
  entry.multi = std::move(table);
  std::unique_lock<std::shared_mutex> lock(gate_);
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already registered: " + name);
  }
  tables_[name] = std::move(entry);
  return Status::OK();
}

Status SnapshotManager::Append(const std::string& table, const RowVec& rows) {
  // Shared gate for the WHOLE batch: all partitions, all indexes. Other
  // appenders proceed concurrently; a pinner waits for the batch to land
  // completely (and blocks new batches while it captures).
  std::shared_lock<std::shared_mutex> lock(gate_);
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::KeyError("unknown table: " + table);
  }
  const Entry& entry = it->second;
  if (entry.multi != nullptr) {
    IDF_RETURN_NOT_OK(entry.multi->AppendRowsDirect(rows));
  } else {
    IDF_RETURN_NOT_OK(entry.indexes.front()->AppendRows(*exec_, rows));
  }
  CommitSink* sink = sink_.load(std::memory_order_acquire);
  if (sink != nullptr && sink->wants_deltas()) {
    // Copy before the commit mutex: other appenders stay concurrent while
    // the batch is duplicated; only the bump+enqueue pair is serialized,
    // which is what keeps the sink's queue in epoch order without gaps.
    auto delta = std::make_shared<const RowVec>(rows);
    std::lock_guard<std::mutex> commit_lock(commit_mu_);
    const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
    sink->OnCommit(table, std::move(delta), epoch);
  } else {
    epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  return Status::OK();
}

ServiceSnapshot SnapshotManager::PinAll() {
  ServiceSnapshot snap;
  std::vector<IndexedRelationPtr> relations;
  {
    std::shared_lock<std::shared_mutex> lock(gate_);
    snap.tables.reserve(tables_.size());
    for (const auto& [name, entry] : tables_) {
      PinnedTable table;
      table.table = name;
      for (const IndexedRelationPtr& rel : entry.indexes) {
        table.pins.emplace_back(rel, nullptr);
        relations.push_back(rel);
      }
      snap.tables.push_back(std::move(table));
    }
  }
  EpochPins pins = PinIndexes(relations, /*require_sunk=*/true);
  snap.epoch = pins.epoch;
  auto next = pins.pins.begin();
  for (PinnedTable& table : snap.tables) {
    for (auto& [rel, pin] : table.pins) pin = (next++)->second;
  }
  return snap;
}

EpochPins SnapshotManager::PinIndexes(
    const std::vector<IndexedRelationPtr>& relations, bool require_sunk) {
  EpochPins out;
  out.pins.reserve(relations.size());
  // The epoch around the pins: an append bumps its indexes' versions
  // before it bumps the epoch, and pins are captured only with no batch in
  // flight, so pins still current below reflect every batch committed by
  // `out.epoch` and none after it — provided the epoch did not move while
  // they were read (a newer pin may have replaced one meanwhile).
  out.epoch = epoch_.load(std::memory_order_acquire);
  bool current = !require_sunk ||
                 out.epoch <= gated_epoch_.load(std::memory_order_acquire);
  if (current) {
    std::lock_guard<std::mutex> cache_lock(cache_mu_);
    for (const IndexedRelationPtr& rel : relations) {
      auto it = last_pins_.find(rel);
      if (it == last_pins_.end()) break;
      out.pins.emplace_back(rel, it->second);
    }
  }
  current = current && out.pins.size() == relations.size();
  for (size_t i = 0; current && i < out.pins.size(); ++i) {
    current = out.pins[i].first->PinIsCurrent(*out.pins[i].second);
  }
  if (current && epoch_.load(std::memory_order_acquire) == out.epoch) return out;

  std::unique_lock<std::shared_mutex> lock(gate_);
  out.epoch = epoch_.load(std::memory_order_acquire);
  out.pins.clear();
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  for (auto it = last_pins_.begin(); it != last_pins_.end();) {
    it = it->first->PinIsCurrent(*it->second) ? std::next(it) : last_pins_.erase(it);
  }
  for (const IndexedRelationPtr& rel : relations) {
    PinnedSnapshotPtr& pin = last_pins_[rel];
    if (pin == nullptr) pin = rel->Pin();
    out.pins.emplace_back(rel, pin);
  }
  gated_epoch_.store(out.epoch, std::memory_order_release);
  return out;
}

Status SnapshotManager::RegisterTables(Session& session) const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  for (const auto& [name, entry] : tables_) {
    std::vector<RelationRead> paths(entry.indexes.begin(), entry.indexes.end());
    IDF_RETURN_NOT_OK(session.RegisterTable(
        name, session.FromPlan(std::make_shared<IndexedScanNode>(std::move(paths)))));
  }
  return Status::OK();
}

std::vector<IndexedRelationPtr> SnapshotManager::Relations() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<IndexedRelationPtr> out;
  for (const auto& [name, entry] : tables_) {
    out.insert(out.end(), entry.indexes.begin(), entry.indexes.end());
  }
  return out;
}

std::vector<TableInfo> SnapshotManager::TableInfos() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<TableInfo> infos;
  infos.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) {
    TableInfo info;
    info.name = name;
    info.schema = entry.indexes.front()->schema();
    for (const IndexedRelationPtr& rel : entry.indexes) {
      // Primary (cTrie) index columns only: bitmap/range secondary indexes
      // are not epoch-pinnable arrangements, so the view subsystem must
      // not treat them as maintainable join paths (it would downgrade
      // correctness, not just performance). See the kJoin gate in
      // MaterializedViewManager::Subscribe.
      info.indexed_columns.push_back(rel->indexed_column());
    }
    infos.push_back(std::move(info));
  }
  return infos;
}

std::vector<std::string> SnapshotManager::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(gate_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace idf
