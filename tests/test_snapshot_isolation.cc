// Snapshot isolation under a live append stream (the MVCC guarantee of
// the query service): a pinned snapshot must sit exactly on an epoch
// boundary — never half of a multi-partition batch, and never a row
// present in one index of a multi-indexed table but missing from another.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/multi_indexed_table.h"
#include "service/query_service.h"

namespace idf {
namespace {

constexpr int64_t kBatchRows = 64;
constexpr int kBatches = 150;

SchemaPtr TwoColSchema() {
  return Schema::Make(
      {{"id", TypeId::kInt64, false}, {"owner", TypeId::kInt64, false}});
}

RowVec Batch(int batch) {
  RowVec rows;
  rows.reserve(kBatchRows);
  for (int64_t i = 0; i < kBatchRows; ++i) {
    int64_t id = batch * kBatchRows + i;
    rows.push_back({Value(id), Value(id % 50)});
  }
  return rows;
}

ServiceConfig SmallEngine() {
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 8;  // batches span many partitions
  return cfg;
}

TEST(SnapshotIsolationTest, PinNeverSeesAPartialMultiPartitionBatch) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ServiceSnapshot snap = service->snapshots().PinAll();
        const PinnedTable* t = snap.find("t");
        ASSERT_NE(t, nullptr);
        size_t rows = t->primary()->num_rows();
        // Every batch is kBatchRows and commits with one epoch bump, so a
        // boundary snapshot always satisfies both equalities. A torn read
        // (some partitions of a batch landed, others not yet) breaks them.
        if (rows % static_cast<size_t>(kBatchRows) != 0 ||
            rows != (snap.epoch + 1) * static_cast<size_t>(kBatchRows)) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (int b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(service->Append("t", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(service->epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(rel->num_rows(), static_cast<size_t>((kBatches + 1) * kBatchRows));
}

TEST(SnapshotIsolationTest, MultiIndexTablePinsAllIndexesAtOneEpoch) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "owner"}, "posts").ValueOrDie());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        ServiceSnapshot snap = service->snapshots().PinAll();
        const PinnedTable* t = snap.find("posts");
        ASSERT_NE(t, nullptr);
        ASSERT_EQ(t->pins.size(), 2u);
        size_t by_id = t->pins[0].second->num_rows();
        size_t by_owner = t->pins[1].second->num_rows();
        // The append fans out to both indexes inside one gate hold: the
        // two pins must agree exactly, on a batch boundary.
        if (by_id != by_owner || by_id % static_cast<size_t>(kBatchRows) != 0) {
          violations.fetch_add(1);
        }
      }
    });
  }

  for (int b = 1; b <= kBatches; ++b) {
    ASSERT_TRUE(service->Append("posts", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(SnapshotIsolationTest, SameEpochPinsShareTheCachedSnapshot) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());
  SnapshotManager& mgr = service->snapshots();

  // No epoch moved between the pins: the second reuses the first's
  // pinned-snapshot objects outright.
  ServiceSnapshot a = mgr.PinAll();
  ServiceSnapshot b = mgr.PinAll();
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.find("t")->primary().get(), b.find("t")->primary().get());

  // A committed batch supersedes those pins: a later pin sits on the new
  // boundary while the earlier pins still read the old one.
  ASSERT_TRUE(service->Append("t", Batch(1)).ok());
  ServiceSnapshot c = mgr.PinAll();
  EXPECT_EQ(c.epoch, a.epoch + 1);
  EXPECT_NE(c.find("t")->primary().get(), a.find("t")->primary().get());
  EXPECT_EQ(a.find("t")->primary()->num_rows(), static_cast<size_t>(kBatchRows));
  EXPECT_EQ(c.find("t")->primary()->num_rows(),
            static_cast<size_t>(2 * kBatchRows));

  // A table registered while the epoch stays put is still in the next pin.
  auto df2 =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "u").ValueOrDie();
  auto rel2 = IndexedDataFrame::CreateIndex(df2, 0, "u_by_id").ValueOrDie()
                  .relation();
  ASSERT_TRUE(service->RegisterTable("u", rel2).ok());
  ServiceSnapshot d = mgr.PinAll();
  EXPECT_EQ(d.epoch, c.epoch);
  ASSERT_NE(d.find("u"), nullptr);
}

TEST(SnapshotIsolationTest, UntouchedTablesKeepTheirPinAcrossEpochs) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  for (const char* name : {"t", "u"}) {
    auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), name).ValueOrDie();
    auto rel = IndexedDataFrame::CreateIndex(df, 0, name).ValueOrDie().relation();
    ASSERT_TRUE(service->RegisterTable(name, rel).ok());
  }
  SnapshotManager& mgr = service->snapshots();
  ServiceSnapshot a = mgr.PinAll();
  ASSERT_TRUE(service->Append("t", Batch(1)).ok());
  ServiceSnapshot b = mgr.PinAll();
  EXPECT_EQ(b.epoch, a.epoch + 1);
  // The batch reached only `t`: `u`'s pin is already this epoch's view and
  // is reused, while `t` is pinned afresh at the new boundary.
  EXPECT_EQ(b.find("u")->primary().get(), a.find("u")->primary().get());
  EXPECT_NE(b.find("t")->primary().get(), a.find("t")->primary().get());
  EXPECT_EQ(b.find("t")->primary()->num_rows(),
            static_cast<size_t>(2 * kBatchRows));
  EXPECT_EQ(b.find("u")->primary()->num_rows(), static_cast<size_t>(kBatchRows));
}

// A scan of a two-index table reads one index; the other must not be
// pinned on its behalf (a pin it does not need would keep that index's
// version alive and send its readers through the exclusive gate).
TEST(SnapshotIsolationTest, ScansPinOnlyTheIndexTheyRead) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "owner"}, "posts").ValueOrDie());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());
  IndexedRelationPtr by_owner = table->Index("owner").ValueOrDie().relation();
  SnapshotManager& mgr = service->snapshots();

  // A pin holds every partition's generation; the manager keeps an
  // index's last pin, so a pinned index shows one more holder.
  auto holders = [&] { return by_owner->partition(0).gen().use_count(); };
  const long unpinned = holders();

  QueryResult scan = service->Execute("SELECT COUNT(*) FROM posts");
  ASSERT_TRUE(scan.ok()) << scan.status.ToString();
  EXPECT_EQ(holders(), unpinned);
  const uint64_t handle =
      service->Prepare("SELECT COUNT(*) FROM posts WHERE id >= ?").ValueOrDie().handle;
  QueryResult prepared = service->ExecutePrepared(handle, {Value(int64_t{0})});
  ASSERT_TRUE(prepared.ok()) << prepared.status.ToString();
  EXPECT_EQ(prepared.rows[0][0], Value(int64_t{kBatchRows}));
  EXPECT_EQ(holders(), unpinned);
  mgr.Pin({by_owner});
  EXPECT_EQ(holders(), unpinned + 1);
}

// A pin that has gone stale is never handed out again; keeping it would
// only hold an old version (after compaction, a retired generation)
// alive. The next exclusive pin section drops it, even when no query reads
// that index any more.
TEST(SnapshotIsolationTest, StalePinsOfUnreadIndexesAreReleased) {
  auto service = QueryService::Make(SmallEngine()).ValueOrDie();
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df =
      session->CreateDataFrame(TwoColSchema(), Batch(0), "posts").ValueOrDie();
  auto table = std::make_shared<MultiIndexedTable>(
      MultiIndexedTable::Create(df, {"id", "owner"}, "posts").ValueOrDie());
  ASSERT_TRUE(service->RegisterTable("posts", table).ok());

  std::weak_ptr<PinnedSnapshot> owner_pin =
      service->snapshots().PinAll().find("posts")->pins[1].second;
  ASSERT_FALSE(owner_pin.expired());
  ASSERT_TRUE(service->Append("posts", Batch(1)).ok());
  ASSERT_TRUE(service->Execute("SELECT COUNT(*) FROM posts").ok());
  EXPECT_TRUE(owner_pin.expired());
}

TEST(SnapshotIsolationTest, SqlReadersSeeOnlyEpochBoundaries) {
  ServiceConfig cfg = SmallEngine();
  cfg.max_inflight = 4;
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  auto rel = IndexedDataFrame::CreateIndex(df, 0, "t_by_id").ValueOrDie()
                 .relation();
  ASSERT_TRUE(service->RegisterTable("t", rel).ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        QueryResult res = service->Execute("SELECT COUNT(*) FROM t");
        if (!res.ok()) {
          violations.fetch_add(1);
          continue;
        }
        int64_t n = res.rows[0][0].int64_value();
        if (n % kBatchRows != 0 ||
            n != static_cast<int64_t>(res.epoch + 1) * kBatchRows) {
          violations.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }

  for (int b = 1; b <= 60; ++b) {
    ASSERT_TRUE(service->Append("t", Batch(b)).ok());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(reads.load(), 0);
}

// A view answers a lookup with exactly the rows its scan sees. Every row of
// each appended batch carries one key, so a view whose watermark lands
// inside a batch's commit must find on that key's chain exactly the rows
// its scan finds — no fewer (heads published after the watermark moved)
// and no more. Rounds on fresh relations keep each view's scan short, so
// readers take many views per batch.
TEST(SnapshotIsolationTest, ViewLookupEqualsItsScanUnderAppends) {
  constexpr int kRounds = 100;
  constexpr int kBatchesPerRound = 40;
  auto session = Session::Make(SmallEngine().engine).ValueOrDie();
  auto df = session->CreateDataFrame(TwoColSchema(), Batch(0), "t").ValueOrDie();
  const Value key(int64_t{7});
  IndexedRelationPtr current;  // atomic_load/atomic_store

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> views{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        IndexedRelationPtr rel = std::atomic_load(&current);
        if (rel == nullptr) continue;
        const Schema& schema = *rel->schema();
        IndexedPartition::View view =
            rel->partition(rel->partitioner().PartitionOf(key)).Snapshot();
        std::vector<const uint8_t*> scanned;
        view.ScanRaw([&](const uint8_t* payload) {
          if (DecodeColumn(payload, schema, 1) == key) scanned.push_back(payload);
        });
        std::vector<const uint8_t*> looked_up;
        view.GetRawRows(key, &looked_up);
        std::reverse(looked_up.begin(), looked_up.end());  // to append order
        if (looked_up != scanned) mismatches.fetch_add(1);
        views.fetch_add(1);
      }
    });
  }

  for (int round = 0; round < kRounds; ++round) {
    IndexedRelationPtr rel = IndexedDataFrame::CreateIndex(df, 1, "t_by_owner")
                                 .ValueOrDie()
                                 .relation();
    std::atomic_store(&current, rel);
    for (int b = 1; b <= kBatchesPerRound; ++b) {
      RowVec rows;
      rows.reserve(kBatchRows);
      for (int64_t i = 0; i < kBatchRows; ++i) {
        rows.push_back({Value(b * kBatchRows + i), key});
      }
      ASSERT_TRUE(rel->AppendRows(session->exec(), rows).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0) << "of " << views.load() << " views";
  EXPECT_GT(views.load(), 0);
}

}  // namespace
}  // namespace idf
