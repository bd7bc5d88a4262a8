// Unit tests for IndexedRelation: hash-partitioned build, appends,
// multi-partition snapshots, version counting.
#include "indexed/indexed_relation.h"

#include <atomic>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace idf {
namespace {

ExecutorContextPtr MakeCtx(int partitions = 4, int threads = 2) {
  EngineConfig cfg;
  cfg.num_partitions = partitions;
  cfg.num_threads = threads;
  cfg.row_batch_bytes = 16 * 1024;
  return ExecutorContext::Make(cfg).ValueOrDie();
}

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true}, {"v", TypeId::kString, true}});
}

RowVec KvRows(int n, int keys = 10) {
  RowVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value(i % keys), Value("r" + std::to_string(i))});
  }
  return rows;
}

TEST(IndexedRelationTest, BuildAndLookup) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(1000))
                 .ValueOrDie();
  EXPECT_EQ(rel->num_rows(), 1000u);
  EXPECT_EQ(rel->num_partitions(), 4);
  for (int64_t k = 0; k < 10; ++k) {
    RowVec rows = rel->GetRows(Value(k));
    EXPECT_EQ(rows.size(), 100u) << k;
    for (const Row& row : rows) EXPECT_EQ(row[0], Value(k));
  }
  EXPECT_TRUE(rel->GetRows(Value(int64_t{999})).empty());
}

TEST(IndexedRelationTest, RowsLiveInTheirHashPartition) {
  auto ctx = MakeCtx(8);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(800, 40))
                 .ValueOrDie();
  for (int64_t k = 0; k < 40; ++k) {
    int home = rel->partitioner().PartitionOf(Value(k));
    // The key's rows are in the home partition and nowhere else.
    EXPECT_EQ(rel->partition(home).GetRows(Value(k)).size(), 20u);
    for (int p = 0; p < rel->num_partitions(); ++p) {
      if (p == home) continue;
      EXPECT_TRUE(rel->partition(p).GetRows(Value(k)).empty());
    }
  }
}

TEST(IndexedRelationTest, MakeRejectsBadColumn) {
  EngineConfig cfg;
  EXPECT_TRUE(
      IndexedRelation::Make("t", KvSchema(), 5, cfg).status().IsIndexError());
  EXPECT_TRUE(
      IndexedRelation::Make("t", KvSchema(), -1, cfg).status().IsIndexError());
}

TEST(IndexedRelationTest, AppendRowsBumpsVersion) {
  auto ctx = MakeCtx();
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(100)).ValueOrDie();
  uint64_t v0 = rel->version();
  ASSERT_TRUE(rel->AppendRows(*ctx, KvRows(50)).ok());
  EXPECT_EQ(rel->version(), v0 + 1);
  EXPECT_EQ(rel->num_rows(), 150u);
}

TEST(IndexedRelationTest, AppendRowValidates) {
  auto ctx = MakeCtx();
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(10)).ValueOrDie();
  EXPECT_TRUE(rel->AppendRow({Value(int64_t{1})}).IsInvalidArgument());
  EXPECT_TRUE(
      rel->AppendRow({Value("wrong"), Value("type")}).IsTypeError());
}

TEST(IndexedRelationTest, SingleRowAppendVisibleImmediately) {
  auto ctx = MakeCtx();
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  ASSERT_TRUE(rel->AppendRow({Value(int64_t{42}), Value("hello")}).ok());
  RowVec rows = rel->GetRows(Value(int64_t{42}));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1], Value("hello"));
}

TEST(IndexedRelationTest, SnapshotIsConsistentAcrossPartitions) {
  auto ctx = MakeCtx();
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(400)).ValueOrDie();
  IndexedRelationSnapshot snap = rel->Snapshot();
  ASSERT_TRUE(rel->AppendRows(*ctx, KvRows(400)).ok());
  EXPECT_EQ(snap.num_rows(), 400u);
  for (int64_t k = 0; k < 10; ++k) {
    EXPECT_EQ(snap.GetRows(Value(k)).size(), 40u);
    EXPECT_EQ(rel->GetRows(Value(k)).size(), 80u);
  }
}

TEST(IndexedRelationTest, NullKeyLookupIsEmpty) {
  auto ctx = MakeCtx();
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, KvRows(10)).ValueOrDie();
  EXPECT_TRUE(rel->GetRows(Value::Null()).empty());
  EXPECT_TRUE(rel->Snapshot().GetRows(Value::Null()).empty());
}

TEST(IndexedRelationTest, ConcurrentAppendersSerializePerPartition) {
  auto ctx = MakeCtx(4, 4);
  auto rel =
      IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  std::vector<std::thread> writers;
  constexpr int kWriters = 4;
  constexpr int kRowsPerWriter = 2000;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&rel, w] {
      for (int i = 0; i < kRowsPerWriter; ++i) {
        Row row = {Value(int64_t{i % 10}),
                   Value("w" + std::to_string(w) + "_" + std::to_string(i))};
        IDF_CHECK_OK(rel->AppendRow(row));
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(rel->num_rows(), static_cast<size_t>(kWriters * kRowsPerWriter));
  size_t total = 0;
  for (int64_t k = 0; k < 10; ++k) total += rel->GetRows(Value(k)).size();
  EXPECT_EQ(total, static_cast<size_t>(kWriters * kRowsPerWriter));
}

TEST(IndexedRelationTest, MemoryOverheadIsModest) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0,
                                    KvRows(20000, 5000))
                 .ValueOrDie();
  // The paper claims "relatively low memory overhead in addition to the
  // original data"; the index should cost less than ~3x the data here
  // (small rows are the worst case for relative overhead).
  EXPECT_GT(rel->data_bytes(), 0u);
  EXPECT_LT(rel->index_bytes(),
            3 * rel->data_bytes() + (1u << 20));
}

TEST(IndexedRelationTest, BatchedAppendLocksEachTouchedPartitionOnce) {
  auto ctx = MakeCtx(8);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();

  // Few keys, so some of the 8 partitions are provably untouched.
  RowVec rows = KvRows(500, 3);
  std::set<int> touched;
  for (const Row& row : rows) {
    touched.insert(rel->partitioner().PartitionOf(row[0]));
  }
  ASSERT_GT(touched.size(), 1u);
  ASSERT_LT(touched.size(), 8u);

  ctx->metrics().Reset();
  ASSERT_TRUE(rel->AppendRows(*ctx, rows).ok());
  // The acceptance criterion of the batched write path: lock acquisitions
  // per batch == partitions touched, and the whole batch is one commit.
  EXPECT_EQ(ctx->metrics().append_partition_locks(), touched.size());
  EXPECT_EQ(ctx->metrics().append_batches(), 1u);
}

TEST(IndexedRelationTest, AppendsLeaveShuffleAndTaskCountersAlone) {
  // Routing an append batch to its partitions is ingest, reported by the
  // append counters; the shuffle and task counters stay the queries' own.
  auto ctx = MakeCtx(4);
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  ctx->metrics().Reset();
  ASSERT_TRUE(rel->AppendRows(*ctx, KvRows(20)).ok());
  ASSERT_TRUE(rel->AppendRows(*ctx, KvRows(5000, 97)).ok());
  EXPECT_EQ(ctx->metrics().append_batches(), 2u);
  EXPECT_GT(ctx->metrics().append_partition_locks(), 0u);
  EXPECT_EQ(ctx->metrics().shuffled_rows(), 0u);
  EXPECT_EQ(ctx->metrics().shuffled_bytes(), 0u);
  EXPECT_EQ(ctx->metrics().tasks_run(), 0u);
}

TEST(IndexedRelationTest, BatchedAndPerRowAppendsAreEquivalent) {
  auto ctx = MakeCtx();
  RowVec rows = KvRows(600, 17);
  auto batched =
      IndexedRelation::Make("b", KvSchema(), 0, ctx->config()).ValueOrDie();
  auto per_row =
      IndexedRelation::Make("p", KvSchema(), 0, ctx->config()).ValueOrDie();
  ASSERT_TRUE(batched->AppendRows(*ctx, rows).ok());
  for (const Row& row : rows) ASSERT_TRUE(per_row->AppendRow(row).ok());

  ASSERT_EQ(batched->num_rows(), per_row->num_rows());
  for (int64_t k = 0; k < 17; ++k) {
    RowVec b = batched->GetRows(Value(k));
    RowVec p = per_row->GetRows(Value(k));
    ASSERT_EQ(b.size(), p.size()) << k;
    // Same rows in the same newest-first order.
    for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], p[i]) << k;
  }
}

TEST(IndexedRelationTest, AppendEncodedRejectsMismatchedBatch) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  RowVec rows = KvRows(10);
  auto enc = EncodeRowBatch(*ctx, *KvSchema(), rows).ValueOrDie();
  RowVec fewer(rows.begin(), rows.begin() + 5);
  EXPECT_TRUE(rel->AppendEncoded(*ctx, fewer, enc).IsInvalidArgument());
  EXPECT_EQ(rel->num_rows(), 0u);
}

TEST(IndexedRelationTest, ChainStatsTrackAppendedChains) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  ASSERT_TRUE(rel->AppendRows(*ctx, KvRows(400, 8)).ok());
  ChainStatsSnapshot stats = rel->ChainStats();
  EXPECT_EQ(stats.num_keys, 8u);
  EXPECT_EQ(stats.total_links, 400u);
  EXPECT_EQ(stats.max_chain_len, 50u);
  EXPECT_DOUBLE_EQ(stats.MeanChainLen(), 50.0);
  uint64_t hist_total = 0;
  for (uint64_t c : stats.chain_len_histogram) hist_total += c;
  EXPECT_EQ(hist_total, stats.num_keys);
}

TEST(IndexedRelationTest, BuildEmptyRelationWorks) {
  auto ctx = MakeCtx();
  auto rel = IndexedRelation::Build(*ctx, "t", KvSchema(), 0, {}).ValueOrDie();
  EXPECT_EQ(rel->num_rows(), 0u);
  EXPECT_TRUE(rel->GetRows(Value(int64_t{1})).empty());
  EXPECT_EQ(rel->Snapshot().num_rows(), 0u);
}

}  // namespace
}  // namespace idf
