// Block directory and block-granular scans: the directory's block
// boundaries (watermarks at 0, 255, 256 and 257 rows), a snapshot taken
// while a block was still open and read after it sealed, scans after a
// compaction rewrite (whose zone maps prune on the indexed key only), and
// scans racing 20-row appends across block seals (part of the TSan CI job).
#include "storage/block_directory.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "indexed/compactor.h"
#include "indexed/indexed_operators.h"
#include "indexed/indexed_partition.h"
#include "sql/predicate_compiler.h"

namespace idf {
namespace {

constexpr size_t kBlock = BlockDirectory::kBlockRows;

SchemaPtr Schema2() {
  return Schema::Make({{"id", TypeId::kInt64, false},
                       {"k", TypeId::kInt64, true},
                       {"s", TypeId::kString, true}});
}

Row MakeRow(int64_t id, int64_t keys = 7) {
  return {Value(id), Value(id % keys), Value("r" + std::to_string(id))};
}

RowVec MakeRows(int64_t begin, int64_t end, int64_t keys = 7) {
  RowVec rows;
  for (int64_t i = begin; i < end; ++i) rows.push_back(MakeRow(i, keys));
  return rows;
}

EngineConfig SmallBatches() {
  EngineConfig cfg;
  cfg.num_partitions = 4;
  cfg.num_threads = 2;
  cfg.morsel_rows = 512;
  cfg.row_batch_bytes = 8 * 1024;  // blocks straddle row batches
  return cfg;
}

/// Every row of `view`, block by block.
RowVec RowsByBlocks(const IndexedPartition::View& view, const Schema& schema) {
  RowVec rows;
  for (uint64_t b = 0; b < view.num_blocks(); ++b) {
    std::vector<const uint8_t*> payloads;
    view.BlockPayloads(b, &payloads);
    EXPECT_EQ(payloads.size(), view.BlockRows(b)) << "block " << b;
    for (const uint8_t* p : payloads) rows.push_back(DecodeRow(p, schema));
  }
  return rows;
}

/// `id >= lo` compiled against Schema2.
CompiledPredicate IdAtLeast(int64_t lo) {
  ExprPtr pred = BindExpr(Ge(Col("id"), Lit(Value(lo))), *Schema2()).ValueOrDie();
  return *CompiledPredicate::Compile(pred, *Schema2());
}

TEST(BlockDirectoryTest, BoundariesAtZero255_256And257Rows) {
  for (const size_t n : {size_t{0}, kBlock - 1, kBlock, kBlock + 1}) {
    SCOPED_TRACE("rows=" + std::to_string(n));
    IndexedPartition part(Schema2(), 1, SmallBatches());
    const RowVec rows = MakeRows(0, static_cast<int64_t>(n));
    for (const Row& row : rows) ASSERT_TRUE(part.Append(row).ok());
    const IndexedPartition::View view = part.Snapshot();
    EXPECT_EQ(part.gen()->blocks.sealed(), n / kBlock);
    EXPECT_EQ(view.num_blocks(), (n + kBlock - 1) / kBlock);
    for (uint64_t b = 0; b < view.num_blocks(); ++b) {
      EXPECT_EQ(view.BlockSealed(b), (b + 1) * kBlock <= n);
      EXPECT_EQ(view.BlockFirstRow(b), b * kBlock);
    }
    EXPECT_EQ(RowsByBlocks(view, *Schema2()), rows);
    if (n >= kBlock) {
      // The sealed block's zone map bounds exactly its rows' ids.
      const BlockZoneMap zone = view.ZoneMap(0);
      ASSERT_NE(zone.Range(0), nullptr);
      EXPECT_EQ(zone.Range(0)->min, 0);
      EXPECT_EQ(zone.Range(0)->max, static_cast<int64_t>(kBlock) - 1);
      EXPECT_FALSE(zone.SawNull(0));
      EXPECT_EQ(zone.Range(2), nullptr);  // strings carry no statistics
      EXPECT_TRUE(IdAtLeast(kBlock - 1).MayMatch(zone));
      EXPECT_FALSE(IdAtLeast(kBlock).MayMatch(zone));
    }
  }
}

TEST(BlockDirectoryTest, ZoneMapRecordsNullsAndAllNullColumns) {
  IndexedPartition part(Schema2(), 0, SmallBatches());
  for (int64_t i = 0; i < static_cast<int64_t>(kBlock); ++i) {
    ASSERT_TRUE(part.Append({Value(i), Value::Null(), Value::Null()}).ok());
  }
  const BlockZoneMap zone = part.Snapshot().ZoneMap(0);
  EXPECT_TRUE(zone.SawNull(1));
  EXPECT_FALSE(zone.Range(1)->has_value());
  const SchemaPtr schema = Schema2();
  auto compiled = [&](ExprPtr e) {
    return *CompiledPredicate::Compile(BindExpr(e, *schema).ValueOrDie(),
                                       *schema);
  };
  EXPECT_FALSE(compiled(IsNotNull(Col("k"))).MayMatch(zone));
  EXPECT_TRUE(compiled(IsNull(Col("k"))).MayMatch(zone));
  // Every comparison on an all-null column is NULL, never TRUE ...
  EXPECT_FALSE(compiled(Eq(Col("k"), Lit(Value(int64_t{1})))).MayMatch(zone));
  // ... but NOT(NULL) is NULL too, and OR with a possible TRUE stays TRUE.
  EXPECT_FALSE(compiled(Not(Eq(Col("k"), Lit(Value(int64_t{1}))))).MayMatch(zone));
  EXPECT_TRUE(compiled(Or(Eq(Col("k"), Lit(Value(int64_t{1}))),
                          Lt(Col("id"), Lit(Value(int64_t{5})))))
                  .MayMatch(zone));
}

TEST(BlockDirectoryTest, SnapshotTakenBeforeASealReadsItsOwnTail) {
  IndexedPartition part(Schema2(), 1, SmallBatches());
  const RowVec first = MakeRows(0, 200);
  for (const Row& row : first) ASSERT_TRUE(part.Append(row).ok());
  const IndexedPartition::View before = part.Snapshot();
  // Seal block 0 and open block 1 after the snapshot.
  const RowVec more = MakeRows(200, 300);
  for (const Row& row : more) ASSERT_TRUE(part.Append(row).ok());
  const IndexedPartition::View after = part.Snapshot();

  // The old view still sees one open tail of exactly its 200 rows.
  EXPECT_EQ(before.num_blocks(), 1u);
  EXPECT_FALSE(before.BlockSealed(0));
  EXPECT_EQ(RowsByBlocks(before, *Schema2()), first);

  RowVec all = first;
  all.insert(all.end(), more.begin(), more.end());
  EXPECT_EQ(after.num_blocks(), 2u);
  EXPECT_TRUE(after.BlockSealed(0));
  EXPECT_EQ(after.BlockRows(1), 300 - kBlock);
  EXPECT_EQ(RowsByBlocks(after, *Schema2()), all);
}

TEST(BlockDirectoryTest, PinnedScanIgnoresBlocksSealedAfterThePin) {
  auto ctx = ExecutorContext::Make(SmallBatches()).ValueOrDie();
  auto rel = IndexedRelation::Build(*ctx, "t", Schema2(), 1, MakeRows(0, 900))
                 .ValueOrDie();
  PinnedSnapshotPtr pin = rel->Pin();
  for (int64_t b = 0; b < 30; ++b) {
    ASSERT_TRUE(rel->AppendRows(*ctx, MakeRows(900 + 20 * b, 920 + 20 * b)).ok());
  }
  ExprPtr pred =
      BindExpr(Ge(Col("id"), Lit(Value(int64_t{850}))), *Schema2()).ValueOrDie();
  IndexedScanFilterOp scan(ScanSource(rel, pin), pred,
                           PushedFilter::FromSplit(SplitForCompilation(pred, *Schema2())));
  ctx->metrics().Reset();
  RowVec got = CollectRows(scan.Execute(*ctx).ValueOrDie());
  EXPECT_EQ(got.size(), 50u);
  for (const Row& row : got) {
    EXPECT_GE(row[0].int64_value(), 850);
    EXPECT_LT(row[0].int64_value(), 900);
  }
  // Contiguous ids per partition: the early blocks prune, and only the
  // blocks that can hold ids >= 850 (plus the open tails) are examined.
  EXPECT_GT(ctx->metrics().blocks_skipped(), 0u);
  EXPECT_LT(ctx->metrics().rows_scanned(), 900u);
}

TEST(BlockDirectoryTest, ScanAfterCompactionRewrite) {
  auto ctx = ExecutorContext::Make(SmallBatches()).ValueOrDie();
  auto rel = IndexedRelation::Build(*ctx, "t", Schema2(), 1, {}).ValueOrDie();
  for (int64_t b = 0; b < 100; ++b) {
    ASSERT_TRUE(rel->AppendRows(*ctx, MakeRows(20 * b, 20 * b + 20, 50)).ok());
  }
  auto full_scan = [&] {
    IndexedScanOp scan(rel);
    RowVec rows = CollectRows(scan.Execute(*ctx).ValueOrDie());
    SortRows(&rows);
    return rows;
  };
  const RowVec before = full_scan();
  ASSERT_EQ(before.size(), 2000u);

  Compactor compactor(rel);
  for (int p = 0; p < rel->num_partitions(); ++p) {
    IDF_CHECK_OK(compactor.CompactPartition(p));
  }
  EXPECT_EQ(full_scan(), before);
  // The rewrite's directory covers every row of the fresh generation.
  for (int p = 0; p < rel->num_partitions(); ++p) {
    const IndexedPartition::View view = rel->partition(p).Snapshot();
    RowVec expect;
    view.Scan([&](const Row& row) { expect.push_back(row); });
    EXPECT_EQ(RowsByBlocks(view, *Schema2()), expect) << "partition " << p;
  }

  // A compacted generation is key-clustered: a key filter prunes, and the
  // filter's answer is unchanged.
  ExprPtr pred =
      BindExpr(Eq(Col("k"), Lit(Value(int64_t{7}))), *Schema2()).ValueOrDie();
  IndexedScanFilterOp scan(rel, pred,
                           PushedFilter::FromSplit(SplitForCompilation(pred, *Schema2())));
  ctx->metrics().Reset();
  RowVec got = CollectRows(scan.Execute(*ctx).ValueOrDie());
  EXPECT_EQ(got.size(), 40u);
  EXPECT_GT(ctx->metrics().blocks_skipped(), 0u);
}

TEST(BlockDirectoryConcurrencyTest, ScansRaceTwentyRowAppendsAcrossSeals) {
  EngineConfig cfg = SmallBatches();
  cfg.num_partitions = 2;
  auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
  auto rel = IndexedRelation::Build(*ctx, "t", Schema2(), 1, {}).ValueOrDie();
  constexpr int64_t kBatches = 150;  // 3000 rows: ~6 seals per partition
  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (int64_t b = 0; b < kBatches; ++b) {
      IDF_CHECK_OK(rel->AppendRows(*ctx, MakeRows(20 * b, 20 * b + 20)));
    }
    done.store(true);
  });

  auto reader = [&](int64_t lo) {
    auto rctx = ExecutorContext::Make(cfg).ValueOrDie();
    ExprPtr pred =
        BindExpr(Ge(Col("id"), Lit(Value(lo))), *Schema2()).ValueOrDie();
    const PushedFilter filter =
        PushedFilter::FromSplit(SplitForCompilation(pred, *Schema2()));
    int scans = 0;
    while (!done.load() || scans < 3) {
      PinnedSnapshotPtr pin = rel->Pin();
      // Appends land in id order, so every partition of a consistent
      // version holds strictly increasing ids.
      IndexedScanOp all(ScanSource(rel, pin));
      PartitionVec parts = all.Execute(*rctx).ValueOrDie();
      size_t total = 0;
      for (const PartitionData& part : parts) {
        for (size_t i = 1; i < part.rows().size(); ++i) {
          ASSERT_LT(part.rows()[i - 1][0].int64_value(),
                    part.rows()[i][0].int64_value());
        }
        total += part.rows().size();
      }
      ASSERT_EQ(total, pin->num_rows());
      // The pruned scan of the same version returns exactly the rows the
      // full scan saw with id >= lo, partition by partition.
      IndexedScanFilterOp filtered(ScanSource(rel, pin), pred, filter);
      PartitionVec got = filtered.Execute(*rctx).ValueOrDie();
      ASSERT_EQ(got.size(), parts.size());
      for (size_t p = 0; p < parts.size(); ++p) {
        RowVec want;
        for (const Row& row : parts[p].rows()) {
          if (row[0].int64_value() >= lo) want.push_back(row);
        }
        ASSERT_EQ(got[p].rows(), want) << "partition " << p;
      }
      ++scans;
    }
  };
  std::thread r1(reader, 0);
  std::thread r2(reader, 2500);
  appender.join();
  r1.join();
  r2.join();
  EXPECT_EQ(rel->num_rows(), static_cast<size_t>(20 * kBatches));
}

}  // namespace
}  // namespace idf
