// Reads leave the cTrie arena alone. A read decides visibility by its
// partition's commit record (a store watermark), not by a trie snapshot,
// so no entry point — relation lookup, Session DataFrame, ad-hoc SQL
// through QueryService::Execute, ExecutePrepared — allocates index nodes,
// and a pin taken before every append does not make the append dearer.
#include <string>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "service/query_service.h"

namespace idf {
namespace {

constexpr int kQueries = 20000;
constexpr int64_t kRows = 2000;

SchemaPtr PeopleSchema() {
  return Schema::Make(
      {{"id", TypeId::kInt64, false}, {"name", TypeId::kString, false}});
}

RowVec MakeRows(int64_t begin, int64_t end) {
  RowVec rows;
  rows.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    rows.push_back({Value(i), Value("n" + std::to_string(i))});
  }
  return rows;
}

ServiceConfig EightPartitions() {
  ServiceConfig cfg;
  cfg.engine.num_threads = 2;
  cfg.engine.num_partitions = 8;
  return cfg;
}

TEST(ReadArenaTest, ReadOnlyQueriesAllocateNoIndexNodes) {
  const ServiceConfig cfg = EightPartitions();
  auto service = QueryService::Make(cfg).ValueOrDie();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df =
      session->CreateDataFrame(PeopleSchema(), MakeRows(0, kRows), "people")
          .ValueOrDie();
  IndexedDataFrame indexed =
      IndexedDataFrame::CreateIndex(df, 0, "people_by_id").ValueOrDie();
  IndexedRelationPtr rel = indexed.relation();
  ASSERT_TRUE(service->RegisterTable("people", rel).ok());
  const uint64_t handle =
      service->Prepare("SELECT name FROM people WHERE id = ?").ValueOrDie().handle;
  const size_t arena = rel->arena_bytes();

  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(rel->GetRows(Value(int64_t{i % kRows})).size(), 1u);
  }
  EXPECT_EQ(rel->arena_bytes(), arena) << "IndexedRelation::GetRows";

  for (int i = 0; i < kQueries; ++i) {
    ASSERT_EQ(indexed.GetRows(Value(int64_t{i % kRows})).Count().ValueOrDie(), 1u);
  }
  EXPECT_EQ(rel->arena_bytes(), arena) << "Session DataFrame lookup";

  for (int i = 0; i < kQueries; ++i) {
    QueryResult r = service->Execute("SELECT name FROM people WHERE id = " +
                                     std::to_string(i % kRows));
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_EQ(r.rows.size(), 1u);
  }
  EXPECT_EQ(rel->arena_bytes(), arena) << "QueryService::Execute";

  for (int i = 0; i < kQueries; ++i) {
    QueryResult r = service->ExecutePrepared(handle, {Value(int64_t{i % kRows})});
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    ASSERT_EQ(r.rows.size(), 1u);
  }
  EXPECT_EQ(rel->arena_bytes(), arena) << "ExecutePrepared";
}

// Two relations receive the same 20-row batches; one is pinned before each
// append (a reader that re-pins after every commit). The index nodes each
// appended row costs must not depend on the pins.
TEST(ReadArenaTest, PinsBeforeAppendsDoNotInflateAppendCost) {
  const ServiceConfig cfg = EightPartitions();
  auto session = Session::Make(cfg.engine).ValueOrDie();
  auto df = session->CreateDataFrame(PeopleSchema(), MakeRows(0, kRows), "people")
                .ValueOrDie();
  IndexedRelationPtr pinned =
      IndexedDataFrame::CreateIndex(df, 0, "pinned").ValueOrDie().relation();
  IndexedRelationPtr plain =
      IndexedDataFrame::CreateIndex(df, 0, "plain").ValueOrDie().relation();
  const size_t pinned_before = pinned->arena_bytes();
  const size_t plain_before = plain->arena_bytes();

  constexpr int kBatches = 1000;
  constexpr int64_t kBatchRows = 20;
  for (int b = 0; b < kBatches; ++b) {
    // Keys repeat across batches so appends also extend existing chains.
    RowVec rows;
    for (int64_t i = 0; i < kBatchRows; ++i) {
      const int64_t id = (b * kBatchRows + i) % (2 * kRows);
      rows.push_back({Value(id), Value("m" + std::to_string(b))});
    }
    PinnedSnapshotPtr pin = pinned->Pin();
    ASSERT_TRUE(pinned->AppendRows(session->exec(), rows).ok());
    ASSERT_TRUE(plain->AppendRows(session->exec(), rows).ok());
  }
  const double appended = static_cast<double>(kBatches * kBatchRows);
  const double pinned_per_row =
      static_cast<double>(pinned->arena_bytes() - pinned_before) / appended;
  const double plain_per_row =
      static_cast<double>(plain->arena_bytes() - plain_before) / appended;
  EXPECT_GT(plain_per_row, 0.0);
  EXPECT_LE(pinned_per_row, 1.5 * plain_per_row)
      << "arena bytes per appended row: " << pinned_per_row << " pinned vs "
      << plain_per_row << " unpinned";
}

}  // namespace
}  // namespace idf
