// Unit tests for the regular physical operators: scans, filter (columnar
// fast path and row fallback), project, aggregate, sort, limit, joins.
#include "sql/physical_operators.h"

#include <gtest/gtest.h>

#include "sql/analyzer.h"

namespace idf {
namespace {

ExecutorContextPtr MakeCtx(int partitions = 4, int threads = 2) {
  EngineConfig cfg;
  cfg.num_partitions = partitions;
  cfg.num_threads = threads;
  return ExecutorContext::Make(cfg).ValueOrDie();
}

SchemaPtr KvSchema() {
  return Schema::Make({{"k", TypeId::kInt64, true},
                       {"v", TypeId::kString, true},
                       {"x", TypeId::kFloat64, true}});
}

RowVec KvRows(int n) {
  RowVec rows;
  for (int64_t i = 0; i < n; ++i) {
    rows.push_back({Value(i % 10), Value("v" + std::to_string(i)),
                    Value(static_cast<double>(i))});
  }
  return rows;
}

RawTablePtr MakeRaw(int n, int partitions = 4) {
  auto t = std::make_shared<RawTable>();
  t->name = "raw";
  t->schema = KvSchema();
  t->partitions = SplitContiguous(KvRows(n), partitions);
  return t;
}

CachedTablePtr MakeCached(int n, int partitions = 4) {
  auto t = std::make_shared<CachedTable>();
  t->name = "cached";
  t->schema = KvSchema();
  auto parts = SplitContiguous(KvRows(n), partitions);
  for (auto& p : parts) {
    t->partitions.push_back(ColumnCache::FromRows(t->schema, p).ValueOrDie());
  }
  return t;
}

ExprPtr Bound(ExprPtr e, const Schema& schema) {
  return BindExpr(e, schema).ValueOrDie();
}

TEST(RowSourceOpTest, ProducesAllRows) {
  auto ctx = MakeCtx();
  RowSourceOp op(MakeRaw(100));
  auto parts = op.Execute(*ctx).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 100u);
  EXPECT_FALSE(parts[0].is_columnar());
}

TEST(CacheScanOpTest, ProducesColumnarChunks) {
  auto ctx = MakeCtx();
  CacheScanOp op(MakeCached(100));
  auto parts = op.Execute(*ctx).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 100u);
  EXPECT_TRUE(parts[0].is_columnar());
  RowVec all = CollectRows(parts);
  RowVec expected = KvRows(100);
  SortRows(&all);
  SortRows(&expected);
  EXPECT_EQ(all, expected);
}

TEST(FilterOpTest, ColumnarEqualityFastPathKeepsColumnar) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto filter = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(MakeCached(100)),
      Bound(Eq(Col("k"), Lit(Value(int64_t{3}))), *schema));
  auto parts = filter->Execute(*ctx).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 10u);
  // Fast path keeps data columnar with a selection vector.
  bool any_columnar = false;
  for (const auto& p : parts) any_columnar |= p.is_columnar();
  EXPECT_TRUE(any_columnar);
  for (const Row& row : CollectRows(parts)) {
    EXPECT_EQ(row[0], Value(int64_t{3}));
  }
}

TEST(FilterOpTest, ColumnarRangePredicates) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  struct Case {
    ExprPtr pred;
    size_t expected;
  };
  std::vector<Case> cases;
  cases.push_back({Lt(Col("k"), Lit(Value(int64_t{3}))), 30u});
  cases.push_back({Le(Col("k"), Lit(Value(int64_t{3}))), 40u});
  cases.push_back({Gt(Col("k"), Lit(Value(int64_t{7}))), 20u});
  cases.push_back({Ge(Col("k"), Lit(Value(int64_t{7}))), 30u});
  cases.push_back({Ne(Col("k"), Lit(Value(int64_t{0}))), 90u});
  // Mirrored literal-first orientation.
  cases.push_back({Gt(Lit(Value(int64_t{3})), Col("k")), 30u});
  for (auto& c : cases) {
    auto filter = std::make_shared<FilterOp>(
        std::make_shared<CacheScanOp>(MakeCached(100)), Bound(c.pred, *schema));
    auto parts = filter->Execute(*ctx).ValueOrDie();
    EXPECT_EQ(TotalRows(parts), c.expected) << c.pred->ToString();
  }
}

TEST(FilterOpTest, StringEqualityOnColumnar) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto filter = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(MakeCached(50)),
      Bound(Eq(Col("v"), Lit(Value("v7"))), *schema));
  auto parts = filter->Execute(*ctx).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 1u);
}

TEST(FilterOpTest, RowFallbackForComplexPredicates) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto filter = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(MakeCached(100)),
      Bound(And(Ge(Col("k"), Lit(Value(int64_t{2}))),
                Lt(Col("x"), Lit(Value(50.0)))),
            *schema));
  auto parts = filter->Execute(*ctx).ValueOrDie();
  size_t expected = 0;
  for (const Row& row : KvRows(100)) {
    if (row[0].AsInt64() >= 2 && row[2].AsDouble() < 50.0) ++expected;
  }
  EXPECT_EQ(TotalRows(parts), expected);
}

TEST(FilterOpTest, TypeMismatchedLiteralFallsBackGracefully) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  // Integer column compared with fractional literal: no fast path, and no
  // row matches exactly.
  auto filter = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(MakeCached(40)),
      Bound(Eq(Col("k"), Lit(Value(2.5))), *schema));
  auto parts = filter->Execute(*ctx).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 0u);
}

TEST(FilterOpTest, NullsNeverPass) {
  auto ctx = MakeCtx(2);
  auto schema = KvSchema();
  RowVec rows = {{Value::Null(), Value("a"), Value(1.0)},
                 {Value(int64_t{1}), Value("b"), Value(2.0)}};
  auto t = std::make_shared<CachedTable>();
  t->name = "nulls";
  t->schema = schema;
  t->partitions.push_back(ColumnCache::FromRows(schema, rows).ValueOrDie());
  auto filter = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(t),
      Bound(Eq(Col("k"), Lit(Value(int64_t{1}))), *schema));
  EXPECT_EQ(TotalRows(filter->Execute(*ctx).ValueOrDie()), 1u);
  auto filter_ne = std::make_shared<FilterOp>(
      std::make_shared<CacheScanOp>(t),
      Bound(Ne(Col("k"), Lit(Value(int64_t{1}))), *schema));
  EXPECT_EQ(TotalRows(filter_ne->Execute(*ctx).ValueOrDie()), 0u);
}

TEST(ProjectOpTest, ColumnarProjectionStaysColumnar) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto out_schema = Schema::Make({{"v", TypeId::kString, true},
                                  {"k", TypeId::kInt64, true}});
  auto project = std::make_shared<ProjectOp>(
      std::make_shared<CacheScanOp>(MakeCached(30)),
      std::vector<ExprPtr>{Bound(Col("v"), *schema), Bound(Col("k"), *schema)},
      out_schema);
  auto parts = project->Execute(*ctx).ValueOrDie();
  EXPECT_TRUE(parts[0].is_columnar());
  RowVec rows = CollectRows(parts);
  ASSERT_EQ(rows.size(), 30u);
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 2u);
    EXPECT_TRUE(row[0].is_string());
    EXPECT_TRUE(row[1].is_int64());
  }
}

TEST(ProjectOpTest, ComputedProjectionMaterializes) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto out_schema = Schema::Make({{"k2", TypeId::kInt64, true}});
  auto project = std::make_shared<ProjectOp>(
      std::make_shared<CacheScanOp>(MakeCached(10)),
      std::vector<ExprPtr>{Bound(Mul(Col("k"), Lit(Value(int64_t{2}))), *schema)},
      out_schema);
  auto parts = project->Execute(*ctx).ValueOrDie();
  EXPECT_FALSE(parts[0].is_columnar());
  for (const Row& row : CollectRows(parts)) {
    EXPECT_EQ(row[0].AsInt64() % 2, 0);
  }
}

TEST(HashAggregateOpTest, GlobalAggregates) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  std::vector<AggSpec> aggs = {
      {AggFn::kCountStar, nullptr, "cnt"},
      {AggFn::kSum, Bound(Col("x"), *schema), "sum_x"},
      {AggFn::kMin, Bound(Col("k"), *schema), "min_k"},
      {AggFn::kMax, Bound(Col("k"), *schema), "max_k"},
      {AggFn::kAvg, Bound(Col("x"), *schema), "avg_x"},
  };
  auto out_schema = Schema::Make({{"cnt", TypeId::kInt64, true},
                                  {"sum_x", TypeId::kFloat64, true},
                                  {"min_k", TypeId::kInt64, true},
                                  {"max_k", TypeId::kInt64, true},
                                  {"avg_x", TypeId::kFloat64, true}});
  auto agg = std::make_shared<HashAggregateOp>(
      std::make_shared<CacheScanOp>(MakeCached(100)), std::vector<ExprPtr>{},
      aggs, out_schema);
  RowVec rows = CollectRows(agg->Execute(*ctx).ValueOrDie());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{100}));
  EXPECT_EQ(rows[0][1], Value(4950.0));  // sum 0..99
  EXPECT_EQ(rows[0][2], Value(int64_t{0}));
  EXPECT_EQ(rows[0][3], Value(int64_t{9}));
  EXPECT_EQ(rows[0][4], Value(49.5));
}

TEST(HashAggregateOpTest, EmptyInputGlobalAggregate) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  std::vector<AggSpec> aggs = {{AggFn::kCountStar, nullptr, "cnt"},
                               {AggFn::kSum, Bound(Col("k"), *schema), "s"}};
  auto out_schema = Schema::Make({{"cnt", TypeId::kInt64, true},
                                  {"s", TypeId::kInt64, true}});
  auto agg = std::make_shared<HashAggregateOp>(
      std::make_shared<CacheScanOp>(MakeCached(0)), std::vector<ExprPtr>{}, aggs,
      out_schema);
  RowVec rows = CollectRows(agg->Execute(*ctx).ValueOrDie());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{0}));
  EXPECT_TRUE(rows[0][1].is_null());  // SQL: SUM of empty is NULL
}

TEST(HashAggregateOpTest, GroupedAggregates) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  std::vector<AggSpec> aggs = {{AggFn::kCountStar, nullptr, "cnt"},
                               {AggFn::kSum, Bound(Col("x"), *schema), "s"}};
  auto out_schema = Schema::Make({{"k", TypeId::kInt64, true},
                                  {"cnt", TypeId::kInt64, true},
                                  {"s", TypeId::kFloat64, true}});
  auto agg = std::make_shared<HashAggregateOp>(
      std::make_shared<CacheScanOp>(MakeCached(100)),
      std::vector<ExprPtr>{Bound(Col("k"), *schema)}, aggs, out_schema);
  RowVec rows = CollectRows(agg->Execute(*ctx).ValueOrDie());
  ASSERT_EQ(rows.size(), 10u);
  SortRows(&rows);
  for (int64_t g = 0; g < 10; ++g) {
    EXPECT_EQ(rows[static_cast<size_t>(g)][0], Value(g));
    EXPECT_EQ(rows[static_cast<size_t>(g)][1], Value(int64_t{10}));
    // Values for group g: g, g+10, ..., g+90 -> sum = 10g + 450.
    EXPECT_EQ(rows[static_cast<size_t>(g)][2],
              Value(static_cast<double>(10 * g + 450)));
  }
}

TEST(HashAggregateOpTest, CountSkipsNullsSumIgnoresNulls) {
  auto ctx = MakeCtx(2);
  auto schema = Schema::Make({{"g", TypeId::kInt64, true},
                              {"v", TypeId::kInt64, true}});
  RowVec rows = {{Value(int64_t{1}), Value(int64_t{5})},
                 {Value(int64_t{1}), Value::Null()},
                 {Value(int64_t{1}), Value(int64_t{7})}};
  auto t = std::make_shared<RawTable>();
  t->name = "n";
  t->schema = schema;
  t->partitions = SplitContiguous(rows, 2);
  std::vector<AggSpec> aggs = {{AggFn::kCount, Bound(Col("v"), *schema), "c"},
                               {AggFn::kSum, Bound(Col("v"), *schema), "s"},
                               {AggFn::kAvg, Bound(Col("v"), *schema), "a"}};
  auto out_schema = Schema::Make({{"g", TypeId::kInt64, true},
                                  {"c", TypeId::kInt64, true},
                                  {"s", TypeId::kInt64, true},
                                  {"a", TypeId::kFloat64, true}});
  auto agg = std::make_shared<HashAggregateOp>(
      std::make_shared<RowSourceOp>(t),
      std::vector<ExprPtr>{Bound(Col("g"), *schema)}, aggs, out_schema);
  RowVec out = CollectRows(agg->Execute(*ctx).ValueOrDie());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0][1], Value(int64_t{2}));
  EXPECT_EQ(out[0][2], Value(int64_t{12}));
  EXPECT_EQ(out[0][3], Value(6.0));
}

TEST(SortOpTest, SortsGloballyWithDirection) {
  auto ctx = MakeCtx();
  auto schema = KvSchema();
  auto sort = std::make_shared<SortOp>(
      std::make_shared<CacheScanOp>(MakeCached(50)),
      std::vector<SortKey>{SortKey{Bound(Col("k"), *schema), true},
                           SortKey{Bound(Col("x"), *schema), false}});
  RowVec rows = CollectRows(sort->Execute(*ctx).ValueOrDie());
  ASSERT_EQ(rows.size(), 50u);
  for (size_t i = 1; i < rows.size(); ++i) {
    int64_t ka = rows[i - 1][0].AsInt64();
    int64_t kb = rows[i][0].AsInt64();
    EXPECT_LE(ka, kb);
    if (ka == kb) {
      EXPECT_GE(rows[i - 1][2].AsDouble(), rows[i][2].AsDouble());
    }
  }
}

TEST(LimitOpTest, TakesFirstN) {
  auto ctx = MakeCtx();
  auto limit = std::make_shared<LimitOp>(
      std::make_shared<CacheScanOp>(MakeCached(100)), 7);
  EXPECT_EQ(TotalRows(limit->Execute(*ctx).ValueOrDie()), 7u);
  auto limit_over = std::make_shared<LimitOp>(
      std::make_shared<CacheScanOp>(MakeCached(5)), 100);
  EXPECT_EQ(TotalRows(limit_over->Execute(*ctx).ValueOrDie()), 5u);
}

// Build side has keys 0..9 once each; probe has 100 rows with k in 0..9.
TEST(ShuffledHashJoinOpTest, InnerEquiJoin) {
  auto ctx = MakeCtx();
  auto build_schema = Schema::Make({{"bk", TypeId::kInt64, true},
                                    {"bv", TypeId::kString, true}});
  RowVec build_rows;
  for (int64_t i = 0; i < 10; ++i) {
    build_rows.push_back({Value(i), Value("b" + std::to_string(i))});
  }
  auto build = std::make_shared<RawTable>();
  build->name = "build";
  build->schema = build_schema;
  build->partitions = SplitContiguous(build_rows, 4);

  auto out_schema = Schema::Concat(*build_schema, *KvSchema());
  auto join = std::make_shared<ShuffledHashJoinOp>(
      std::make_shared<RowSourceOp>(build),
      std::make_shared<CacheScanOp>(MakeCached(100)),
      Bound(Col("bk"), *build_schema), Bound(Col("k"), *KvSchema()), out_schema);
  RowVec rows = CollectRows(join->Execute(*ctx).ValueOrDie());
  EXPECT_EQ(rows.size(), 100u);
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 5u);
    EXPECT_EQ(row[0], row[2]);  // bk == k
    EXPECT_EQ(row[1].string_value(), "b" + std::to_string(row[0].AsInt64()));
  }
}

TEST(BroadcastHashJoinOpTest, MatchesShuffledJoinResults) {
  auto ctx = MakeCtx();
  auto build_schema = Schema::Make({{"bk", TypeId::kInt64, true}});
  RowVec build_rows;
  for (int64_t i = 0; i < 5; ++i) build_rows.push_back({Value(i)});
  auto build = std::make_shared<RawTable>();
  build->name = "b";
  build->schema = build_schema;
  build->partitions = SplitContiguous(build_rows, 2);

  auto out_schema = Schema::Concat(*build_schema, *KvSchema());
  auto bjoin = std::make_shared<BroadcastHashJoinOp>(
      std::make_shared<RowSourceOp>(build),
      std::make_shared<CacheScanOp>(MakeCached(60)),
      Bound(Col("bk"), *build_schema), Bound(Col("k"), *KvSchema()),
      /*broadcast_left=*/true, out_schema);
  auto sjoin = std::make_shared<ShuffledHashJoinOp>(
      std::make_shared<RowSourceOp>(build),
      std::make_shared<CacheScanOp>(MakeCached(60)),
      Bound(Col("bk"), *build_schema), Bound(Col("k"), *KvSchema()), out_schema);
  RowVec b = CollectRows(bjoin->Execute(*ctx).ValueOrDie());
  RowVec s = CollectRows(sjoin->Execute(*ctx).ValueOrDie());
  SortRows(&b);
  SortRows(&s);
  EXPECT_EQ(b, s);
  EXPECT_EQ(b.size(), 30u);  // keys 0..4, 6 probe rows each
}

TEST(BroadcastHashJoinOpTest, BroadcastRightPreservesColumnOrder) {
  auto ctx = MakeCtx();
  auto right_schema = Schema::Make({{"rk", TypeId::kInt64, true}});
  RowVec right_rows = {{Value(int64_t{1})}};
  auto right = std::make_shared<RawTable>();
  right->name = "r";
  right->schema = right_schema;
  right->partitions = SplitContiguous(right_rows, 1);

  auto out_schema = Schema::Concat(*KvSchema(), *right_schema);
  auto join = std::make_shared<BroadcastHashJoinOp>(
      std::make_shared<CacheScanOp>(MakeCached(20)),
      std::make_shared<RowSourceOp>(right), Bound(Col("k"), *KvSchema()),
      Bound(Col("rk"), *right_schema), /*broadcast_left=*/false, out_schema);
  RowVec rows = CollectRows(join->Execute(*ctx).ValueOrDie());
  EXPECT_EQ(rows.size(), 2u);  // k==1 occurs twice in 20 rows
  for (const Row& row : rows) {
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[0], Value(int64_t{1}));  // left columns first
    EXPECT_EQ(row[3], Value(int64_t{1}));  // right key last
  }
}

TEST(SortMergeJoinOpTest, MatchesHashJoinResults) {
  auto ctx = MakeCtx();
  auto build_schema = Schema::Make({{"bk", TypeId::kInt64, true},
                                    {"bv", TypeId::kString, true}});
  RowVec build_rows;
  for (int64_t i = 0; i < 30; ++i) {
    build_rows.push_back({Value(i % 12), Value("b" + std::to_string(i))});
  }
  auto build = std::make_shared<RawTable>();
  build->name = "b";
  build->schema = build_schema;
  build->partitions = SplitContiguous(build_rows, 3);

  auto out_schema = Schema::Concat(*build_schema, *KvSchema());
  auto smj = std::make_shared<SortMergeJoinOp>(
      std::make_shared<RowSourceOp>(build),
      std::make_shared<CacheScanOp>(MakeCached(90)),
      Bound(Col("bk"), *build_schema), Bound(Col("k"), *KvSchema()), out_schema);
  auto shj = std::make_shared<ShuffledHashJoinOp>(
      std::make_shared<RowSourceOp>(build),
      std::make_shared<CacheScanOp>(MakeCached(90)),
      Bound(Col("bk"), *build_schema), Bound(Col("k"), *KvSchema()), out_schema);
  RowVec a = CollectRows(smj->Execute(*ctx).ValueOrDie());
  RowVec b = CollectRows(shj->Execute(*ctx).ValueOrDie());
  SortRows(&a);
  SortRows(&b);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(SortMergeJoinOpTest, DuplicateKeyRunsCrossProduct) {
  auto ctx = MakeCtx(2);
  auto schema = Schema::Make({{"k", TypeId::kInt64, true}});
  RowVec rows = {{Value(int64_t{1})}, {Value(int64_t{1})}, {Value(int64_t{2})}};
  auto mk = [&](const char* name) {
    auto t = std::make_shared<RawTable>();
    t->name = name;
    t->schema = schema;
    t->partitions = SplitContiguous(rows, 2);
    return t;
  };
  auto out_schema = Schema::Concat(*schema, *schema);
  auto smj = std::make_shared<SortMergeJoinOp>(
      std::make_shared<RowSourceOp>(mk("l")),
      std::make_shared<RowSourceOp>(mk("r")), Bound(Col("k"), *schema),
      Bound(Col("k"), *schema), out_schema);
  RowVec out = CollectRows(smj->Execute(*ctx).ValueOrDie());
  EXPECT_EQ(out.size(), 5u);  // 2x2 for key 1, 1x1 for key 2
}

TEST(JoinTest, NullKeysNeverMatch) {
  auto ctx = MakeCtx(2);
  auto schema = Schema::Make({{"k", TypeId::kInt64, true}});
  RowVec left_rows = {{Value::Null()}, {Value(int64_t{1})}};
  RowVec right_rows = {{Value::Null()}, {Value(int64_t{1})}};
  auto mk = [&](RowVec rows, const char* name) {
    auto t = std::make_shared<RawTable>();
    t->name = name;
    t->schema = schema;
    t->partitions = SplitContiguous(rows, 2);
    return t;
  };
  auto out_schema = Schema::Concat(*schema, *schema);
  auto join = std::make_shared<ShuffledHashJoinOp>(
      std::make_shared<RowSourceOp>(mk(left_rows, "l")),
      std::make_shared<RowSourceOp>(mk(right_rows, "r")),
      Bound(Col("k"), *schema), Bound(Col("k"), *schema), out_schema);
  RowVec rows = CollectRows(join->Execute(*ctx).ValueOrDie());
  EXPECT_EQ(rows.size(), 1u);  // only 1-1 matches; null-null does not
}

}  // namespace
}  // namespace idf
