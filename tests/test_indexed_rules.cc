// Plan-level tests for the indexed Catalyst rules and the physical
// strategy: exactly when do rewrites fire, and what do they produce.
#include "indexed/indexed_rules.h"

#include <gtest/gtest.h>

#include "indexed/indexed_relation.h"
#include "sql/analyzer.h"

namespace idf {
namespace {

class IndexedRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 2;
    cfg.num_threads = 1;
    ctx_ = ExecutorContext::Make(cfg).ValueOrDie();
    schema_ = Schema::Make({{"k", TypeId::kInt64, true},
                            {"v", TypeId::kString, true}});
    RowVec rows;
    for (int64_t i = 0; i < 20; ++i) {
      rows.push_back({Value(i % 4), Value("x" + std::to_string(i))});
    }
    rel_ = IndexedRelation::Build(*ctx_, "rel", schema_, 0, rows).ValueOrDie();
  }

  LogicalPlanPtr IndexedScan() { return std::make_shared<IndexedScanNode>(rel_); }

  LogicalPlanPtr RegularScan() {
    auto t = std::make_shared<RawTable>();
    t->name = "reg";
    t->schema = Schema::Make({{"a", TypeId::kInt64, true}});
    t->partitions.push_back({});
    return std::make_shared<ScanNode>(std::move(t));
  }

  ExecutorContextPtr ctx_;
  SchemaPtr schema_;
  IndexedRelationPtr rel_;
};

TEST_F(IndexedRulesTest, FilterRuleRewritesEqualityOnIndexedColumn) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Col("k"), Lit(Value(int64_t{2})))))
                  .ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kIndexedLookup);
  EXPECT_EQ(static_cast<const IndexedLookupNode*>(rewritten.get())->key(),
            Value(int64_t{2}));
}

TEST_F(IndexedRulesTest, FilterRuleHandlesMirroredLiteral) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Lit(Value(int64_t{2})), Col("k"))))
                  .ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  EXPECT_EQ(rewritten->kind(), PlanKind::kIndexedLookup);
}

TEST_F(IndexedRulesTest, FilterRuleExtractsConjunctAndKeepsResidual) {
  auto pred = And(Gt(Col("v"), Lit(Value("a"))),
                  Eq(Col("k"), Lit(Value(int64_t{1}))));
  auto plan =
      Analyze(std::make_shared<FilterNode>(IndexedScan(), pred)).ValueOrDie();
  auto rewritten = IndexedFilterRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kFilter);
  EXPECT_EQ(rewritten->children()[0]->kind(), PlanKind::kIndexedLookup);
  // Residual predicate only mentions v.
  const auto* f = static_cast<const FilterNode*>(rewritten.get());
  EXPECT_EQ(f->predicate()->kind(), ExprKind::kComparison);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresNonIndexedColumn) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Eq(Col("v"), Lit(Value("x1")))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresRangePredicates) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          IndexedScan(), Lt(Col("k"), Lit(Value(int64_t{2})))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, FilterRuleIgnoresRegularScans) {
  auto plan = Analyze(std::make_shared<FilterNode>(
                          RegularScan(), Eq(Col("a"), Lit(Value(int64_t{1})))))
                  .ValueOrDie();
  EXPECT_EQ(IndexedFilterRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, JoinRuleRewritesIndexedLeftSide) {
  auto plan = Analyze(std::make_shared<JoinNode>(IndexedScan(), RegularScan(),
                                                 Col("k"), Col("a")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  ASSERT_EQ(rewritten->kind(), PlanKind::kIndexedJoin);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_TRUE(join->indexed_on_left());
  EXPECT_EQ(join->probe()->kind(), PlanKind::kScan);
  // Output schema identical to the regular join's.
  EXPECT_TRUE(join->output_schema()->Equals(*plan->output_schema()));
}

TEST_F(IndexedRulesTest, JoinRuleRewritesIndexedRightSide) {
  auto plan = Analyze(std::make_shared<JoinNode>(RegularScan(), IndexedScan(),
                                                 Col("a"), Col("k")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_FALSE(join->indexed_on_left());
}

TEST_F(IndexedRulesTest, JoinRuleIgnoresNonIndexedKey) {
  // A relation with two int columns, indexed on the first; joining on the
  // second must not trigger the rewrite.
  auto schema2 = Schema::Make({{"k", TypeId::kInt64, true},
                               {"w", TypeId::kInt64, true}});
  auto rel2 =
      IndexedRelation::Build(*ctx_, "rel2", schema2, 0,
                             {{Value(int64_t{1}), Value(int64_t{10})}})
          .ValueOrDie();
  auto plan = Analyze(std::make_shared<JoinNode>(
                          std::make_shared<IndexedScanNode>(rel2), RegularScan(),
                          Col("w"), Col("a")))
                  .ValueOrDie();
  EXPECT_EQ(IndexedJoinRule().Apply(plan).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, JoinRuleIgnoresRegularJoin) {
  auto plan = Analyze(std::make_shared<JoinNode>(RegularScan(), RegularScan(),
                                                 Col("a"), Col("a")))
                  .ValueOrDie();
  EXPECT_EQ(IndexedJoinRule().Apply(plan).ValueOrDie(), nullptr);
}

// Both sides indexed on their keys, one filtered (SQ6's shape): the build
// side is the one whose opposite input — the probe — is estimated smaller,
// whichever side of the join it sits on.
TEST_F(IndexedRulesTest, JoinRuleBuildsOnTheSideWithTheSmallerProbe) {
  auto schema2 = Schema::Make({{"id", TypeId::kInt64, true},
                               {"ref", TypeId::kInt64, true}});
  RowVec rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back({Value(i), Value(i % 4)});
  // 100 rows indexed on `ref`: filtered on `id`, the side is estimated at
  // 30 rows, against 50 for the bare side.
  auto filtered_rel =
      IndexedRelation::Build(*ctx_, "filtered", schema2, 1, rows).ValueOrDie();
  RowVec bare_rows;
  for (int64_t i = 0; i < 50; ++i) {
    bare_rows.push_back({Value(i % 4), Value("b" + std::to_string(i))});
  }
  auto bare_rel =
      IndexedRelation::Build(*ctx_, "bare", schema_, 0, bare_rows).ValueOrDie();
  auto filtered_side = std::make_shared<FilterNode>(
      std::make_shared<IndexedScanNode>(filtered_rel),
      Eq(Col("id"), Lit(Value(int64_t{7}))));
  auto bare_side = std::make_shared<IndexedScanNode>(bare_rel);
  ASSERT_LT(EstimateRows(Analyze(filtered_side).ValueOrDie()),
            EstimateRows(bare_side));

  for (bool filtered_on_left : {true, false}) {
    SCOPED_TRACE(filtered_on_left ? "filtered side left" : "filtered side right");
    LogicalPlanPtr left = filtered_on_left ? LogicalPlanPtr(filtered_side)
                                           : LogicalPlanPtr(bare_side);
    LogicalPlanPtr right = filtered_on_left ? LogicalPlanPtr(bare_side)
                                            : LogicalPlanPtr(filtered_side);
    ExprPtr left_key = filtered_on_left ? Col("ref") : Col("k");
    ExprPtr right_key = filtered_on_left ? Col("k") : Col("ref");
    auto plan = Analyze(std::make_shared<JoinNode>(left, right, left_key,
                                                   right_key))
                    .ValueOrDie();
    auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
    ASSERT_NE(rewritten, nullptr);
    const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
    // The bare relation is the build side; the filtered one is probed.
    EXPECT_EQ(join->build().rel, IndexedRelationBasePtr(bare_rel));
    EXPECT_EQ(join->indexed_on_left(), !filtered_on_left);
    EXPECT_EQ(join->probe()->kind(), PlanKind::kFilter);
    EXPECT_EQ(join->build_predicate(), nullptr);
    EXPECT_TRUE(join->output_schema()->Equals(*plan->output_schema()));
  }
}

TEST_F(IndexedRulesTest, JoinRuleKeepsLeftBuildSideOnTiedEstimates) {
  RowVec rows;
  for (int64_t i = 0; i < 20; ++i) rows.push_back({Value(i), Value("t")});
  auto twin = IndexedRelation::Build(*ctx_, "twin", schema_, 0, rows).ValueOrDie();
  ASSERT_EQ(twin->num_rows(), rel_->num_rows());
  auto plan = Analyze(std::make_shared<JoinNode>(
                          IndexedScan(), std::make_shared<IndexedScanNode>(twin),
                          Col("k"), Col("k")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(plan).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  const auto* join = static_cast<const IndexedJoinNode*>(rewritten.get());
  EXPECT_TRUE(join->indexed_on_left());
  EXPECT_EQ(join->build().rel, IndexedRelationBasePtr(rel_));
}

// A scan with several access paths (a multi-index table): the filter and
// join rules use whichever path is indexed on the column they need.
TEST_F(IndexedRulesTest, RulesPickTheAccessPathIndexedOnTheColumn) {
  RowVec rows;
  for (int64_t i = 0; i < 20; ++i) {
    rows.push_back({Value(i), Value("v" + std::to_string(i % 5))});
  }
  auto by_k = IndexedRelation::Build(*ctx_, "t_by_k", schema_, 0, rows).ValueOrDie();
  auto by_v = IndexedRelation::Build(*ctx_, "t_by_v", schema_, 1, rows).ValueOrDie();
  auto scan = std::make_shared<IndexedScanNode>(
      std::vector<RelationRead>{RelationRead(by_k), RelationRead(by_v)});

  auto filter = Analyze(std::make_shared<FilterNode>(
                            scan, Eq(Col("v"), Lit(Value("v3")))))
                    .ValueOrDie();
  auto lookup = IndexedFilterRule().Apply(filter).ValueOrDie();
  ASSERT_NE(lookup, nullptr);
  ASSERT_EQ(lookup->kind(), PlanKind::kIndexedLookup);
  EXPECT_EQ(static_cast<const IndexedLookupNode*>(lookup.get())->read().rel,
            IndexedRelationBasePtr(by_v));

  auto join = Analyze(std::make_shared<JoinNode>(RegularScan(), scan, Col("a"),
                                                 Col("k")))
                  .ValueOrDie();
  auto rewritten = IndexedJoinRule().Apply(join).ValueOrDie();
  ASSERT_NE(rewritten, nullptr);
  EXPECT_EQ(static_cast<const IndexedJoinNode*>(rewritten.get())->build().rel,
            IndexedRelationBasePtr(by_k));
}

TEST_F(IndexedRulesTest, StrategyLowersIndexedNodes) {
  IndexedExecutionStrategy strategy;
  EngineConfig cfg = ctx_->config();

  auto scan = Analyze(IndexedScan()).ValueOrDie();
  auto scan_op = strategy.Plan(scan, {}, cfg).ValueOrDie();
  ASSERT_NE(scan_op, nullptr);
  EXPECT_NE(scan_op->name().find("IndexedScan"), std::string::npos);

  auto lookup = LogicalPlanPtr(
      std::make_shared<IndexedLookupNode>(rel_, Value(int64_t{1})));
  auto lookup_op = strategy.Plan(lookup, {}, cfg).ValueOrDie();
  ASSERT_NE(lookup_op, nullptr);
  EXPECT_NE(lookup_op->name().find("IndexLookup"), std::string::npos);
}

TEST_F(IndexedRulesTest, StrategyIgnoresRegularNodes) {
  IndexedExecutionStrategy strategy;
  auto scan = Analyze(RegularScan()).ValueOrDie();
  EXPECT_EQ(strategy.Plan(scan, {}, ctx_->config()).ValueOrDie(), nullptr);
}

TEST_F(IndexedRulesTest, InstallIsIdempotent) {
  auto session = Session::Make().ValueOrDie();
  InstallIndexedExtensions(*session);
  InstallIndexedExtensions(*session);
  EXPECT_TRUE(session->HasExtension("indexed-dataframe"));
}

TEST_F(IndexedRulesTest, LookupExecutesAgainstRelation) {
  IndexedExecutionStrategy strategy;
  auto lookup = LogicalPlanPtr(
      std::make_shared<IndexedLookupNode>(rel_, Value(int64_t{1})));
  auto op = strategy.Plan(lookup, {}, ctx_->config()).ValueOrDie();
  auto parts = op->Execute(*ctx_).ValueOrDie();
  EXPECT_EQ(TotalRows(parts), 5u);  // keys 0..3 over 20 rows
}

}  // namespace
}  // namespace idf
