// Directed tests for batch-at-a-time vectorized predicate evaluation
// (sql/vectorized_eval.h, DESIGN.md §12) and its operator integration.
// The kernel must reproduce the row-at-a-time EvalEncoded tri-state
// bit-for-bit lane by lane (including NULL, NaN, -0.0, and type-widening
// edges), and the fused operators — scan-filter, scan-aggregate, and the
// indexed join with its build-side filter — must produce the rows the
// vanilla plan produces over an un-indexed copy of the data while
// reporting the vector metrics.
// Random-tree coverage lives in test_property_fuzz.cc.
#include "sql/vectorized_eval.h"

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "indexed/indexed_dataframe.h"
#include "indexed/indexed_operators.h"
#include "sql/session.h"
#include "storage/row_batch.h"

namespace idf {
namespace {

// ---------------------------------------------------------------------------
// Kernel: EvalBatch / FilterBatch vs EvalEncoded
// ---------------------------------------------------------------------------

class VectorizedEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::Make({{"i64", TypeId::kInt64, true},
                            {"i32", TypeId::kInt32, true},
                            {"f64", TypeId::kFloat64, true},
                            {"b", TypeId::kBool, true},
                            {"s", TypeId::kString, true},
                            {"ts", TypeId::kTimestamp, true}});
  }

  std::vector<uint8_t> Encode(const Row& row) {
    std::vector<uint8_t> out;
    EXPECT_TRUE(EncodeRow(*schema_, row, &out).ok());
    return out;
  }

  // Compiles `expr` (must succeed) and checks EvalBatch lane-for-lane and
  // FilterBatch's selection vector against row-at-a-time EvalEncoded.
  void ExpectBatchAgrees(const ExprPtr& expr, const RowVec& rows) {
    ExprPtr bound = BindExpr(expr, *schema_).ValueOrDie();
    std::optional<CompiledPredicate> compiled =
        CompiledPredicate::Compile(bound, *schema_);
    ASSERT_TRUE(compiled.has_value()) << bound->ToString();
    std::vector<std::vector<uint8_t>> bufs;
    bufs.reserve(rows.size());
    for (const Row& row : rows) bufs.push_back(Encode(row));
    std::vector<const uint8_t*> ptrs;
    ptrs.reserve(bufs.size());
    for (const auto& b : bufs) ptrs.push_back(b.data());

    VectorizedPredicate vec(*compiled);
    VectorScratch scratch;
    std::vector<uint8_t> tri(rows.size());
    vec.EvalBatch(ptrs.data(), ptrs.size(), tri.data(), &scratch);
    std::vector<uint32_t> sel(rows.size());
    const size_t kept =
        vec.FilterBatch(ptrs.data(), ptrs.size(), sel.data(), &scratch);
    size_t want_kept = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      const TriBool want = compiled->EvalEncoded(ptrs[r]);
      ASSERT_EQ(static_cast<int>(tri[r]), static_cast<int>(want))
          << bound->ToString() << " row " << r;
      if (want == TriBool::kTrue) {
        ASSERT_LT(want_kept, kept) << bound->ToString();
        EXPECT_EQ(sel[want_kept], r) << bound->ToString();
        ++want_kept;
      }
    }
    EXPECT_EQ(kept, want_kept) << bound->ToString();
  }

  // Edge-heavy rows: NULL in every column, both zero signs, NaN, int32/64
  // extremes, empty and high-bit strings.
  RowVec SampleRows() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {
        {Value(int64_t{0}), Value(int32_t{0}), Value(0.0), Value(false),
         Value(""), Value(int64_t{0})},
        {Value(int64_t{-3}), Value(int32_t{-3}), Value(-0.0), Value(true),
         Value("a"), Value(int64_t{-3})},
        {Value(int64_t{7}), Value(int32_t{7}), Value(2.5), Value(true),
         Value("ab"), Value(int64_t{7})},
        {Value(std::numeric_limits<int64_t>::min()),
         Value(std::numeric_limits<int32_t>::min()), Value(nan), Value(false),
         Value("\x80z"), Value(std::numeric_limits<int64_t>::max())},
        {Value::Null(), Value::Null(), Value::Null(), Value::Null(),
         Value::Null(), Value::Null()},
        {Value(int64_t{1} << 40), Value(int32_t{1}), Value(1.0), Value(true),
         Value("abc"), Value(int64_t{1})},
        {Value::Null(), Value(int32_t{2}), Value(-1.0), Value::Null(),
         Value("b"), Value::Null()},
    };
  }

  SchemaPtr schema_;
};

TEST_F(VectorizedEvalTest, AllComparisonOpsOnAllTypes) {
  const RowVec rows = SampleRows();
  const char* cols[] = {"i64", "i32", "f64", "b", "s", "ts"};
  const Value lits[] = {Value(int64_t{0}), Value(int32_t{-3}), Value(0.0),
                        Value(true),       Value("ab"),        Value(int64_t{7})};
  for (int c = 0; c < 6; ++c) {
    ExpectBatchAgrees(Eq(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Ne(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Lt(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Le(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Gt(Col(cols[c]), Lit(lits[c])), rows);
    ExpectBatchAgrees(Ge(Col(cols[c]), Lit(lits[c])), rows);
  }
}

TEST_F(VectorizedEvalTest, KleeneLaneLogicWithNulls) {
  const RowVec rows = SampleRows();
  ExpectBatchAgrees(IsNull(Col("f64")), rows);
  ExpectBatchAgrees(IsNotNull(Col("s")), rows);
  ExpectBatchAgrees(Col("b"), rows);
  ExpectBatchAgrees(Not(Col("b")), rows);
  ExpectBatchAgrees(Lit(Value::Null()), rows);
  // NULL AND FALSE = FALSE, NULL OR TRUE = TRUE: the lane kernels must
  // implement full Kleene logic, not null-propagation.
  ExpectBatchAgrees(And(Col("b"), Lt(Col("i64"), Lit(Value(int64_t{5})))), rows);
  ExpectBatchAgrees(Or(Col("b"), Ge(Col("f64"), Lit(Value(0.0)))), rows);
  ExpectBatchAgrees(
      Not(And(Or(Col("b"), IsNull(Col("i32"))),
              Ne(Col("s"), Lit(Value("a"))))),
      rows);
}

TEST_F(VectorizedEvalTest, IntColumnVsDoubleLiteralWidens) {
  const RowVec rows = SampleRows();
  ExpectBatchAgrees(Lt(Col("i64"), Lit(Value(0.5))), rows);
  ExpectBatchAgrees(Ge(Col("i32"), Lit(Value(-2.5))), rows);
  ExpectBatchAgrees(Eq(Col("i64"), Lit(Value(0.0))), rows);
}

TEST_F(VectorizedEvalTest, NaNAndNegativeZeroMatchScalar) {
  const RowVec rows = SampleRows();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ExpectBatchAgrees(Eq(Col("f64"), Lit(Value(nan))), rows);
  ExpectBatchAgrees(Lt(Col("f64"), Lit(Value(nan))), rows);
  ExpectBatchAgrees(Ge(Col("f64"), Lit(Value(nan))), rows);
  // -0.0 == 0.0 under IEEE compare; both signs must land identically.
  ExpectBatchAgrees(Eq(Col("f64"), Lit(Value(-0.0))), rows);
  ExpectBatchAgrees(Le(Col("f64"), Lit(Value(-0.0))), rows);
}

TEST_F(VectorizedEvalTest, CrossesInternalBatchBoundary) {
  RowVec rows;
  const size_t n = 2 * VectorizedPredicate::kBatchRows + 37;
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = static_cast<int64_t>(i % 100);
    rows.push_back({i % 13 == 0 ? Value::Null() : Value(v),
                    Value(static_cast<int32_t>(i % 7)), Value(0.5 * v),
                    Value(i % 2 == 0), Value("s" + std::to_string(i % 5)),
                    Value(static_cast<int64_t>(i))});
  }
  ExpectBatchAgrees(And(Lt(Col("i64"), Lit(Value(int64_t{60}))),
                        Ne(Col("s"), Lit(Value("s3")))),
                    rows);
}

TEST_F(VectorizedEvalTest, SelectionVectorAllAndNone) {
  RowVec rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value(i), Value(int32_t{1}), Value(1.0), Value(true),
                    Value("x"), Value(i)});
  }
  ExpectBatchAgrees(Ge(Col("i64"), Lit(Value(int64_t{0}))), rows);   // all
  ExpectBatchAgrees(Lt(Col("i64"), Lit(Value(int64_t{0}))), rows);   // none
  ExpectBatchAgrees(Eq(Col("i64"), Lit(Value(int64_t{50}))), rows);  // one
}

TEST_F(VectorizedEvalTest, StackDepthReflectsProgramShape) {
  ExprPtr flat = BindExpr(Lt(Col("i64"), Lit(Value(int64_t{1}))), *schema_)
                     .ValueOrDie();
  VectorizedPredicate vec1(*CompiledPredicate::Compile(flat, *schema_));
  EXPECT_EQ(vec1.stack_depth(), 1u);

  // A right-nested conjunction pushes both operands before combining.
  ExprPtr nested =
      BindExpr(And(Col("b"), And(Col("b"), And(Col("b"), Col("b")))), *schema_)
          .ValueOrDie();
  VectorizedPredicate vec2(*CompiledPredicate::Compile(nested, *schema_));
  EXPECT_GE(vec2.stack_depth(), 2u);
}

// ---------------------------------------------------------------------------
// Operator integration: each fused indexed operator must return exactly
// the rows of the same query over an un-indexed DataFrame, planned by a
// plain Session (interpreted Filter, hash aggregate, hash join), and must
// report the vector counters.
// ---------------------------------------------------------------------------

class VectorizedOperatorTest : public ::testing::Test {
 protected:
  static SessionPtr MakeSession() {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.morsel_rows = 512;
    return Session::Make(cfg).ValueOrDie();
  }

  void SetUp() override {
    session_ = MakeSession();
    oracle_ = MakeSession();
    schema_ = Schema::Make({{"k", TypeId::kInt64, false},
                            {"g", TypeId::kInt64, false},
                            {"v", TypeId::kInt64, true},
                            {"d", TypeId::kFloat64, true},
                            {"s", TypeId::kString, false}});
    rows_.reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      rows_.push_back({Value(i), Value(i % 64),
                       i % 11 == 0 ? Value::Null() : Value(i % 1000),
                       i % 13 == 0 ? Value::Null() : Value(0.5 * (i % 97)),
                       Value("r" + std::to_string(i % 7))});
    }
    auto df = session_->CreateDataFrame(schema_, rows_, "t").ValueOrDie();
    rel_ = IndexedDataFrame::CreateIndex(df, 0, "t_by_k").ValueOrDie()
               .relation();
    table_ = oracle_->CreateDataFrame(schema_, rows_, "t").ValueOrDie();
    pred_ = BindExpr(Predicate(), *schema_).ValueOrDie();
  }

  /// The scan predicate, unbound (the oracle DataFrame binds its own copy).
  static ExprPtr Predicate() {
    return And(Lt(Col("v"), Lit(Value(int64_t{700}))),
               Ne(Col("s"), Lit(Value("r3"))));
  }

  PushedFilter Pushed() {
    return PushedFilter::FromSplit(SplitForCompilation(pred_, *schema_));
  }

  ExprPtr Bound(const ExprPtr& e) { return BindExpr(e, *schema_).ValueOrDie(); }

  /// Rows of `df` through the vanilla plan, sorted.
  static RowVec Oracle(const Result<DataFrame>& df) {
    RowVec rows = df.ValueOrDie().Collect().ValueOrDie();
    SortRows(&rows);
    return rows;
  }

  static RowVec Sorted(RowVec rows) {
    SortRows(&rows);
    return rows;
  }

  static constexpr int64_t kRows = 20000;
  SessionPtr session_;  // runs the fused indexed operators
  SessionPtr oracle_;   // plain tables, vanilla plans
  SchemaPtr schema_;
  RowVec rows_;
  IndexedRelationPtr rel_;
  DataFrame table_;
  ExprPtr pred_;
};

TEST_F(VectorizedOperatorTest, FilterScanMatchesScalarAndCountsMetrics) {
  IndexedScanFilterOp scan(rel_, pred_, Pushed());
  session_->metrics().Reset();
  RowVec got = Sorted(CollectRows(scan.Execute(session_->exec()).ValueOrDie()));
  RowVec want = Oracle(table_.Filter(Predicate()));

  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
  const auto& m = session_->metrics();
  EXPECT_GT(m.rows_filtered_vectorized(), 0u);
  EXPECT_GT(m.vector_batches_evaluated(), 0u);
  EXPECT_EQ(m.rows_filtered_vectorized(), m.rows_filtered_encoded());
  EXPECT_EQ(m.rows_filtered_encoded(), kRows - want.size());
}

TEST_F(VectorizedOperatorTest, GroupedFusedAggregateMatchesScalar) {
  auto aggs = [](const std::function<ExprPtr(ExprPtr)>& bind) {
    return std::vector<AggSpec>{CountStar("cnt"), SumOf(bind(Col("v")), "sv"),
                                AvgOf(bind(Col("d")), "ad"),
                                MinOf(bind(Col("v")), "mn"),
                                MaxOf(bind(Col("s")), "mx")};
  };
  SchemaPtr out = Schema::Make({{"g", TypeId::kInt64, false},
                                {"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"ad", TypeId::kFloat64, true},
                                {"mn", TypeId::kInt64, true},
                                {"mx", TypeId::kString, true}});
  IndexedScanAggregateOp agg(rel_, pred_, Pushed(), {Bound(Col("g"))},
                             aggs([this](ExprPtr e) { return Bound(e); }), out);
  session_->metrics().Reset();
  RowVec got = Sorted(CollectRows(agg.Execute(session_->exec()).ValueOrDie()));
  EXPECT_GT(session_->metrics().rows_filtered_vectorized(), 0u);
  EXPECT_GT(session_->metrics().vector_batches_evaluated(), 0u);
  EXPECT_GT(session_->metrics().rows_aggregated_encoded(), 0u);

  RowVec want = Oracle(table_.Filter(Predicate()).ValueOrDie().Aggregate(
      {Col("g")}, aggs([](ExprPtr e) { return e; })));
  ASSERT_EQ(want.size(), 64u);
  // Exact, doubles included: every `d` is a multiple of 0.5, so the sums
  // do not depend on accumulation order.
  EXPECT_EQ(got, want);
}

TEST_F(VectorizedOperatorTest, UngroupedFusedAggregateUsesLaneFastPath) {
  auto aggs = [](const std::function<ExprPtr(ExprPtr)>& bind) {
    return std::vector<AggSpec>{CountStar("cnt"), SumOf(bind(Col("v")), "sv"),
                                SumOf(bind(Col("d")), "sd"),
                                AvgOf(bind(Col("d")), "ad"),
                                MinOf(bind(Col("v")), "mn"),
                                MaxOf(bind(Col("v")), "mx")};
  };
  SchemaPtr out = Schema::Make({{"cnt", TypeId::kInt64, false},
                                {"sv", TypeId::kInt64, true},
                                {"sd", TypeId::kFloat64, true},
                                {"ad", TypeId::kFloat64, true},
                                {"mn", TypeId::kInt64, true},
                                {"mx", TypeId::kInt64, true}});
  IndexedScanAggregateOp agg(rel_, pred_, Pushed(), {},
                             aggs([this](ExprPtr e) { return Bound(e); }), out);
  session_->metrics().Reset();
  RowVec got = CollectRows(agg.Execute(session_->exec()).ValueOrDie());
  // Every surviving row accumulates straight off the payload lanes.
  const auto& m = session_->metrics();
  EXPECT_GT(m.rows_filtered_vectorized(), 0u);
  EXPECT_EQ(m.rows_aggregated_encoded(), kRows - m.rows_filtered_encoded());

  RowVec want = Oracle(table_.Filter(Predicate()).ValueOrDie().Aggregate(
      {}, aggs([](ExprPtr e) { return e; })));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got, want);

  // With no filter at all every lane survives and still accumulates
  // straight off the payloads.
  IndexedScanAggregateOp unfiltered(
      rel_, nullptr, PushedFilter{}, {},
      aggs([this](ExprPtr e) { return Bound(e); }), out);
  session_->metrics().Reset();
  RowVec all = CollectRows(unfiltered.Execute(session_->exec()).ValueOrDie());
  EXPECT_EQ(session_->metrics().rows_aggregated_encoded(),
            static_cast<uint64_t>(kRows));
  EXPECT_EQ(session_->metrics().vector_batches_evaluated(), 0u);
  EXPECT_EQ(all, Oracle(table_.Aggregate({}, aggs([](ExprPtr e) { return e; }))));
}

TEST_F(VectorizedOperatorTest, JoinBuildFilterMatchesScalarOnAllProbePaths) {
  // The build side re-keys the fixture so every key heads a 4-row chain:
  // one probe yields several candidates, and a segment's candidates cross
  // the early-flush boundary.
  constexpr int64_t kKeys = kRows / 4;
  RowVec build_rows = rows_;
  for (Row& r : build_rows) r[0] = Value(r[0].int64_value() % kKeys);
  IndexedRelationPtr build_rel =
      IndexedDataFrame::CreateIndex(
          session_->CreateDataFrame(schema_, build_rows, "b").ValueOrDie(), 0,
          "b_by_k")
          .ValueOrDie()
          .relation();
  DataFrame build_table =
      oracle_->CreateDataFrame(schema_, build_rows, "b").ValueOrDie();
  SchemaPtr probe_schema = Schema::Make(
      {{"fk", TypeId::kInt64, true}, {"seq", TypeId::kInt64, false}});

  struct KeyCase {
    const char* name;
    std::function<ExprPtr()> make;
  };
  const KeyCase key_cases[] = {
      {"column key", [] { return Col("fk"); }},
      {"expression key", [] { return Add(Col("fk"), Lit(Value(int64_t{1}))); }}};
  struct FilterCase {
    const char* name;
    std::function<ExprPtr()> make;  // null: no build filter
  };
  const FilterCase filter_cases[] = {
      {"no filter", nullptr},
      {"compiled", [] { return Lt(Col("g"), Lit(Value(int64_t{32}))); }},
      {"compiled+residual", [] {
         return And(Lt(Col("g"), Lit(Value(int64_t{32}))), Like(Col("s"), "r1%"));
       }}};

  // Probe sizes straddle 4096 rows; keys cycle past the build domain (the
  // last 200 miss) and every 17th is null.
  for (size_t probe_size : {100u, 2000u, 5000u}) {
    RowVec probe_rows;
    for (size_t i = 0; i < probe_size; ++i) {
      const int64_t seq = static_cast<int64_t>(i);
      probe_rows.push_back({i % 17 == 5 ? Value::Null()
                                        : Value((seq * 3) % (kKeys + 200)),
                            Value(seq)});
    }
    auto probe_op =
        session_
            ->PlanQuery(session_->CreateDataFrame(probe_schema, probe_rows, "p")
                            .ValueOrDie()
                            .plan())
            .ValueOrDie();
    DataFrame probe_table =
        oracle_->CreateDataFrame(probe_schema, probe_rows, "p").ValueOrDie();

    for (const KeyCase& kc : key_cases) {
      ExprPtr probe_key = BindExpr(kc.make(), *probe_schema).ValueOrDie();
      // Every non-null key probes once; keys inside the domain hit.
      uint64_t probes = 0;
      uint64_t hits = 0;
      for (const Row& r : probe_rows) {
        Value k = probe_key->Eval(r).ValueOrDie();
        if (k.is_null()) continue;
        ++probes;
        if (k.int64_value() < kKeys) ++hits;
      }
      for (const FilterCase& fc : filter_cases) {
        PushedFilter pushed;
        DataFrame build_side = build_table;
        if (fc.make) {
          PredicateSplit split =
              SplitForCompilation(Bound(fc.make()), *schema_);
          ASSERT_TRUE(split.compiled.has_value()) << fc.name;
          pushed = PushedFilter::FromSplit(std::move(split));
          build_side = build_table.Filter(fc.make()).ValueOrDie();
        }
        for (bool indexed_on_left : {true, false}) {
          RowVec want =
              indexed_on_left
                  ? Oracle(build_side.Join(probe_table, Col("k"), kc.make()))
                  : Oracle(probe_table.Join(build_side, kc.make(), Col("k")));
          SchemaPtr out_schema =
              indexed_on_left ? Schema::Concat(*schema_, *probe_schema)
                              : Schema::Concat(*probe_schema, *schema_);
          for (bool broadcast : {true, false}) {
            SCOPED_TRACE(std::string(broadcast ? "broadcast" : "shuffled") +
                         ", " + fc.name + ", " + kc.name +
                         (indexed_on_left ? ", indexed left" : ", indexed right") +
                         ", " + std::to_string(probe_size) + " probe rows");
            IndexedJoinOp join(build_rel, probe_op, probe_key, indexed_on_left,
                               broadcast, out_schema, pushed);
            session_->metrics().Reset();
            RowVec got =
                Sorted(CollectRows(join.Execute(session_->exec()).ValueOrDie()));
            ASSERT_FALSE(want.empty());
            EXPECT_EQ(got, want);

            const auto& m = session_->metrics();
            EXPECT_EQ(m.index_probes(), probes);
            EXPECT_EQ(m.index_hits(), hits);
            if (fc.make) {
              EXPECT_GT(m.rows_filtered_vectorized(), 0u);
              EXPECT_GT(m.vector_batches_evaluated(), 0u);
            } else {
              EXPECT_EQ(got.size(), 4 * hits);  // every hit joins its chain
              EXPECT_EQ(m.rows_filtered_vectorized(), 0u);
            }
            if (broadcast) {
              EXPECT_EQ(m.shuffle_encoded_bytes(), 0u);
            } else {
              EXPECT_GT(m.shuffle_encoded_bytes(), 0u);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace idf
