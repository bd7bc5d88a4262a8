// Tests for the Kafka-stand-in bounded queue and the concurrent
// update+query streaming driver (the paper's §4 demo scenario).
#include "stream/streaming_driver.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "stream/bounded_queue.h"

namespace idf {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> q(4);
  q.Push(1);
  q.Close();
  EXPECT_FALSE(q.Push(2));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueueTest, BlocksProducerAtCapacity) {
  BoundedQueue<int> q(2);
  q.Push(1);
  q.Push(2);
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    q.Push(3);  // blocks until a Pop frees a slot
    third_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(BoundedQueueTest, ManyProducersManyConsumers) {
  BoundedQueue<int> q(8);
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 3;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(i);
    });
  }
  std::atomic<int> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (q.Pop().has_value()) consumed.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(consumed.load(), kPerProducer * kProducers);
}

TEST(LatencyRecorderTest, PercentilesAndMean) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.Add(static_cast<double>(i));
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_DOUBLE_EQ(rec.Mean(), 50.5);
  EXPECT_NEAR(rec.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(rec.Percentile(99), 99, 1.1);
  EXPECT_DOUBLE_EQ(rec.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.Percentile(100), 100.0);
}

TEST(LatencyRecorderTest, EmptyIsZero) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.Mean(), 0.0);
  EXPECT_EQ(rec.Percentile(99), 0.0);
}

class StreamingWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.num_threads = 2;
    cfg.row_batch_bytes = 64 * 1024;
    session_ = Session::Make(cfg).ValueOrDie();
    schema_ = Schema::Make({{"k", TypeId::kInt64, false},
                            {"v", TypeId::kString, true}});
    RowVec rows;
    for (int64_t i = 0; i < 100; ++i) {
      rows.push_back({Value(i % 10), Value("seed")});
    }
    auto df = session_->CreateDataFrame(schema_, rows, "s").ValueOrDie();
    idf_ = std::make_shared<IndexedDataFrame>(
        IndexedDataFrame::CreateIndex(df, 0, "stream").ValueOrDie().Cache());
  }

  SessionPtr session_;
  SchemaPtr schema_;
  std::shared_ptr<IndexedDataFrame> idf_;
};

TEST_F(StreamingWorkloadTest, AppendsAllBatchesAndRunsQueries) {
  StreamingConfig cfg;
  cfg.num_batches = 50;
  cfg.rows_per_batch = 4;
  cfg.num_query_threads = 1;
  auto report = RunStreamingWorkload(
      *idf_,
      [this](size_t b) {
        RowVec batch;
        for (size_t r = 0; r < 4; ++r) {
          batch.push_back({Value(static_cast<int64_t>(b % 10)), Value("live")});
        }
        return batch;
      },
      [this]() {
        return idf_->GetRows(Value(int64_t{3})).Collect().status();
      },
      cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->batches_appended, 50u);
  EXPECT_EQ(report->rows_appended, 200u);
  EXPECT_EQ(report->final_rows, 300u);
  EXPECT_GT(report->queries_run, 0u);
  EXPECT_EQ(report->append_latency.count(), 50u);
  EXPECT_GT(report->wall_seconds, 0.0);
  EXPECT_FALSE(report->ToString().empty());
}

TEST_F(StreamingWorkloadTest, EveryQueryThreadRunsEvenWhenTheStreamIsEmpty) {
  // With no batches the stream drains at once, typically before the query
  // threads are first scheduled; each must still run a query.
  StreamingConfig cfg;
  cfg.num_batches = 0;
  cfg.num_query_threads = 3;
  std::atomic<size_t> calls{0};
  auto report = RunStreamingWorkload(
      *idf_, [](size_t) { return RowVec{}; },
      [&calls]() {
        calls.fetch_add(1);
        return Status::OK();
      },
      cfg);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->batches_appended, 0u);
  EXPECT_GE(report->queries_run, 3u);
  EXPECT_EQ(report->queries_run, calls.load());
}

TEST_F(StreamingWorkloadTest, QueriesSeeMonotonicallyGrowingResults) {
  // Every query sees a consistent snapshot; for a single hot key under an
  // insert-only stream, observed result sizes must never shrink.
  std::atomic<size_t> last_size{0};
  std::atomic<uint64_t> violations{0};
  StreamingConfig cfg;
  cfg.num_batches = 100;
  cfg.rows_per_batch = 2;
  cfg.num_query_threads = 1;
  auto report = RunStreamingWorkload(
      *idf_,
      [](size_t) {
        return RowVec{{Value(int64_t{5}), Value("hot")},
                      {Value(int64_t{5}), Value("hot2")}};
      },
      [this, &last_size, &violations]() -> Status {
        auto rows = idf_->GetRows(Value(int64_t{5})).Collect();
        IDF_RETURN_NOT_OK(rows.status());
        size_t size = rows->size();
        size_t prev = last_size.load();
        if (size < prev) violations.fetch_add(1);
        last_size.store(size);
        // Every observed row must carry key 5.
        for (const Row& row : *rows) {
          if (!(row[0] == Value(int64_t{5}))) violations.fetch_add(1);
        }
        return Status::OK();
      },
      cfg);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(violations.load(), 0u);
  EXPECT_EQ(idf_->GetRows(Value(int64_t{5})).Count().ValueOrDie(),
            10u + 200u);  // 10 seed rows + 200 streamed
}

TEST_F(StreamingWorkloadTest, PropagatesQueryErrors) {
  StreamingConfig cfg;
  cfg.num_batches = 200;
  cfg.rows_per_batch = 1;
  cfg.num_query_threads = 1;
  auto report = RunStreamingWorkload(
      *idf_, [](size_t) { return RowVec{{Value(int64_t{1}), Value("x")}}; },
      []() { return Status::Internal("query exploded"); }, cfg);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
}

TEST_F(StreamingWorkloadTest, PropagatesAppendErrors) {
  StreamingConfig cfg;
  cfg.num_batches = 3;
  cfg.rows_per_batch = 1;
  cfg.num_query_threads = 0;
  auto report = RunStreamingWorkload(
      *idf_,
      [](size_t) {
        return RowVec{{Value("bad-type"), Value("x")}};  // schema mismatch
      },
      []() { return Status::OK(); }, cfg);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace idf
