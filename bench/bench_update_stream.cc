// Continuously-growing-data experiment (paper §1/§4 demo scenario): a
// Kafka-style update stream keeps appending knows-edges while query
// threads run point lookups against MVCC snapshots. Reports append and
// query latency percentiles while the dataset grows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "indexed/compactor.h"
#include "snb/tables.h"
#include "snb/update_stream.h"
#include "stream/streaming_driver.h"

#include "bench_common.h"

namespace idf {
namespace {

void BM_UpdateStreamWithQueries(benchmark::State& state) {
  const size_t rows_per_batch = static_cast<size_t>(state.range(0));
  const int query_threads = static_cast<int>(state.range(1));

  for (auto _ : state) {
    state.PauseTiming();
    // Fresh relation per iteration so growth is comparable across runs.
    EngineConfig cfg;
    cfg.num_partitions = 8;
    auto session = Session::Make(cfg).ValueOrDie();
    snb::SnbConfig scfg;
    scfg.scale_factor = 0.5;
    auto ds = snb::GenerateSnb(scfg);
    auto knows_df =
        session->CreateDataFrame(snb::KnowsSchema(), ds.knows, "knows")
            .ValueOrDie();
    auto idf = IndexedDataFrame::CreateIndex(knows_df, snb::knows::kPerson1,
                                             "knows_stream")
                   .ValueOrDie()
                   .Cache();
    snb::UpdateStreamGenerator gen(ds);
    Value hot_key(ds.first_person_id + 1);
    StreamingConfig stream_cfg;
    stream_cfg.num_batches = 4000 / rows_per_batch + 1;
    stream_cfg.rows_per_batch = rows_per_batch;
    stream_cfg.num_query_threads = query_threads;
    state.ResumeTiming();

    auto report = RunStreamingWorkload(
        idf,
        [&gen, rows_per_batch](size_t) {
          return gen.NextKnowsBatch(rows_per_batch / 2 + 1);
        },
        [&idf, &hot_key]() { return idf.GetRows(hot_key).Collect().status(); },
        stream_cfg);
    if (!report.ok()) {
      state.SkipWithError(report.status().ToString().c_str());
      return;
    }
    state.counters["append_p50_us"] = report->append_latency.Percentile(50);
    state.counters["append_p99_us"] = report->append_latency.Percentile(99);
    state.counters["query_p50_us"] = report->query_latency.Percentile(50);
    state.counters["query_p99_us"] = report->query_latency.Percentile(99);
    state.counters["queries_run"] = static_cast<double>(report->queries_run);
    state.counters["rows_appended"] =
        static_cast<double>(report->rows_appended);
  }
}

BENCHMARK(BM_UpdateStreamWithQueries)
    ->Args({10, 1})    // fine-grained appends, one query thread
    ->Args({100, 1})   // batched appends
    ->Args({10, 2})    // more query pressure
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// --- Sustained appends: lookup p99 with compaction on vs off -----------
//
// A hot key is appended to by every batch, so its chain fragments across
// one row batch per append; the point-lookup chain walk degrades with the
// batch span. With the background Compactor on, chains are periodically
// rewritten key-clustered and the lookup p99 stays bounded. Counters:
// lookup_p99_us, mean_batch_span (at the end of the run), compactions_run,
// and arena_bytes_per_row: the live generations' cTrie arena over the rows
// stored, the memory line of a lookup loop under an append stream (reads
// allocate no index nodes, so it stays at the appends' own cost).
void BM_SustainedAppendLookupP99(benchmark::State& state) {
  const bool compaction_on = state.range(0) != 0;
  for (auto _ : state) {
    state.PauseTiming();
    EngineConfig cfg;
    cfg.num_partitions = 4;
    cfg.row_batch_bytes = 16 * 1024;  // small batches: worst-case spans
    auto ctx = ExecutorContext::Make(cfg).ValueOrDie();
    auto schema = Schema::Make(
        {{"k", TypeId::kInt64, false}, {"v", TypeId::kInt64, false}});
    auto rel =
        IndexedRelation::Build(*ctx, "stream", schema, 0, {}).ValueOrDie();
    CompactionConfig ccfg;
    ccfg.max_mean_batch_span = 4.0;
    ccfg.min_partition_rows = 1024;
    ccfg.interval = std::chrono::milliseconds(10);
    Compactor compactor(rel, ccfg);
    if (compaction_on) compactor.Start();

    constexpr int kBatches = 400;
    constexpr size_t kRowsPerBatch = 200;
    constexpr int64_t kKeys = 16;  // every batch extends every chain
    std::atomic<bool> done{false};
    std::thread appender([&] {
      int64_t next = 0;
      for (int b = 0; b < kBatches; ++b) {
        RowVec rows;
        rows.reserve(kRowsPerBatch);
        for (size_t i = 0; i < kRowsPerBatch; ++i, ++next) {
          rows.push_back({Value(next % kKeys), Value(next)});
        }
        IDF_CHECK_OK(rel->AppendRows(*ctx, rows));
      }
      done.store(true, std::memory_order_release);
    });

    Value hot_key(int64_t{1});
    std::vector<double> lookup_us;
    lookup_us.reserve(1 << 16);
    state.ResumeTiming();
    while (!done.load(std::memory_order_acquire)) {
      auto start = std::chrono::steady_clock::now();
      RowVec rows = rel->GetRows(hot_key);
      lookup_us.push_back(std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      benchmark::DoNotOptimize(rows.size());
    }
    state.PauseTiming();
    appender.join();
    compactor.Stop();
    if (compaction_on) {
      // The stream ends mid-interval; a catch-up pass settles the steady
      // state the background thread maintains under a longer stream.
      IDF_CHECK_OK(compactor.RunOnce().status());
    }
    compactor.DrainRetired();

    std::sort(lookup_us.begin(), lookup_us.end());
    auto pct = [&](double p) {
      if (lookup_us.empty()) return 0.0;
      size_t i = static_cast<size_t>(p / 100.0 *
                                     static_cast<double>(lookup_us.size() - 1));
      return lookup_us[i];
    };
    state.counters["lookup_p50_us"] = pct(50);
    state.counters["lookup_p99_us"] = pct(99);
    state.counters["lookups_run"] = static_cast<double>(lookup_us.size());
    state.counters["mean_batch_span"] = rel->ChainStats().MeanBatchSpan();
    state.counters["compactions_run"] =
        static_cast<double>(compactor.stats().compactions_run);
    state.counters["bytes_reclaimed"] =
        static_cast<double>(compactor.stats().bytes_reclaimed);
    state.counters["arena_bytes_per_row"] =
        static_cast<double>(rel->arena_bytes()) /
        static_cast<double>(std::max<size_t>(1, rel->num_rows()));
    state.ResumeTiming();
  }
}

BENCHMARK(BM_SustainedAppendLookupP99)
    ->Arg(0)  // compaction off: chains fragment unboundedly
    ->Arg(1)  // compaction on: batch span (and lookup p99) stay bounded
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace idf

// Like BENCHMARK_MAIN(), but defaults to also writing machine-readable
// JSON results to BENCH_update_stream.json (consumed by the perf-smoke CI
// job) when the caller passes no --benchmark_out of their own.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_update_stream.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
