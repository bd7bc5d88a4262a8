// bench_e2e: SNB short reads over loopback TCP under a live update stream.
//
//   bench_e2e --workload <point_lookups|snb_mixed|ingest> --seed N
//             --seconds S --trace <0|1> [--spans-out FILE] [--smoke]
//
// Builds the SNB tables from the seed, serves them through QueryService
// behind net::Server, and drives the workload's closed-loop readers and
// append stream. Untraced (--trace 0) it reports the end-to-end metrics
// (ingest: the median over one round per 5 s of --seconds).
// Traced (--trace 1) it runs the timed phase twice, untraced then traced
// (the difference is the tracing overhead), probes every short read through
// each entry point, and reports the per-layer metrics; spans go to
// --spans-out. Every run checks sampled wire replies against an oracle.
//
// The last line of stdout is one JSON object: workload, seed, trace,
// correct, attempted, failed, metrics {name: {value, unit}} and samples.
// Exit code 0 when every request succeeded and every answer matched.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fixture.h"
#include "queries.h"
#include "runner.h"
#include "trace.h"

namespace bench {
namespace {

using Appends = WorkloadSpec::Appends;

/// Rows the ingest workload commits: a fixed volume, whatever the append
/// speed or --seconds, so stored bytes per row compare across commits.
constexpr uint64_t kIngestVolumeRows = 300000;

/// Seconds of --seconds per ingest round (about the time one volume takes).
constexpr double kIngestRoundSeconds = 5;

/// Set-ups per run (at least); setup_s is their median.
constexpr int kSetups = 5;

/// Throughput and p50 latency are medians over this many equal windows of
/// the timed phase, so a burst of load from outside the benchmark moves
/// one window, not the result.
constexpr int kWindows = 10;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(v);
    } else if (flag == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

bool MakeSpec(const Args& a, WorkloadSpec* s) {
  s->name = a.workload;
  if (a.workload == "point_lookups") {
    s->scale_factor = 10;
    s->connections = 2;
    s->mix = {{1, 1}, {4, 1}};
    s->trace_every = 32;
  } else if (a.workload == "snb_mixed") {
    s->scale_factor = 2;
    s->connections = 3;
    s->mix = {{1, 3}, {4, 3}, {2, 2}, {3, 2}, {7, 2}, {5, 1}, {6, 1}};
    s->appends = Appends::kRate;
    s->append_rows_per_s = 200;
    s->trace_every = 4;
  } else if (a.workload == "ingest") {
    s->scale_factor = 2;
    s->connections = 1;
    s->mix = {{1, 1}, {4, 1}, {7, 1}};
    s->appends = Appends::kVolume;
    s->volume_rows = kIngestVolumeRows;
    s->compaction = true;
    s->trace_every = 16;
    // The volume lands in about 5 s: one round per 5 s of --seconds spreads
    // the run over as long as the other workloads' phases, so a burst of
    // host load moves one round, not the median.
    s->rounds = std::max(1, static_cast<int>(std::lround(a.seconds / kIngestRoundSeconds)));
  } else {
    return false;
  }
  if (a.smoke) {
    // Tiny phases: trace every request so each traced span kind shows up.
    s->scale_factor = 0.1;
    s->volume_rows = std::min<uint64_t>(s->volume_rows, 2000);
    s->trace_every = 1;
  }
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

size_t Window(double done_s, double wall_s) {
  const double w = wall_s / kWindows;
  return std::min<size_t>(static_cast<size_t>(done_s / w), kWindows - 1);
}

/// Median over the windows of the phase of reads completed per second.
double WindowedRate(const PhaseStats& p) {
  std::vector<double> rate(kWindows, 0);
  for (int c = 0; c < kNumClasses; ++c) {
    for (double t : p.done_s[c]) rate[Window(t, p.wall_s)] += kWindows / p.wall_s;
  }
  return Median(rate);
}

/// Median over the windows of the phase of each window's p50 latency.
double WindowedP50(const PhaseStats& p, int cls) {
  std::vector<std::vector<double>> per(kWindows);
  for (size_t i = 0; i < p.latency_us[cls].size(); ++i) {
    per[Window(p.done_s[cls][i], p.wall_s)].push_back(p.latency_us[cls][i]);
  }
  std::vector<double> p50s;
  for (const std::vector<double>& v : per) {
    if (!v.empty()) p50s.push_back(Median(v));
  }
  return Median(p50s);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return NAN;
}

/// Aggregate CPU time of the host as this VM sees it (/proc/stat jiffies).
struct CpuTimes {
  double steal = 0;
  double total = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  double v = 0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (std::isfinite(value)) metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }
  void Sample(const std::string& name, uint64_t n) { samples_[name] += n; }

  /// Per metric, the median over `rounds` of the rounds that report it;
  /// sample counts add up.
  static Report MedianOf(const std::vector<Report>& rounds) {
    Report out;
    for (const auto& [name, m] : rounds.front().metrics_) {
      std::vector<double> values;
      for (const Report& r : rounds) {
        auto it = r.metrics_.find(name);
        if (it != r.metrics_.end()) values.push_back(it->second.first);
      }
      out.Add(name, Median(values), m.second);
    }
    for (const Report& r : rounds) {
      for (const auto& [name, n] : r.samples_) out.Sample(name, n);
    }
    return out;
  }

  void Print(const Args& a, const WorkloadSpec& spec, bool correct, uint64_t attempted,
             uint64_t failed) const {
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"scale_factor\":%g,"
        "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
        spec.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
        spec.scale_factor, correct ? "true" : "false",
        static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", sep, name.c_str(),
                  m.first, m.second);
      sep = ",";
    }
    std::printf("},\"samples\":{");
    sep = "";
    for (const auto& [name, n] : samples_) {
      std::printf("%s\"%s\":%llu", sep, name.c_str(), static_cast<unsigned long long>(n));
      sep = ",";
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, const char*>> metrics_;
  std::map<std::string, uint64_t> samples_;
};

/// Span durations (µs) by name, phase and optional query filter.
class SpanQuery {
 public:
  explicit SpanQuery(const std::vector<FlatSpan>& spans) : spans_(spans) {}

  std::vector<double> Micros(const char* name, Phase phase, int cls = -1,
                             int query = 0) const {
    std::vector<double> out;
    for (const FlatSpan& f : spans_) {
      const Span& s = f.span;
      if (s.phase != phase || std::strcmp(s.name, name) != 0) continue;
      if (query != 0 && s.query != query) continue;
      if (cls >= 0 && (s.query == 0 || static_cast<int>(GetShortRead(s.query).cls) != cls)) {
        continue;
      }
      out.push_back(s.micros());
    }
    return out;
  }

  /// Per timed request: wire round trip minus the service-reported total
  /// of the in-process execution of the same statement and parameters.
  std::vector<double> WireOverhead() const {
    std::map<std::pair<uint32_t, uint64_t>, std::pair<double, double>> by_request;
    for (const FlatSpan& f : spans_) {
      const Span& s = f.span;
      if (s.phase != Phase::kTimed) continue;
      auto key = std::make_pair(f.buffer, s.request);
      if (std::strcmp(s.name, "net.execute") == 0) {
        by_request[key].first = s.micros();
      } else if (std::strcmp(s.name, "service.total") == 0) {
        by_request[key].second = s.micros();
      }
    }
    std::vector<double> out;
    for (const auto& [key, v] : by_request) {
      if (v.first > 0 && v.second > 0) out.push_back(v.first - v.second);
    }
    return out;
  }

  std::vector<double> ReplyBytes() const {
    std::vector<double> out;
    for (const FlatSpan& f : spans_) {
      if (std::strcmp(f.span.name, "net.encode") == 0) {
        out.push_back(static_cast<double>(f.span.bytes));
      }
    }
    return out;
  }

 private:
  const std::vector<FlatSpan>& spans_;
};

struct Storage {
  double data_bytes = 0, index_bytes = 0, arena_bytes = 0;
  double mean_batch_span = 0;
};

Storage MeasureStorage(Fixture& fx) {
  Storage s;
  uint64_t span_sum = 0, keys = 0;
  for (const idf::IndexedRelationPtr& rel : fx.service->snapshots().Relations()) {
    s.data_bytes += static_cast<double>(rel->data_bytes());
    s.index_bytes += static_cast<double>(rel->index_bytes());
    s.arena_bytes += static_cast<double>(rel->arena_bytes());
    const idf::ChainStatsSnapshot cs = rel->ChainStats();
    span_sum += cs.sum_batch_span;
    keys += cs.num_keys;
  }
  s.mean_batch_span = keys ? static_cast<double>(span_sum) / static_cast<double>(keys) : 0;
  return s;
}

void AddLatency(const std::string& prefix, const std::vector<double>& us, double p50,
                Report* r) {
  r->Add(prefix + "_p50_us", p50, "us");
  r->Add(prefix + "_p99_us", Percentile(us, 0.99), "us");
  r->Sample(prefix, us.size());
}

void AddAppendMetrics(const PhaseStats& p, Report* r) {
  if (p.append_us.empty()) return;
  r->Add("append_rows_per_s", static_cast<double>(p.rows_appended) / p.append_wall_s,
         "rows/s");
  AddLatency("append", p.append_us, Median(p.append_us), r);
}

/// The end-to-end metrics one untraced timed phase produces.
void AddPhaseMetrics(const PhaseStats& p, const Storage& s, double rows, Report* r) {
  r->Add("qps", WindowedRate(p), "1/s");
  for (int c = 0; c < kNumClasses; ++c) {
    if (!p.latency_us[c].empty()) {
      AddLatency(ClassName(static_cast<QueryClass>(c)), p.latency_us[c], WindowedP50(p, c),
                 r);
    }
  }
  AddAppendMetrics(p, r);
  r->Add("stored_bytes_per_row", (s.data_bytes + s.index_bytes + s.arena_bytes) / rows, "B");
}

int Run(const Args& a) {
  WorkloadSpec spec;
  if (!MakeSpec(a, &spec)) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  const bool trace = a.trace == 1;
  int verify_per_class[kNumClasses] = {50, 30, 5};
  int probe_per_class[kNumClasses] = {30, 20, 5};
  if (a.smoke) {
    for (int c = 0; c < kNumClasses; ++c) {
      verify_per_class[c] = 3;
      probe_per_class[c] = 2;
    }
  }
  // A traced run halves the untraced phase and follows it with a traced one.
  const double phase_s = trace ? a.seconds / 2 : a.seconds;
  const uint64_t phase_volume = trace ? spec.volume_rows / 2 : spec.volume_rows;

  // Set up several times: setup_s is the median. The last `rounds` set-ups
  // each get an untraced timed phase; the last one is kept for the traced
  // phase and the probes. Freed heap goes back to the kernel between
  // set-ups, so the peak RSS is one set-up's, not allocator caching.
  const int rounds = trace || a.smoke ? 1 : spec.rounds;
  const int setups = a.smoke ? 1 : std::max(kSetups, rounds);
  std::vector<double> setup_s, datagen_s, build_s;
  std::unique_ptr<Fixture> fx;
  std::unique_ptr<Oracle> oracle;  // refers to fx->data
  std::unique_ptr<BatchSource> batches;
  Tally tally;
  uint64_t mismatches = 0;
  PhaseStats untraced;
  uint64_t base_rows = 0;
  std::vector<Report> round_reports;
  for (int i = 0; i < setups; ++i) {
    batches.reset();
    oracle.reset();
    fx.reset();
    malloc_trim(0);
    auto made = SetUp(spec.scale_factor, a.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "bench_e2e: setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    fx = std::move(made).ValueUnsafe();
    setup_s.push_back(fx->times.total_s);
    datagen_s.push_back(fx->times.datagen_s);
    build_s.push_back(fx->times.build_s);
    const int round = i - (setups - rounds);
    if (round < 0) continue;

    oracle = std::make_unique<Oracle>(fx->data);
    batches = std::make_unique<BatchSource>(fx->data);
    if (spec.compaction && !fx->service->EnableCompaction().ok()) {
      std::fprintf(stderr, "bench_e2e: EnableCompaction failed\n");
      return 1;
    }
    base_rows = oracle->num_rows();
    Report r;
    const CpuTimes cpu0 = ReadCpuTimes();
    untraced = RunPhase(*fx, *oracle, *batches, spec, a.seed + static_cast<uint64_t>(round),
                        phase_s, phase_volume, nullptr, tally);
    const CpuTimes cpu1 = ReadCpuTimes();
    mismatches += VerifyWire(*fx, *oracle, a.seed, static_cast<uint64_t>(round),
                             verify_per_class, tally);
    AddPhaseMetrics(untraced, MeasureStorage(*fx), static_cast<double>(oracle->num_rows()),
                    &r);
    // CPU time the hypervisor gave to other guests during the phase: the
    // host noise every timing above is exposed to.
    r.Add("bench.cpu_steal_share",
          cpu1.total > cpu0.total ? (cpu1.steal - cpu0.steal) / (cpu1.total - cpu0.total)
                                  : 0,
          "ratio");
    round_reports.push_back(std::move(r));
  }

  Report report = Report::MedianOf(round_reports);
  report.Add("setup_s", Median(setup_s), "s");
  report.Sample("base_rows", base_rows);

  if (trace) {
    Tracer tracer;
    const PhaseStats traced = RunPhase(*fx, *oracle, *batches, spec, a.seed + 1000, phase_s,
                                       phase_volume, &tracer, tally);
    mismatches += VerifyWire(*fx, *oracle, a.seed, 1000, verify_per_class, tally);
    const Storage storage = MeasureStorage(*fx);
    const double rows = static_cast<double>(oracle->num_rows());
    if (spec.appends == Appends::kNone) {
      // No append stream in the timed phase: time the append path on its own.
      PhaseStats probe;
      ProbeAppends(*fx, *oracle, *batches, a.smoke ? 6 : 60, tracer, tally, &probe);
      AddAppendMetrics(probe, &report);
    }
    const auto [filtered, session_rows] =
        ProbeEntryPoints(*fx, *oracle, a.seed, probe_per_class, tracer, tally);
    const std::vector<FlatSpan> spans = tracer.Collect();
    if (!a.spans_out.empty() && !WriteSpans(spans, a.spans_out)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", a.spans_out.c_str());
    }
    const SpanQuery sq(spans);
    const Phase T = Phase::kTimed, P = Phase::kProbe;

    // Classes and append numbers the timed mix lacks come from the probes.
    for (int c = 0; c < kNumClasses; ++c) {
      const std::string name = ClassName(static_cast<QueryClass>(c));
      if (!report.Has(name + "_p50_us")) {
        const std::vector<double> us = sq.Micros("net.execute", P, c);
        AddLatency(name, us, Median(us), &report);
      }
    }

    report.Add("net.round_trip_us", Median(sq.Micros("net.execute", T)), "us");
    report.Add("net.wire_overhead_us", Median(sq.WireOverhead()), "us");
    report.Add("net.reply_bytes", Median(sq.ReplyBytes()), "B");
    report.Add("net.encode_us", Median(sq.Micros("net.encode", T)), "us");
    report.Add("net.decode_us", Median(sq.Micros("net.decode", T)), "us");
    report.Add("net.busy_retries",
               static_cast<double>(tally.busy_retries.load()) /
                   static_cast<double>(std::max<uint64_t>(tally.reads.load(), 1)),
               "ratio");

    report.Add("service.queue_us", Median(sq.Micros("service.queue", T)), "us");
    report.Add("service.exec_us", Median(sq.Micros("service.exec", T)), "us");
    for (int c = 0; c < kNumClasses; ++c) {
      std::vector<double> exec = sq.Micros("service.exec", T, c);
      if (exec.empty()) exec = sq.Micros("service.exec", P, c);
      report.Add(std::string("service.exec_us.") + ClassName(static_cast<QueryClass>(c)),
                 Median(exec), "us");
    }
    report.Add("service.pin_us", Median(sq.Micros("service.pin_all", T)), "us");
    const uint64_t execs = untraced.prepared_executions + traced.prepared_executions;
    report.Add("service.replans_per_exec",
               static_cast<double>(untraced.prepared_replans + traced.prepared_replans) /
                   static_cast<double>(std::max<uint64_t>(execs, 1)),
               "ratio");
    const idf::ServiceStats stats = fx->service->Stats();
    report.Add("service.plan_cache_hit_ratio",
               static_cast<double>(stats.plan_cache_hits) /
                   static_cast<double>(std::max<uint64_t>(
                       stats.plan_cache_hits + stats.plan_cache_misses, 1)),
               "ratio");

    report.Add("sql.parse_analyze_us", Median(sq.Micros("sql.parse_analyze", P)), "us");
    report.Add("sql.optimize_us", Median(sq.Micros("sql.optimize", P)), "us");
    report.Add("sql.physical_plan_us", Median(sq.Micros("sql.physical_plan", P)), "us");
    for (int c = 0; c < kNumClasses; ++c) {
      const std::string cls = ClassName(static_cast<QueryClass>(c));
      report.Add("sql.execute_us." + cls, Median(sq.Micros("sql.execute", P, c)), "us");
      report.Add("sql.service_over_session." + cls,
                 Median(sq.Micros("service.exec", P, c)) /
                     Median(sq.Micros("sql.session", P, c)),
                 "ratio");
    }
    report.Add("sql.rows_filtered_per_row",
               static_cast<double>(filtered) /
                   static_cast<double>(std::max<uint64_t>(session_rows, 1)),
               "ratio");

    report.Add("indexed.lookup_us", Median(sq.Micros("indexed.get_rows", T)), "us");
    report.Add("indexed.data_bytes_per_row", storage.data_bytes / rows, "B");
    report.Add("indexed.index_bytes_per_row", storage.index_bytes / rows, "B");
    report.Add("indexed.arena_bytes_per_row", storage.arena_bytes / rows, "B");
    report.Add("indexed.mean_batch_span", storage.mean_batch_span, "batches");
    report.Add("indexed.compactions_run", static_cast<double>(stats.compactions_run), "count");
    report.Add("indexed.bytes_reclaimed", static_cast<double>(stats.bytes_reclaimed), "B");
    report.Add("indexed.retired_pending", static_cast<double>(stats.retired_pending), "count");
    report.Add("snb.datagen_s", Median(datagen_s), "s");
    report.Add("indexed.build_s", Median(build_s), "s");

    report.Add("bench.generator_lag_ms",
               spec.appends == Appends::kRate ? Median(untraced.lag_ms)
                                              : untraced.client_gap_us / 1e3,
               "ms");
    report.Add("bench.tracing_overhead", 1.0 - WindowedRate(traced) / WindowedRate(untraced),
               "ratio");

    static const char* kEntries[][2] = {{"session", "sql.session"},
                                        {"adhoc", "service.execute"},
                                        {"prepared", "service.execute_prepared"},
                                        {"wire", "net.execute"}};
    for (int q = 1; q <= 7; ++q) {
      for (const auto& [entry, span] : kEntries) {
        report.Add("entry.sq" + std::to_string(q) + "." + entry + "_us",
                   Median(sq.Micros(span, P, -1, q)), "us");
      }
    }
  }

  const uint64_t attempted = tally.attempted.load();
  const uint64_t failed = tally.failed.load();
  report.Add("error_rate",
             static_cast<double>(failed) / static_cast<double>(std::max<uint64_t>(attempted, 1)),
             "ratio");
  report.Add("peak_rss_mb", PeakRssMiB(), "MiB");
  report.Sample("oracle_mismatches", mismatches);
  const bool correct = failed == 0 && mismatches == 0;
  report.Print(a, spec, correct, attempted, failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  bench::Args args;
  if (!bench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <point_lookups|snb_mixed|ingest> "
                 "--seed N --seconds S --trace <0|1> [--spans-out FILE] [--smoke]\n");
    return 2;
  }
  return bench::Run(args);
}
