#include "runner.h"

#include <chrono>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>

#include "net/client.h"
#include "net/protocol.h"

namespace bench {

using idf::QueryResult;
using idf::Result;
using idf::RowVec;
using idf::Value;
namespace net = idf::net;

namespace {

constexpr int kBusyRetries = 100;

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ULL ^ (a + 1) * 0xbf58476d1ce4e5b9ULL ^
               (b + 1) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x ? x : 1;
}

/// Wire EXECUTE, retrying BUSY (admission backpressure) a bounded number
/// of times.
Result<net::RowsReply> ExecuteWithRetry(net::Client& client, uint64_t handle,
                                        int64_t param, Tally& tally) {
  const std::vector<Value> params{Value(param)};
  for (int attempt = 0;; ++attempt) {
    Result<net::RowsReply> reply = client.Execute(handle, params);
    if (reply.ok() || !reply.status().IsCapacityError() || attempt == kBusyRetries) {
      return reply;
    }
    tally.busy_retries.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void Fail(Tally& tally, const std::string& what) {
  tally.failed.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "bench_e2e: %s\n", what.c_str());
}

/// Prepares SQ1..SQ7 on a wire connection (index = query number).
bool PrepareWire(net::Client& client, uint64_t handles[8], Tally& tally) {
  for (int q = 1; q <= 7; ++q) {
    auto prep = client.Prepare(GetShortRead(q).sql);
    if (!prep.ok()) {
      Fail(tally, "PREPARE SQ" + std::to_string(q) + ": " + prep.status().ToString());
      return false;
    }
    handles[q] = prep->handle;
  }
  return true;
}

/// Prepares SQ1..SQ7 in process (index = query number).
bool PrepareLocal(idf::QueryService& service, uint64_t handles[8], Tally& tally) {
  for (int q = 1; q <= 7; ++q) {
    auto prep = service.Prepare(GetShortRead(q).sql);
    if (!prep.ok()) {
      Fail(tally, "Prepare SQ" + std::to_string(q) + ": " + prep.status().ToString());
      return false;
    }
    handles[q] = prep->handle;
  }
  return true;
}

/// In-process ExecutePrepared with its queue/exec split as child spans
/// under a span of the service-reported total.
QueryResult TracedExecutePrepared(idf::QueryService& service, uint64_t handle,
                                  int64_t param, TraceBuffer* buf, uint64_t request,
                                  int32_t parent, int query, Phase phase) {
  const int64_t a = NowNs();
  QueryResult r = service.ExecutePrepared(handle, {Value(param)});
  const int64_t b = NowNs();
  const int32_t sp =
      buf->Add("service.execute_prepared", a, b, request, parent, query, phase);
  const int64_t queue_ns = static_cast<int64_t>(r.queue_micros) * 1000;
  const int64_t exec_ns = static_cast<int64_t>(r.exec_micros) * 1000;
  const int32_t total = buf->Add("service.total", a,
                                 a + static_cast<int64_t>(r.total_micros) * 1000,
                                 request, sp, query, phase);
  buf->Add("service.queue", a, a + queue_ns, request, total, query, phase);
  buf->Add("service.exec", a + queue_ns, a + queue_ns + exec_ns, request, total,
           query, phase);
  return r;
}

double PhaseSeconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

}  // namespace

std::pair<const char*, RowVec> BatchSource::Next() {
  const int turn = turn_++ % 3;
  if (turn == 0) {
    // Knows edges are stored in both directions: n edges are 2n rows.
    return {"person_knows_person", gen_.NextKnowsBatch(kBatchRows / 2)};
  }
  if (turn == 1) return {"post", gen_.NextPostBatch(kBatchRows)};
  return {"comment", gen_.NextCommentBatch(kBatchRows)};
}

PhaseStats RunPhase(Fixture& fx, Oracle& oracle, BatchSource& batches,
                    const WorkloadSpec& spec, uint64_t seed, double seconds,
                    uint64_t volume_rows, Tracer* tracer, Tally& tally) {
  using Appends = WorkloadSpec::Appends;
  const int conns = spec.connections;
  const bool has_appender = spec.appends != Appends::kNone;
  std::latch ready(conns + (has_appender ? 1 : 0));
  std::latch start(1);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> start_ns{0};

  std::vector<PhaseStats> per_reader(static_cast<size_t>(conns));
  PhaseStats appender_stats;
  const idf::ServiceStats before = fx.service->Stats();

  int total_weight = 0;
  for (auto [q, w] : spec.mix) total_weight += w;

  auto reader = [&](int conn) {
    PhaseStats& st = per_reader[static_cast<size_t>(conn)];
    TraceBuffer* buf = tracer ? tracer->NewBuffer() : nullptr;
    uint64_t wire[8] = {0}, local[8] = {0};
    std::unique_ptr<net::Client> client;
    auto conn_or = net::Client::Connect("127.0.0.1", fx.server->port());
    bool ok = conn_or.ok();
    if (!ok) Fail(tally, "connect: " + conn_or.status().ToString());
    if (ok) {
      client = std::move(conn_or).ValueUnsafe();
      ok = PrepareWire(*client, wire, tally) &&
           (buf == nullptr || PrepareLocal(*fx.service, local, tally));
    }
    idf::Random64 rng(MixSeed(seed, 1, static_cast<uint64_t>(conn)));
    ready.count_down();
    start.wait();
    if (!ok) return;
    const int64_t phase_start = start_ns.load();

    uint64_t request = static_cast<uint64_t>(conn) << 40;
    int64_t prev_end = 0;
    double gap_ns = 0;
    uint64_t gaps = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      int pick = static_cast<int>(rng.Uniform(static_cast<uint64_t>(total_weight)));
      int q = spec.mix.front().first;
      for (auto [query, w] : spec.mix) {
        if (pick < w) {
          q = query;
          break;
        }
        pick -= w;
      }
      const ShortRead& sr = GetShortRead(q);
      const int64_t param = DrawParam(sr.param, fx.data, rng);
      TraceBuffer* tb =
          buf && rng.Uniform(static_cast<uint64_t>(spec.trace_every)) == 0 ? buf : nullptr;
      ++request;
      ScopedSpan root(tb, "bench.request", request, -1, q, Phase::kTimed);

      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      tally.reads.fetch_add(1, std::memory_order_relaxed);
      const int64_t t0 = NowNs();
      if (prev_end != 0) {
        gap_ns += static_cast<double>(t0 - prev_end);
        ++gaps;
      }
      Result<net::RowsReply> reply = [&] {
        ScopedSpan s(tb, "net.execute", request, root.id(), q, Phase::kTimed);
        return ExecuteWithRetry(*client, wire[q], param, tally);
      }();
      const int64_t t1 = NowNs();
      if (!reply.ok()) {
        Fail(tally, "EXECUTE SQ" + std::to_string(q) + ": " + reply.status().ToString());
        prev_end = NowNs();
        continue;
      }
      ++st.reads_ok;
      st.latency_us[static_cast<int>(sr.cls)].push_back(static_cast<double>(t1 - t0) / 1e3);
      st.done_s[static_cast<int>(sr.cls)].push_back(static_cast<double>(t1 - phase_start) / 1e9);

      if (tb != nullptr) {
        // The reply codec, on the reply just received.
        std::string payload;
        {
          ScopedSpan s(tb, "net.encode", request, root.id(), q, Phase::kTimed);
          payload = net::EncodeOkRows(reply->epoch, *reply->schema, reply->rows);
          tb->SetBytes(s.id(), payload.size());
        }
        {
          ScopedSpan s(tb, "net.decode", request, root.id(), q, Phase::kTimed);
          if (!net::DecodeOkRows(payload).ok()) Fail(tally, "DecodeOkRows failed");
        }
        // The same statement and parameters in process, back to back.
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        QueryResult r = TracedExecutePrepared(*fx.service, local[q], param, tb, request,
                                              root.id(), q, Phase::kTimed);
        if (!r.ok()) Fail(tally, "ExecutePrepared SQ" + std::to_string(q) + ": " +
                                     r.status.ToString());
        {
          ScopedSpan s(tb, "service.pin_all", request, root.id(), q, Phase::kTimed);
          idf::ServiceSnapshot snap = fx.service->snapshots().PinAll();
        }
        if (idf::IndexedRelationPtr rel = PointRelation(fx, q)) {
          ScopedSpan s(tb, "indexed.get_rows", request, root.id(), q, Phase::kTimed);
          RowVec rows = rel->GetRows(Value(param));
        }
      }
      prev_end = NowNs();
    }
    st.client_gap_us = gaps ? gap_ns / static_cast<double>(gaps) / 1e3 : 0;
    if (client) {
      for (int q = 1; q <= 7; ++q) (void)client->Close(wire[q]);
    }
  };

  auto appender = [&] {
    TraceBuffer* buf = tracer ? tracer->NewBuffer() : nullptr;
    ready.count_down();
    start.wait();
    const int64_t begin = start_ns.load();
    const int64_t interval_ns =
        spec.appends == Appends::kRate
            ? static_cast<int64_t>(1e9 * static_cast<double>(kBatchRows) /
                                   spec.append_rows_per_s)
            : 0;
    uint64_t request = 1ULL << 62;
    for (int64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      if (spec.appends == Appends::kVolume && appender_stats.rows_appended >= volume_rows) {
        break;
      }
      auto [table, rows] = batches.Next();
      const int64_t due = spec.appends == Appends::kRate ? begin + i * interval_ns : 0;
      if (spec.appends == Appends::kRate) {
        // Sleep in short steps so the phase end is noticed promptly.
        while (!stop.load(std::memory_order_relaxed) && NowNs() < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<int64_t>(due - NowNs(), 2'000'000)));
        }
        if (stop.load(std::memory_order_relaxed)) break;
      }
      ++request;
      const int64_t t0 = NowNs();
      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      idf::Status status;
      {
        ScopedSpan s(buf, "service.append", request, -1, 0, Phase::kTimed);
        status = fx.service->Append(table, rows);
      }
      const int64_t t1 = NowNs();
      if (!status.ok()) {
        // The run has failed; stop the stream rather than retry forever.
        Fail(tally, std::string("Append ") + table + ": " + status.ToString());
        break;
      }
      const int64_t from = spec.appends == Appends::kRate ? due : t0;
      appender_stats.append_us.push_back(static_cast<double>(t1 - from) / 1e3);
      if (spec.appends == Appends::kRate) {
        appender_stats.lag_ms.push_back(static_cast<double>(t0 - due) / 1e6);
      }
      appender_stats.rows_appended += rows.size();
      oracle.Append(table, std::move(rows));
    }
    appender_stats.append_wall_s = PhaseSeconds(begin, NowNs());
    if (spec.appends == Appends::kVolume) stop.store(true);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) threads.emplace_back(reader, c);
  std::thread append_thread;
  if (has_appender) append_thread = std::thread(appender);

  ready.wait();
  const int64_t t_start = NowNs();
  start_ns.store(t_start);
  start.count_down();
  if (spec.appends == Appends::kVolume) {
    append_thread.join();
  } else {
    std::this_thread::sleep_for(std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9)));
    stop.store(true);
    if (append_thread.joinable()) append_thread.join();
  }
  for (std::thread& t : threads) t.join();
  const int64_t t_end = NowNs();

  PhaseStats out = std::move(appender_stats);
  out.wall_s = PhaseSeconds(t_start, t_end);
  double gap_sum = 0;
  for (PhaseStats& r : per_reader) {
    out.reads_ok += r.reads_ok;
    gap_sum += r.client_gap_us;
    for (int c = 0; c < kNumClasses; ++c) {
      out.latency_us[c].insert(out.latency_us[c].end(), r.latency_us[c].begin(),
                               r.latency_us[c].end());
      out.done_s[c].insert(out.done_s[c].end(), r.done_s[c].begin(), r.done_s[c].end());
    }
  }
  out.client_gap_us = gap_sum / static_cast<double>(conns);
  const idf::ServiceStats after = fx.service->Stats();
  out.prepared_executions = after.prepared_executions - before.prepared_executions;
  out.prepared_replans = after.prepared_replans - before.prepared_replans;
  return out;
}

uint64_t VerifyWire(Fixture& fx, Oracle& oracle, uint64_t seed, uint64_t round,
                    int per_class[kNumClasses], Tally& tally) {
  idf::Random64 rng(MixSeed(seed, 2, round));
  auto conn = net::Client::Connect("127.0.0.1", fx.server->port());
  if (!conn.ok()) {
    Fail(tally, "verify connect: " + conn.status().ToString());
    return 1;
  }
  net::Client& client = **conn;
  uint64_t wire[8] = {0};
  if (!PrepareWire(client, wire, tally)) return 1;
  uint64_t mismatches = 0;
  for (int q = 1; q <= 7; ++q) {
    const ShortRead& sr = GetShortRead(q);
    for (int i = 0; i < per_class[static_cast<int>(sr.cls)]; ++i) {
      const int64_t param = DrawParam(sr.param, fx.data, rng);
      tally.attempted.fetch_add(1, std::memory_order_relaxed);
      auto reply = ExecuteWithRetry(client, wire[q], param, tally);
      if (!reply.ok()) {
        Fail(tally, "verify SQ" + std::to_string(q) + ": " + reply.status().ToString());
        continue;
      }
      const std::string diff = oracle.Check(q, param, reply->rows);
      if (!diff.empty()) {
        ++mismatches;
        Fail(tally, "oracle mismatch (wire) " + diff);
      }
    }
  }
  return mismatches;
}

std::pair<uint64_t, uint64_t> ProbeEntryPoints(Fixture& fx, Oracle& oracle,
                                               uint64_t seed,
                                               int per_class[kNumClasses],
                                               Tracer& tracer, Tally& tally) {
  TraceBuffer* buf = tracer.NewBuffer();
  idf::Random64 rng(MixSeed(seed, 3, 0));
  uint64_t filtered = 0, session_rows = 0;
  auto conn = net::Client::Connect("127.0.0.1", fx.server->port());
  uint64_t wire[8] = {0}, local[8] = {0};
  if (!conn.ok()) {
    Fail(tally, "probe connect: " + conn.status().ToString());
    return {0, 0};
  }
  net::Client& client = **conn;
  if (!PrepareWire(client, wire, tally) || !PrepareLocal(*fx.service, local, tally)) {
    return {0, 0};
  }
  idf::Session& session = *fx.session;
  const Phase P = Phase::kProbe;
  uint64_t request = 2ULL << 62;

  auto check = [&](const char* entry, int q, int64_t param, const RowVec& rows) {
    const std::string diff = oracle.Check(q, param, rows);
    if (!diff.empty()) Fail(tally, std::string("oracle mismatch (") + entry + ") " + diff);
  };
  for (int q = 1; q <= 7; ++q) {
    const ShortRead& sr = GetShortRead(q);
    for (int i = 0; i < per_class[static_cast<int>(sr.cls)]; ++i) {
      const int64_t param = DrawParam(sr.param, fx.data, rng);
      const std::string sql = SpliceParam(sr, param);
      ++request;
      tally.attempted.fetch_add(4, std::memory_order_relaxed);

      // Session: Sql (parse + analyze) then ExecuteCollect (optimize, plan,
      // execute). OptimizeOnly and PlanOptimized are timed on their own.
      const int32_t root = buf->Begin("sql.session", request, -1, q, P);
      Result<idf::DataFrame> df = [&] {
        ScopedSpan s(buf, "sql.parse_analyze", request, root, q, P);
        return session.Sql(sql);
      }();
      const uint64_t f0 = session.metrics().rows_filtered_vectorized();
      Result<RowVec> rows = [&]() -> Result<RowVec> {
        if (!df.ok()) return df.status();
        ScopedSpan s(buf, "sql.execute", request, root, q, P);
        return session.ExecuteCollect(df->plan());
      }();
      filtered += session.metrics().rows_filtered_vectorized() - f0;
      buf->End(root);
      if (!df.ok() || !rows.ok()) {
        Fail(tally, "Session SQ" + std::to_string(q) + ": " +
                        (df.ok() ? rows.status() : df.status()).ToString());
      } else {
        session_rows += rows->size();
        check("session", q, param, *rows);
        Result<idf::LogicalPlanPtr> opt = [&] {
          ScopedSpan s(buf, "sql.optimize", request, -1, q, P);
          return session.OptimizeOnly(df->plan());
        }();
        if (opt.ok()) {
          ScopedSpan s(buf, "sql.physical_plan", request, -1, q, P);
          if (!session.PlanOptimized(*opt).ok()) Fail(tally, "PlanOptimized failed");
        } else {
          Fail(tally, "OptimizeOnly: " + opt.status().ToString());
        }
      }

      // Ad-hoc service SQL.
      QueryResult adhoc;
      {
        ScopedSpan s(buf, "service.execute", request, -1, q, P);
        adhoc = fx.service->Execute(sql);
      }
      if (adhoc.ok()) {
        check("Execute", q, param, adhoc.rows);
      } else {
        Fail(tally, "Execute SQ" + std::to_string(q) + ": " + adhoc.status.ToString());
      }

      // Prepared, in process.
      QueryResult prepared =
          TracedExecutePrepared(*fx.service, local[q], param, buf, request, -1, q, P);
      if (prepared.ok()) {
        check("ExecutePrepared", q, param, prepared.rows);
      } else {
        Fail(tally, "ExecutePrepared SQ" + std::to_string(q) + ": " +
                        prepared.status.ToString());
      }

      // The wire.
      Result<net::RowsReply> reply = [&] {
        ScopedSpan s(buf, "net.execute", request, -1, q, P);
        return ExecuteWithRetry(client, wire[q], param, tally);
      }();
      if (reply.ok()) {
        check("wire", q, param, reply->rows);
      } else {
        Fail(tally, "EXECUTE SQ" + std::to_string(q) + ": " + reply.status().ToString());
      }
    }
  }
  return {filtered, session_rows};
}

void ProbeAppends(Fixture& fx, Oracle& oracle, BatchSource& batches, int batches_n,
                  Tracer& tracer, Tally& tally, PhaseStats* out) {
  TraceBuffer* buf = tracer.NewBuffer();
  const int64_t begin = NowNs();
  for (int i = 0; i < batches_n; ++i) {
    auto [table, rows] = batches.Next();
    tally.attempted.fetch_add(1, std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    idf::Status status;
    {
      ScopedSpan s(buf, "service.append", (3ULL << 62) + static_cast<uint64_t>(i), -1,
                   0, Phase::kProbe);
      status = fx.service->Append(table, rows);
    }
    const int64_t t1 = NowNs();
    if (!status.ok()) {
      Fail(tally, std::string("Append ") + table + ": " + status.ToString());
      continue;
    }
    out->append_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    out->rows_appended += rows.size();
    oracle.Append(table, std::move(rows));
  }
  out->append_wall_s = PhaseSeconds(begin, NowNs());
}

}  // namespace bench
