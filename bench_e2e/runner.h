// The load a workload puts on the fixture: closed-loop reader connections
// over the wire, an open-loop or back-to-back append stream, the oracle
// checks after each timed phase, and the traced entry-point probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fixture.h"
#include "queries.h"
#include "snb/update_stream.h"
#include "trace.h"

namespace bench {

struct WorkloadSpec {
  std::string name;
  double scale_factor = 2;
  int connections = 1;
  /// (short read 1..7, weight) pairs the readers draw from.
  std::vector<std::pair<int, int>> mix;

  enum class Appends { kNone, kRate, kVolume };
  Appends appends = Appends::kNone;
  double append_rows_per_s = 0;   ///< kRate: open-loop schedule
  uint64_t volume_rows = 0;       ///< kVolume: rows committed back-to-back
  bool compaction = false;        ///< EnableCompaction() with its defaults
  /// Untraced runs measure this many timed phases, each on its own fresh
  /// set-up, and report the median of each metric.
  int rounds = 1;
  int trace_every = 16;           ///< traced phases record 1 request in N
};

/// Rows per append batch; batches rotate knows -> post -> comment.
inline constexpr size_t kBatchRows = 20;

/// Requests made and failures seen over a whole run. A failure is an error
/// reply, BUSY after every retry, or an oracle mismatch.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> busy_retries{0};
  std::atomic<uint64_t> reads{0};  ///< wire reads attempted in timed phases
};

struct PhaseStats {
  double wall_s = 0;
  uint64_t reads_ok = 0;
  std::vector<double> latency_us[kNumClasses];  ///< wire round trips
  std::vector<double> done_s[kNumClasses];  ///< completion time of each, from phase start
  std::vector<double> append_us;  ///< per batch (kRate: from when it was due)
  std::vector<double> lag_ms;     ///< kRate: batch start minus due time
  double client_gap_us = 0;       ///< mean reader time between requests
  uint64_t rows_appended = 0;
  double append_wall_s = 0;
  uint64_t prepared_executions = 0;  ///< service counter deltas over the phase
  uint64_t prepared_replans = 0;
};

/// Update-stream batches in the benchmark's fixed rotation.
class BatchSource {
 public:
  explicit BatchSource(const idf::snb::SnbDataset& base) : gen_(base) {}
  /// The next batch and the served table it goes to.
  std::pair<const char*, idf::RowVec> Next();

 private:
  idf::snb::UpdateStreamGenerator gen_;
  int turn_ = 0;
};

/// One timed phase: `spec.connections` closed-loop readers for `seconds`
/// (kNone, kRate) or until `volume_rows` have landed (kVolume), with the
/// workload's append stream alongside. A non-null tracer samples 1 in
/// spec.trace_every reads and records every append.
PhaseStats RunPhase(Fixture& fx, Oracle& oracle, BatchSource& batches,
                    const WorkloadSpec& spec, uint64_t seed, double seconds,
                    uint64_t volume_rows, Tracer* tracer, Tally& tally);

/// Checks `per_class` wire replies of each short read, with parameters
/// drawn from (seed, round), against the oracle (appender stopped).
/// Returns the number of mismatches.
uint64_t VerifyWire(Fixture& fx, Oracle& oracle, uint64_t seed, uint64_t round,
                    int per_class[kNumClasses], Tally& tally);

/// Runs each short read through Session, ad-hoc Execute, ExecutePrepared
/// and the wire, `per_class` times, recording spans and checking every
/// answer against the oracle. Returns Σ rows_filtered_vectorized and Σ rows
/// of the Session executions.
std::pair<uint64_t, uint64_t> ProbeEntryPoints(Fixture& fx, Oracle& oracle,
                                               uint64_t seed,
                                               int per_class[kNumClasses],
                                               Tracer& tracer, Tally& tally);

/// Commits `batches_n` batches back-to-back (for workloads whose timed
/// phase has no appends). Per-batch latencies in `out->append_us`.
void ProbeAppends(Fixture& fx, Oracle& oracle, BatchSource& batches, int batches_n,
                  Tracer& tracer, Tally& tally, PhaseStats* out);

}  // namespace bench
