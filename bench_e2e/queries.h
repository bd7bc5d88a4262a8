// The seven SNB interactive short reads as prepared SQL, their latency
// classes and parameter domains, and the correctness oracle that answers
// them from the rows the benchmark generated and appended.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "snb/datagen.h"
#include "types/row.h"

namespace bench {

/// Latency classes: the layers each class stresses differ, so latency is
/// reported per class.
enum class QueryClass : int { kPoint = 0, kFanout = 1, kScan = 2 };
inline constexpr int kNumClasses = 3;
const char* ClassName(QueryClass cls);

/// What the single `?` of a short read binds to.
enum class ParamKind { kPerson, kPost, kComment };

struct ShortRead {
  int no;  ///< 1..7
  const char* sql;
  QueryClass cls;
  ParamKind param;
};

/// SQ1..SQ7 (`no` is 1-based).
const ShortRead& GetShortRead(int no);

/// The SQL with its `?` replaced by `param` (the Session and ad-hoc paths).
std::string SpliceParam(const ShortRead& q, int64_t param);

/// A uniform draw over the base dataset's id range for `kind` (appended
/// rows are never drawn, so the draw does not depend on append timing).
int64_t DrawParam(ParamKind kind, const idf::snb::SnbDataset& base,
                  idf::Random64& rng);

/// Every row of the five served tables — the base dataset plus each batch
/// committed through the service — with the answers to SQ1..SQ7 computed
/// directly from them.
class Oracle {
 public:
  /// `base` must outlive the oracle.
  explicit Oracle(const idf::snb::SnbDataset& base) : base_(base) {}

  /// Records a batch the service acknowledged. `table` is a served table
  /// name (person_knows_person, post or comment).
  void Append(const std::string& table, idf::RowVec rows);

  /// Compares a reply against the expected answer: the row multisets must
  /// match, and rows must follow the ORDER BY key order (ties in any
  /// order; under LIMIT any tied rows may fill the last places). Returns
  /// an empty string on a match, else a description of the mismatch.
  /// Not safe concurrent with Append.
  std::string Check(int query, int64_t param, const idf::RowVec& reply);

  /// Rows across the served tables (base + appended).
  uint64_t num_rows() const;

 private:
  using Posting = std::unordered_map<int64_t, std::vector<const idf::Row*>>;
  /// Rebuilds the lookup maps when rows were appended since the last build.
  void Reindex();

  const idf::snb::SnbDataset& base_;
  std::vector<idf::RowVec> knows_, posts_, comments_;
  uint64_t appended_rows_ = 0;
  uint64_t indexed_rows_ = UINT64_MAX;

  Posting person_by_id_, knows_by_p1_, post_by_id_, post_by_creator_,
      comment_by_id_, comment_by_reply_, forum_by_id_;
};

}  // namespace bench
