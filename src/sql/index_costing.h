// Index-kind costing for secondary-index access paths (DESIGN.md §14).
// The indexed filter rule flattens a predicate into conjuncts and asks this
// layer two questions: which conjuncts a bitmap or range index could serve
// (CollectSecondaryProbeCandidates), and whether the cheapest such probe
// beats the vectorized scan (ChooseSecondaryProbe). Selectivity estimates
// come from the caller — the concrete index statistics live behind the
// IndexedRelationBase surface in indexed/ — so this file stays a pure
// planning helper the SQL layer can own.
#pragma once

#include <functional>
#include <vector>

#include "sql/expression.h"
#include "sql/logical_plan.h"
#include "types/schema.h"

namespace idf {

/// One candidate access path: the probe spec plus the ordinals (into the
/// caller's conjunct list) of the conjuncts the probe fully absorbs —
/// those conjuncts must NOT be re-applied as residual filters.
struct SecondaryProbeCandidate {
  SecondaryProbe probe;
  std::vector<size_t> consumed;
};

/// Extracts every candidate secondary-index access path from `conjuncts`.
/// `kind_of(col)` reports the secondary index kind available on a column
/// (kNone when unindexed). Equality and OR-of-equality (IN) conjuncts on a
/// bitmap column become key-set probes; comparison conjuncts on a range
/// column combine into at most one range probe per column (a BETWEEN's two
/// bounds merge, and redundant bounds tighten). Keys and bounds are cast
/// to the column's schema type; a conjunct whose literal does not cast
/// yields no candidate. `probe.selectivity` is left at 1.0 — the caller
/// fills it from index statistics before costing.
std::vector<SecondaryProbeCandidate> CollectSecondaryProbeCandidates(
    const std::vector<ExprPtr>& conjuncts, const Schema& schema,
    const std::function<SecondaryIndexKind(int)>& kind_of);

/// The costing rule: returns the index of the candidate with the lowest
/// estimated selectivity when that beats `max_selectivity`, or -1 when the
/// vectorized scan wins (every candidate too unselective, or none at all).
int ChooseSecondaryProbe(const std::vector<SecondaryProbeCandidate>& candidates,
                         double max_selectivity);

/// True when `v` (non-null) satisfies the probe's predicate: member of the
/// key set for a bitmap probe, inside the bounds for a range probe. Used
/// by the execution layer's full-scan fallback and by differential tests
/// as the reference semantics.
bool ProbeMatches(const SecondaryProbe& probe, const Value& v);

}  // namespace idf
