// Correctness oracle of the repository benchmark: compares results the
// server sent over the wire against a reference replica that replayed
// the same applied batches (SimRankService::CreateReplica +
// ApplyReplicated). Tolerance 0 demands bitwise equality — the replica
// contract at ε = 0; a positive tolerance (the served store's
// sparse_max_error_bound) bounds |served − reference| per score.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/dynamic_simrank.h"
#include "graph/digraph.h"

namespace perfbench {

/// True when `served` matches `reference`: bit-identical for tolerance 0,
/// else within `tolerance` in absolute value.
bool ScoresAgree(double served, double reference, double tolerance);

/// Disagreements between a served top-k list and the reference one (0 =
/// agree). Tolerance 0: the lists must be identical, pairs and score
/// bits. Otherwise the lengths must match, the i-th scores must agree
/// within the tolerance (order statistics move by at most the per-entry
/// error), and every served pair's score must agree with the reference
/// score of that same pair.
std::size_t CompareTopK(
    const std::vector<incsr::core::ScoredPair>& served,
    const std::vector<incsr::core::ScoredPair>& reference, double tolerance,
    const std::function<double(incsr::graph::NodeId, incsr::graph::NodeId)>&
        reference_score);

/// Rows the oracle samples: the `hot` Zipf-hottest rows (ranks 0..hot−1,
/// rank r being node r) plus `uniform` distinct seeded uniform rows.
std::vector<incsr::graph::NodeId> OracleRows(std::size_t nodes,
                                             std::size_t hot,
                                             std::size_t uniform,
                                             std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
