#include "oracle.h"

#include <bit>
#include <cmath>
#include <set>

#include "common/rng.h"

namespace perfbench {

using incsr::core::ScoredPair;
using incsr::graph::NodeId;

bool ScoresAgree(double served, double reference, double tolerance) {
  if (tolerance == 0.0) {
    return std::bit_cast<std::uint64_t>(served) ==
           std::bit_cast<std::uint64_t>(reference);
  }
  return std::fabs(served - reference) <= tolerance;
}

std::size_t CompareTopK(
    const std::vector<ScoredPair>& served,
    const std::vector<ScoredPair>& reference, double tolerance,
    const std::function<double(NodeId, NodeId)>& reference_score) {
  if (served.size() != reference.size()) return 1;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < served.size(); ++i) {
    const ScoredPair& s = served[i];
    const ScoredPair& r = reference[i];
    if (tolerance == 0.0) {
      if (s.a != r.a || s.b != r.b ||
          !ScoresAgree(s.score, r.score, 0.0)) {
        ++wrong;
      }
      continue;
    }
    if (!ScoresAgree(s.score, r.score, tolerance) ||
        !ScoresAgree(s.score, reference_score(s.a, s.b), tolerance)) {
      ++wrong;
    }
  }
  return wrong;
}

std::vector<NodeId> OracleRows(std::size_t nodes, std::size_t hot,
                               std::size_t uniform, std::uint64_t seed) {
  std::vector<NodeId> rows;
  std::set<NodeId> seen;
  for (std::size_t r = 0; r < std::min(hot, nodes); ++r) {
    rows.push_back(static_cast<NodeId>(r));
    seen.insert(static_cast<NodeId>(r));
  }
  incsr::Rng rng(seed);
  const std::size_t target = std::min(nodes, rows.size() + uniform);
  while (rows.size() < target) {
    const auto node = static_cast<NodeId>(rng.NextBounded(nodes));
    if (seen.insert(node).second) rows.push_back(node);
  }
  return rows;
}

}  // namespace perfbench
