#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/generators.h"

namespace perfbench {

using incsr::Result;
using incsr::Rng;
using incsr::Status;
namespace graph = incsr::graph;

namespace {

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;

  Workload churn;
  churn.name = "churn-dense";
  churn.base = BaseKind::kErdosRenyi;
  churn.nodes = 400;
  churn.edges = 2400;
  churn.stream = StreamKind::kChurn;
  churn.kernel_threads = 1;
  churn.service.max_batch = 128;
  churn.writer = WriterKind::kWindowed;
  churn.submit_batch = 64;
  churn.window = 2 * churn.service.max_batch;
  churn.readers = 1;
  churn.read_rate = 2000.0;
  churn.zipf_theta = 0.0;
  churn.rounds = 5;
  out.push_back(churn);

  Workload citation;
  citation.name = "citation-sparse";
  citation.base = BaseKind::kIsolated;
  citation.nodes = 16384;
  citation.stream = StreamKind::kCitation;
  citation.kernel_threads = 2;
  citation.service.max_batch = 64;
  citation.service.sparse.enabled = true;
  citation.service.sparse.epsilon = 1e-5;
  citation.writer = WriterKind::kWindowed;
  citation.submit_batch = 64;
  citation.window = 2 * citation.service.max_batch;
  citation.fixed_updates = 3000;
  citation.readers = 1;
  citation.read_rate = 2000.0;
  citation.zipf_theta = 0.99;
  citation.rounds = 4;
  out.push_back(citation);

  Workload read;
  read.name = "read-mostly";
  read.base = BaseKind::kErdosRenyi;
  read.nodes = 1000;
  read.edges = 5000;
  read.stream = StreamKind::kChurn;
  read.kernel_threads = 1;
  read.writer = WriterKind::kOpenLoop;
  read.submit_batch = 1;
  read.write_rate = 1.5;
  read.readers = 2;
  read.read_rate = 10000.0;
  read.zipf_theta = 0.99;
  read.score_share = 0.1;
  read.rounds = 6;
  out.push_back(read);
  return out;
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream_id) {
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(stream_id + 0x5EED));
}

Result<std::vector<graph::Edge>> BaseEdges(const Workload& w,
                                           std::uint64_t seed) {
  std::vector<graph::Edge> edges;
  if (w.base == BaseKind::kIsolated) return edges;
  auto sampled =
      graph::ErdosRenyiGnm(w.nodes, w.edges, SubSeed(seed, kSeedBase));
  if (!sampled.ok()) return sampled.status();
  edges.reserve(sampled->size());
  for (const graph::TimestampedEdge& e : *sampled) edges.push_back(e.edge);
  return edges;
}

graph::DynamicDiGraph BuildBaseGraph(const Workload& w,
                                     const std::vector<graph::Edge>& edges) {
  graph::DynamicDiGraph g(w.nodes);
  for (const graph::Edge& e : edges) {
    INCSR_CHECK(g.AddEdge(e.src, e.dst).ok(), "duplicate base edge");
  }
  return g;
}

Result<std::vector<graph::EdgeUpdate>> UpdateStream(
    const Workload& w, const std::vector<graph::Edge>& base,
    std::uint64_t seed) {
  std::vector<graph::EdgeUpdate> stream;
  if (w.stream == StreamKind::kCitation) {
    incsr::graph::CitationModelParams params;
    params.num_nodes = w.nodes;
    params.seed = SubSeed(seed, kSeedStream);
    auto edges = graph::PreferentialCitation(params);
    if (!edges.ok()) return edges.status();
    if (edges->size() < w.fixed_updates) {
      return Status::InvalidArgument("citation stream shorter than the run");
    }
    stream.reserve(w.fixed_updates);
    for (std::size_t i = 0; i < w.fixed_updates; ++i) {
      const graph::Edge& e = (*edges)[i].edge;
      stream.push_back({graph::UpdateKind::kInsert, e.src, e.dst});
    }
    return stream;
  }
  // Churn: every base edge deleted once, as many distinct non-edges
  // inserted once, interleaved delete/insert.
  Rng rng(SubSeed(seed, kSeedStream));
  std::vector<graph::Edge> deletes = base;
  for (std::size_t k = deletes.size(); k > 1; --k) {
    std::swap(deletes[k - 1], deletes[rng.NextBounded(k)]);
  }
  std::unordered_set<std::uint64_t> used;
  for (const graph::Edge& e : base) used.insert(graph::EdgeKey(e.src, e.dst));
  if (w.nodes * (w.nodes - 1) < 2 * base.size()) {
    return Status::InvalidArgument("graph too dense for a churn stream");
  }
  std::vector<graph::Edge> inserts;
  inserts.reserve(base.size());
  while (inserts.size() < base.size()) {
    const auto src = static_cast<graph::NodeId>(rng.NextBounded(w.nodes));
    const auto dst = static_cast<graph::NodeId>(rng.NextBounded(w.nodes));
    if (src == dst || !used.insert(graph::EdgeKey(src, dst)).second) continue;
    inserts.push_back({src, dst});
  }
  stream.reserve(2 * base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    stream.push_back({graph::UpdateKind::kDelete, deletes[i].src,
                      deletes[i].dst});
    stream.push_back({graph::UpdateKind::kInsert, inserts[i].src,
                      inserts[i].dst});
  }
  return stream;
}

ZipfSampler::ZipfSampler(std::size_t n, double theta) : cdf_(n) {
  INCSR_CHECK(n > 0, "ZipfSampler needs n > 0");
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Next(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return it == cdf_.end() ? cdf_.size() - 1
                          : static_cast<std::size_t>(it - cdf_.begin());
}

ReadSchedule::ReadSchedule(const Workload& w, std::uint64_t seed,
                           std::size_t reader)
    : rng_(SubSeed(seed, kSeedReaderBase + reader)),
      keys_(w.nodes, w.zipf_theta),
      mean_gap_ns_(1e9 * static_cast<double>(w.readers) / w.read_rate),
      score_share_(w.score_share) {}

ReadOp ReadSchedule::Next() {
  // Exponential inter-arrival gaps: a Poisson stream of independent users.
  t_ns_ += -mean_gap_ns_ * std::log1p(-rng_.NextDouble());
  ReadOp op;
  op.due_ns = static_cast<std::uint64_t>(t_ns_);
  op.score = score_share_ > 0.0 && rng_.NextDouble() < score_share_;
  op.a = static_cast<graph::NodeId>(keys_.Next(&rng_));
  if (op.score) op.b = static_cast<graph::NodeId>(keys_.Next(&rng_));
  return op;
}

std::uint64_t WriterDueNs(const Workload& w, std::uint64_t seed,
                          std::size_t i) {
  const double period_ns =
      1e9 * static_cast<double>(w.submit_batch) / w.write_rate;
  Rng rng(SubSeed(seed, kSeedWriter));
  const double phase_ns = period_ns * rng.NextDouble();
  return static_cast<std::uint64_t>(phase_ns +
                                    period_ns * static_cast<double>(i));
}

}  // namespace perfbench
