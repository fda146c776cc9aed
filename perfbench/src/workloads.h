// Workload definitions and seeded input generators of the repository
// benchmark. Every input the program sees — base graph, update stream,
// read schedule — is derived here from the workload and the --seed value,
// so one seed always yields byte-identical inputs (perfbench_test checks
// it). See README.md for why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"
#include "service/simrank_service.h"

namespace perfbench {

enum class BaseKind {
  kErdosRenyi,  ///< uniform G(n, m), built with DynamicSimRank::Create
  kIsolated,    ///< n isolated nodes, built with DynamicSimRank::CreateIsolated
};

enum class StreamKind {
  /// 50/50 delete/insert churn over disjoint edge sets: deletes are base
  /// edges, inserts are non-edges, each edge appears once, so the edge
  /// count stays flat and the stream is valid in any order.
  kChurn,
  /// PreferentialCitation insert stream in arrival order (the paper's
  /// citation-growth shape) over an edgeless base.
  kCitation,
};

enum class WriterKind {
  /// One connection keeps about `window` updates submitted but not yet
  /// visible, sent as Submit RPCs of `submit_batch` updates.
  kWindowed,
  /// One connection sends `submit_batch` updates per RPC on a fixed
  /// period of submit_batch / write_rate seconds, regardless of replies.
  kOpenLoop,
};

struct Workload {
  std::string name;
  BaseKind base = BaseKind::kErdosRenyi;
  std::size_t nodes = 0;
  std::size_t edges = 0;  ///< base edges (kErdosRenyi only)
  StreamKind stream = StreamKind::kChurn;
  int kernel_threads = 1;
  incsr::service::ServiceOptions service;  ///< library defaults + overrides
  WriterKind writer = WriterKind::kWindowed;
  std::size_t submit_batch = 1;
  std::size_t window = 0;     ///< kWindowed: updates in flight
  double write_rate = 0.0;    ///< kOpenLoop: offered updates/s
  /// > 0: the ingest is fixed-work — exactly this many updates, however
  /// long they take (the read load runs at least --seconds and until the
  /// last one is visible). 0: the writer stops at --seconds.
  std::size_t fixed_updates = 0;
  std::size_t readers = 1;
  double read_rate = 0.0;     ///< offered reads/s, summed over readers
  double zipf_theta = 0.0;    ///< 0 = uniform read keys
  double score_share = 0.0;   ///< fraction of reads that are Score RPCs
  std::uint32_t topk = 10;
  /// Rounds per run. Each round sets the stack up afresh (setup_s is the
  /// median over rounds) and measures one window; a run reports each other
  /// end-to-end figure from its best round, so a round disturbed by the
  /// host is dropped whole.
  int rounds = 3;
};

/// The benchmark's workloads. BENCHMARK.json gates citation-sparse and
/// read-mostly; churn-dense is for per-layer analysis of the core kernels
/// and is not gated (README.md, "Workloads").
const std::vector<Workload>& Workloads();
/// nullptr when no workload has that name.
const Workload* FindWorkload(std::string_view name);

/// Seed derivation: one independent stream per input (base graph, update
/// stream, each reader's schedule, the writer's phase, the oracle's
/// sample), so changing one input's length never shifts another.
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream_id);
inline constexpr std::uint64_t kSeedBase = 1;
inline constexpr std::uint64_t kSeedStream = 2;
inline constexpr std::uint64_t kSeedWriter = 3;
inline constexpr std::uint64_t kSeedOracle = 4;
inline constexpr std::uint64_t kSeedReaderBase = 100;  // + reader index

/// Base edges of the workload (empty for kIsolated).
incsr::Result<std::vector<incsr::graph::Edge>> BaseEdges(const Workload& w,
                                                         std::uint64_t seed);

/// Materializes the base graph over w.nodes nodes.
incsr::graph::DynamicDiGraph BuildBaseGraph(
    const Workload& w, const std::vector<incsr::graph::Edge>& edges);

/// The full update stream (a writer sends a prefix of it). Churn streams
/// hold 2·|base| updates, citation streams w.fixed_updates.
incsr::Result<std::vector<incsr::graph::EdgeUpdate>> UpdateStream(
    const Workload& w, const std::vector<incsr::graph::Edge>& base,
    std::uint64_t seed);

/// Zipf(θ) sampler over ranks [0, n) — rank r is node r — by binary search
/// over a precomputed CDF; θ = 0 is uniform.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);
  std::size_t Next(incsr::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One scheduled read: due time (ns after the window start), kind and
/// keys. TopKFor reads use `a` only.
struct ReadOp {
  std::uint64_t due_ns = 0;
  bool score = false;
  incsr::graph::NodeId a = 0;
  incsr::graph::NodeId b = 0;
  bool operator==(const ReadOp&) const = default;
};

/// Lazy open-loop read schedule of one reader: Poisson arrivals at
/// read_rate / readers per second, keys and kinds drawn from the seed.
class ReadSchedule {
 public:
  ReadSchedule(const Workload& w, std::uint64_t seed, std::size_t reader);
  ReadOp Next();

 private:
  incsr::Rng rng_;
  ZipfSampler keys_;
  double mean_gap_ns_;
  double score_share_;
  double t_ns_ = 0.0;
};

/// Due time (ns after the window start) of the open-loop writer's RPC
/// number `i`: a fixed period with a seeded phase in [0, period).
std::uint64_t WriterDueNs(const Workload& w, std::uint64_t seed,
                          std::size_t i);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
