// Self-tests of the repository benchmark: seeded generators, the
// correctness oracle, and the measurement arithmetic. Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "measure.h"
#include "oracle.h"
#include "service/simrank_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace graph = incsr::graph;
using incsr::core::ScoredPair;

template <typename T>
bool SameBytes(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) ==
                           0);
}

std::vector<ReadOp> FirstReads(const Workload& w, std::uint64_t seed,
                               std::size_t reader, std::size_t count) {
  ReadSchedule schedule(w, seed, reader);
  std::vector<ReadOp> ops;
  for (std::size_t i = 0; i < count; ++i) ops.push_back(schedule.Next());
  return ops;
}

TEST(Generators, SameSeedGivesByteIdenticalInputs) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const auto base1 = BaseEdges(w, 7);
    const auto base2 = BaseEdges(w, 7);
    ASSERT_TRUE(base1.ok() && base2.ok());
    EXPECT_TRUE(SameBytes(*base1, *base2));
    const auto stream1 = UpdateStream(w, *base1, 7);
    const auto stream2 = UpdateStream(w, *base2, 7);
    ASSERT_TRUE(stream1.ok() && stream2.ok());
    EXPECT_FALSE(stream1->empty());
    EXPECT_TRUE(SameBytes(*stream1, *stream2));
    for (std::size_t r = 0; r < w.readers; ++r) {
      EXPECT_EQ(FirstReads(w, 7, r, 500), FirstReads(w, 7, r, 500));
    }
    if (w.writer == WriterKind::kOpenLoop) {
      EXPECT_EQ(WriterDueNs(w, 7, 3), WriterDueNs(w, 7, 3));
    }
  }
}

TEST(Generators, DifferentSeedsGiveDifferentInputs) {
  for (const Workload& w : Workloads()) {
    SCOPED_TRACE(w.name);
    const auto base1 = BaseEdges(w, 1);
    const auto base2 = BaseEdges(w, 2);
    ASSERT_TRUE(base1.ok() && base2.ok());
    const auto stream1 = UpdateStream(w, *base1, 1);
    const auto stream2 = UpdateStream(w, *base2, 2);
    ASSERT_TRUE(stream1.ok() && stream2.ok());
    EXPECT_FALSE(SameBytes(*stream1, *stream2));
    EXPECT_NE(FirstReads(w, 1, 0, 100), FirstReads(w, 2, 0, 100));
  }
}

TEST(Generators, ReadersGetIndependentSchedules) {
  const Workload& w = *FindWorkload("read-mostly");
  ASSERT_GE(w.readers, 2u);
  EXPECT_NE(FirstReads(w, 1, 0, 100), FirstReads(w, 1, 1, 100));
}

TEST(Generators, ReadScheduleHasTheOfferedRateAndMix) {
  const Workload& w = *FindWorkload("read-mostly");
  const std::vector<ReadOp> ops = FirstReads(w, 3, 0, 20000);
  const double per_reader = w.read_rate / static_cast<double>(w.readers);
  const double seconds = static_cast<double>(ops.back().due_ns) / 1e9;
  EXPECT_NEAR(static_cast<double>(ops.size()) / seconds, per_reader,
              0.05 * per_reader);
  const auto scores = std::count_if(ops.begin(), ops.end(),
                                    [](const ReadOp& op) { return op.score; });
  EXPECT_NEAR(static_cast<double>(scores) / static_cast<double>(ops.size()),
              w.score_share, 0.02);
  EXPECT_TRUE(std::is_sorted(
      ops.begin(), ops.end(),
      [](const ReadOp& x, const ReadOp& y) { return x.due_ns < y.due_ns; }));
  for (const ReadOp& op : ops) {
    ASSERT_LT(static_cast<std::size_t>(op.a), w.nodes);
    ASSERT_LT(static_cast<std::size_t>(op.b), w.nodes);
  }
}

TEST(Generators, ChurnStreamsUseDisjointSetsAndStayFlat) {
  for (const char* name : {"churn-dense", "read-mostly"}) {
    SCOPED_TRACE(name);
    const Workload& w = *FindWorkload(name);
    const auto base = BaseEdges(w, 5);
    ASSERT_TRUE(base.ok());
    ASSERT_EQ(base->size(), w.edges);
    const auto stream = UpdateStream(w, *base, 5);
    ASSERT_TRUE(stream.ok());
    ASSERT_EQ(stream->size(), 2 * base->size());
    std::set<std::uint64_t> base_keys;
    for (const graph::Edge& e : *base) {
      base_keys.insert(graph::EdgeKey(e.src, e.dst));
    }
    std::set<std::uint64_t> deleted, inserted;
    long long edge_delta = 0;
    for (std::size_t i = 0; i < stream->size(); ++i) {
      const graph::EdgeUpdate& u = (*stream)[i];
      const std::uint64_t key = graph::EdgeKey(u.src, u.dst);
      if (u.kind == graph::UpdateKind::kDelete) {
        EXPECT_TRUE(base_keys.count(key)) << "delete of a non-base edge";
        EXPECT_TRUE(deleted.insert(key).second) << "edge deleted twice";
        --edge_delta;
      } else {
        EXPECT_FALSE(base_keys.count(key)) << "insert of a base edge";
        EXPECT_NE(u.src, u.dst);
        EXPECT_TRUE(inserted.insert(key).second) << "edge inserted twice";
        ++edge_delta;
      }
      EXPECT_LE(std::abs(edge_delta), 1);  // 50/50, interleaved
    }
    for (std::uint64_t key : deleted) EXPECT_FALSE(inserted.count(key));
  }
}

TEST(Generators, ChurnStreamIsValidInAnyOrder) {
  const Workload& w = *FindWorkload("churn-dense");
  const auto base = BaseEdges(w, 9);
  ASSERT_TRUE(base.ok());
  auto stream = UpdateStream(w, *base, 9);
  ASSERT_TRUE(stream.ok());
  incsr::Rng rng(123);
  for (int round = 0; round < 3; ++round) {
    for (std::size_t k = stream->size(); k > 1; --k) {
      std::swap((*stream)[k - 1], (*stream)[rng.NextBounded(k)]);
    }
    graph::DynamicDiGraph g = BuildBaseGraph(w, *base);
    for (const graph::EdgeUpdate& u : *stream) {
      const incsr::Status applied = u.kind == graph::UpdateKind::kInsert
                                        ? g.AddEdge(u.src, u.dst)
                                        : g.RemoveEdge(u.src, u.dst);
      ASSERT_TRUE(applied.ok()) << graph::ToString(u);
    }
    EXPECT_EQ(g.num_edges(), base->size());
  }
}

TEST(Generators, CitationStreamIsDistinctInsertsOverIsolatedNodes) {
  const Workload& w = *FindWorkload("citation-sparse");
  const auto base = BaseEdges(w, 4);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(base->empty());
  const auto stream = UpdateStream(w, *base, 4);
  ASSERT_TRUE(stream.ok());
  ASSERT_EQ(stream->size(), w.fixed_updates);
  std::set<std::uint64_t> keys;
  for (const graph::EdgeUpdate& u : *stream) {
    EXPECT_EQ(u.kind, graph::UpdateKind::kInsert);
    EXPECT_LT(static_cast<std::size_t>(u.src), w.nodes);
    EXPECT_LT(static_cast<std::size_t>(u.dst), w.nodes);
    EXPECT_TRUE(keys.insert(graph::EdgeKey(u.src, u.dst)).second);
  }
}

TEST(Generators, OpenLoopWriterKeepsAFixedPeriod) {
  const Workload& w = *FindWorkload("read-mostly");
  const double period_ns = 1e9 / w.write_rate;
  EXPECT_LT(static_cast<double>(WriterDueNs(w, 2, 0)), period_ns);
  EXPECT_NEAR(static_cast<double>(WriterDueNs(w, 2, 10) - WriterDueNs(w, 2, 0)),
              10 * period_ns, 2.0);
}

TEST(Oracle, BitwiseComparisonCatchesOneUlp) {
  const double x = 0.123456789;
  EXPECT_TRUE(ScoresAgree(x, x, 0.0));
  EXPECT_FALSE(ScoresAgree(x, std::nextafter(x, 1.0), 0.0));
  EXPECT_FALSE(ScoresAgree(0.0, -0.0, 0.0));
  EXPECT_TRUE(ScoresAgree(x, x + 1e-9, 1e-8));
  EXPECT_FALSE(ScoresAgree(x, x + 1e-7, 1e-8));
}

TEST(Oracle, ReportsACorruptedReferenceValue) {
  const std::vector<ScoredPair> served = {{3, 1, 0.5}, {3, 7, 0.25},
                                          {3, 2, 0.125}};
  const auto exact = [&](graph::NodeId, graph::NodeId b) {
    for (const ScoredPair& p : served) {
      if (p.b == b) return p.score;
    }
    return 0.0;
  };
  EXPECT_EQ(CompareTopK(served, served, 0.0, exact), 0u);
  std::vector<ScoredPair> corrupted = served;
  corrupted[1].score = std::bit_cast<double>(
      std::bit_cast<std::uint64_t>(corrupted[1].score) ^ 1);
  EXPECT_EQ(CompareTopK(served, corrupted, 0.0, exact), 1u);
  corrupted = served;
  std::swap(corrupted[1].b, corrupted[2].b);
  EXPECT_EQ(CompareTopK(served, corrupted, 0.0, exact), 2u);
  corrupted = served;
  corrupted.pop_back();
  EXPECT_GT(CompareTopK(served, corrupted, 0.0, exact), 0u);
  // With a tolerance: within it passes, past it is reported.
  corrupted = served;
  corrupted[0].score += 1e-9;
  EXPECT_EQ(CompareTopK(served, corrupted, 1e-8, exact), 0u);
  corrupted[0].score += 1e-3;
  EXPECT_EQ(CompareTopK(served, corrupted, 1e-8, exact), 1u);
}

TEST(Oracle, ReplicaReplayMatchesThePrimaryAndCatchesCorruption) {
  const Workload& w = *FindWorkload("churn-dense");
  const auto base = BaseEdges(w, 2);
  ASSERT_TRUE(base.ok());
  const auto stream = UpdateStream(w, *base, 2);
  ASSERT_TRUE(stream.ok());
  incsr::simrank::SimRankOptions options;
  options.num_threads = 1;
  auto make = [&] {
    auto index = incsr::core::DynamicSimRank::Create(BuildBaseGraph(w, *base),
                                                     options);
    EXPECT_TRUE(index.ok());
    return std::move(*index);
  };
  auto primary = incsr::service::SimRankService::Create(make(), w.service);
  ASSERT_TRUE(primary.ok());
  std::vector<std::pair<std::uint64_t, std::vector<graph::EdgeUpdate>>> log;
  std::mutex mu;
  (*primary)->SetAppliedBatchListener(
      [&](std::uint64_t seq, const std::vector<graph::EdgeUpdate>& batch) {
        std::lock_guard<std::mutex> lock(mu);
        log.push_back({seq, batch});
      });
  const std::vector<graph::EdgeUpdate> prefix(stream->begin(),
                                              stream->begin() + 40);
  ASSERT_TRUE((*primary)->SubmitBatch(prefix).ok());
  ASSERT_TRUE((*primary)->Flush().ok());
  incsr::service::ServiceOptions replica_options = w.service;
  replica_options.cache_capacity = 0;
  replica_options.topk_index_capacity = 0;
  auto replica =
      incsr::service::SimRankService::CreateReplica(make(), replica_options);
  ASSERT_TRUE(replica.ok());
  for (const auto& [seq, batch] : log) {
    ASSERT_TRUE((*replica)->ApplyReplicated(seq, batch).ok());
  }
  const auto reference_score = [&](graph::NodeId a, graph::NodeId b) {
    return *(*replica)->Score(a, b);
  };
  for (graph::NodeId row : OracleRows(w.nodes, 4, 4, 11)) {
    auto served = (*primary)->TopKFor(row, w.topk);
    auto reference = (*replica)->TopKFor(row, w.topk);
    ASSERT_TRUE(served.ok() && reference.ok());
    EXPECT_EQ(CompareTopK(*served, *reference, 0.0, reference_score), 0u);
    std::vector<ScoredPair> corrupted = *reference;
    corrupted.back().score = std::nextafter(corrupted.back().score, 2.0);
    EXPECT_EQ(CompareTopK(*served, corrupted, 0.0, reference_score), 1u);
  }
}

TEST(Oracle, SampleHoldsHotRowsThenDistinctUniformRows) {
  const std::vector<graph::NodeId> rows = OracleRows(100, 5, 10, 3);
  ASSERT_EQ(rows.size(), 15u);
  for (graph::NodeId r = 0; r < 5; ++r) EXPECT_EQ(rows[r], r);
  EXPECT_EQ(std::set<graph::NodeId>(rows.begin(), rows.end()).size(), 15u);
  EXPECT_EQ(OracleRows(8, 5, 10, 3).size(), 8u);
  EXPECT_EQ(rows, OracleRows(100, 5, 10, 3));
}

TEST(Arithmetic, PercentileInterpolatesBetweenClosestRanks) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 50.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 99.01);
  EXPECT_DOUBLE_EQ(Percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Arithmetic, FailedPctIsFailuresOverAttempts) {
  EXPECT_DOUBLE_EQ(FailedPct(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(FailedPct(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(FailedPct(1, 200), 0.5);
  EXPECT_DOUBLE_EQ(FailedPct(200, 200), 100.0);
}

TEST(Arithmetic, RoundRateCountsEveryEpochAfterTheFirst) {
  const std::uint64_t s = 1'000'000'000;
  // 100 updates per epoch, one epoch per second, then a slow stretch: the
  // round's rate covers the slow stretch too. The first epoch only anchors
  // the timeline.
  std::vector<VisibleEvent> events;
  for (int i = 0; i <= 6; ++i) events.push_back({i * s, 100});
  events.push_back({16 * s, 100});
  EXPECT_DOUBLE_EQ(RoundRate(events, 100 * s), 700.0 / 16.0);
  // Epochs after the end of the round are ignored.
  EXPECT_DOUBLE_EQ(RoundRate(events, 6 * s), 100.0);
  EXPECT_DOUBLE_EQ(RoundRate(events, 6 * s + 1), 100.0);
  // Fewer than two epochs in the round give no rate.
  EXPECT_DOUBLE_EQ(RoundRate(events, s - 1), 0.0);
  EXPECT_DOUBLE_EQ(RoundRate({{s, 5}}, 3 * s), 0.0);
  EXPECT_DOUBLE_EQ(RoundRate({}, 3 * s), 0.0);
}

}  // namespace
}  // namespace perfbench
