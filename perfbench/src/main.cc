// perfbench — the repository benchmark (README.md in this directory).
//
// One run serves one workload end to end, in process: a
// service::SimRankService (library-default ServiceOptions plus the
// workload's overrides) behind a net::IncSrServer on loopback, driven
// through net::IncSrClient connections — one writer and up to two
// open-loop readers. After the timed window it checks the served results
// against a reference replica that replayed the same applied batches.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the program's
// tracer (obs::Tracer) over the window, records the benchmark's own spans
// around its calls into each layer, replays the captured batches through
// core::DynamicSimRank and la::ScoreStore with tracing off and on, and
// prints the per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The human-readable table goes to stderr.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-dir DIR]
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/scheduler.h"
#include "core/dynamic_simrank.h"
#include "measure.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "oracle.h"
#include "service/simrank_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = incsr::core;
namespace graph = incsr::graph;
namespace net = incsr::net;
namespace obs = incsr::obs;
namespace service = incsr::service;
using incsr::Result;
using incsr::Status;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-dir DIR]\n",
               error);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (FindWorkload(args.workload) == nullptr) Usage("unknown --workload");
  if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
  if (args.trace && args.trace_dir.empty()) {
    Usage("--trace 1 needs --trace-dir (trace files go only there)");
  }
  return args;
}

[[noreturn]] void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what, result.status());
  return std::move(*result);
}

/// Load threads sleep to the nanosecond: the default 50 µs timer slack
/// would otherwise show up as generator lateness.
void PreciseSleeps() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntilNs(std::uint64_t due_ns) {
  if (NowNs() >= due_ns) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(due_ns / 1000000000ULL);
  ts.tv_nsec = static_cast<long>(due_ns % 1000000000ULL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

core::DynamicSimRank BuildIndex(const Workload& w,
                                const std::vector<graph::Edge>& base) {
  incsr::simrank::SimRankOptions options;
  options.num_threads = w.kernel_threads;
  if (w.base == BaseKind::kIsolated) {
    return Unwrap(core::DynamicSimRank::CreateIsolated(w.nodes, options),
                  "DynamicSimRank::CreateIsolated");
  }
  return Unwrap(core::DynamicSimRank::Create(BuildBaseGraph(w, base), options),
                "DynamicSimRank::Create");
}

/// One served stack: service + server. Stops the server before the
/// service so no RPC reaches a stopped backend.
struct Deployment {
  std::unique_ptr<service::SimRankService> service;
  std::unique_ptr<net::IncSrServer> server;
  double setup_s = 0.0;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    if (server) server->Stop();
    if (service) service->Stop();
  }
};

net::IncSrClient Connect(const net::IncSrServer& server) {
  return Unwrap(net::IncSrClient::Connect(server.host(), server.port()),
                "connect");
}

/// Builds the stack from the already generated base edges and answers one
/// Ping; setup_s spans the base-graph build to the Ping's reply. The two
/// Create calls are recorded as spans. The Ping's connection is returned
/// in *client.
std::unique_ptr<Deployment> SetUp(const Workload& w,
                                  const std::vector<graph::Edge>& base,
                                  SpanRecorder* spans,
                                  std::unique_ptr<net::IncSrClient>* client) {
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;
  const std::uint64_t start_ns = NowNs();
  core::DynamicSimRank index = BuildIndex(w, base);
  std::uint64_t t = NowNs();
  spans->Record("setup.create_index", t - start_ns);
  d.service = Unwrap(service::SimRankService::Create(std::move(index),
                                                     w.service),
                     "SimRankService::Create");
  spans->Record("setup.create_service", NowNs() - t);
  d.server = Unwrap(net::IncSrServer::Serve(d.service.get()),
                    "IncSrServer::Serve");
  *client = std::make_unique<net::IncSrClient>(Connect(*d.server));
  const Status ping = (*client)->Ping();
  if (!ping.ok()) Fail("first request", ping);
  d.setup_s = static_cast<double>(NowNs() - start_ns) / 1e9;
  return deployment;
}

/// What the applied-batch listener captures: the epoch timeline and the
/// batches themselves (the oracle's and the replay's input).
struct Capture {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<VisibleEvent> events;
  std::vector<std::uint64_t> seqs;
  std::vector<std::vector<graph::EdgeUpdate>> batches;
  std::vector<double> callback_ns;
  std::uint64_t visible = 0;
};

/// Per-load-thread results (merged after the window).
struct LoadStats {
  std::vector<double> latency_us;  ///< from intended send to reply
  std::vector<double> rtt_ns;      ///< from actual send to reply
  std::vector<double> late_ns;     ///< actual send − intended send
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct WriterStats {
  LoadStats load;  ///< per Submit RPC (latency_us unused)
  std::size_t sent = 0;
  std::vector<std::uint64_t> intended_ns;  ///< per update, stream order
};

void RunReader(const Workload& w, std::uint64_t seed, std::size_t reader,
               net::IncSrClient* client, std::uint64_t start_ns,
               const std::atomic<std::uint64_t>* end_ns, LoadStats* out) {
  PreciseSleeps();
  ReadSchedule schedule(w, seed, reader);
  const double expected = w.read_rate / static_cast<double>(w.readers) *
                          (static_cast<double>(end_ns->load() - start_ns) /
                           1e9);
  if (expected < 1e8) {
    out->latency_us.reserve(static_cast<std::size_t>(expected * 1.2) + 64);
    out->rtt_ns.reserve(out->latency_us.capacity());
    out->late_ns.reserve(out->latency_us.capacity());
  }
  for (;;) {
    const ReadOp op = schedule.Next();
    const std::uint64_t due = start_ns + op.due_ns;
    if (due >= end_ns->load(std::memory_order_acquire)) break;
    SleepUntilNs(due);
    const std::uint64_t sent = NowNs();
    bool ok;
    if (op.score) {
      ok = client->Score(op.a, op.b).ok();
    } else {
      ok = client->TopKFor(op.a, w.topk).ok();
    }
    const std::uint64_t done = NowNs();
    ++out->attempted;
    if (!ok) ++out->failed;
    out->latency_us.push_back(static_cast<double>(done - due) / 1e3);
    out->rtt_ns.push_back(static_cast<double>(done - sent));
    out->late_ns.push_back(static_cast<double>(sent - due));
  }
}

/// Sends stream[first, first+count) in one Submit RPC due at `due_ns`.
void SubmitChunk(net::IncSrClient* client,
                 const std::vector<graph::EdgeUpdate>& stream,
                 std::size_t first, std::size_t count, std::uint64_t due_ns,
                 WriterStats* out) {
  const std::vector<graph::EdgeUpdate> chunk(
      stream.begin() + static_cast<std::ptrdiff_t>(first),
      stream.begin() + static_cast<std::ptrdiff_t>(first + count));
  const std::uint64_t sent = NowNs();
  for (std::size_t i = 0; i < count; ++i) out->intended_ns[first + i] = due_ns;
  auto response = client->Submit(chunk);
  const std::uint64_t done = NowNs();
  out->load.attempted += count;
  if (!response.ok()) {
    out->load.failed += count;
  } else if (response->accepted < count) {
    out->load.failed += count - response->accepted;
  }
  out->load.rtt_ns.push_back(static_cast<double>(done - sent));
  out->load.late_ns.push_back(static_cast<double>(sent - due_ns));
  out->sent = first + count;
}

/// Windowed closed-loop writer: keeps about w.window updates submitted
/// but not yet visible. Stops at `stop_ns` unless the ingest is
/// fixed-work, in which case it sends exactly `limit` updates. Refused
/// updates are counted once, client side (out->load.failed); the service's
/// `failed` counter adds accepted updates it skipped as invalid.
void RunWindowedWriter(const Workload& w,
                       const std::vector<graph::EdgeUpdate>& stream,
                       std::size_t limit, net::IncSrClient* client,
                       service::SimRankService* svc, Capture* capture,
                       std::uint64_t stop_ns, WriterStats* out) {
  PreciseSleeps();
  std::uint64_t skipped = 0;  // accepted, then skipped as invalid
  while (out->sent < limit) {
    if (w.fixed_updates == 0 && NowNs() >= stop_ns) break;
    const std::size_t count = std::min(w.submit_batch, limit - out->sent);
    bool room;
    {
      std::unique_lock<std::mutex> lock(capture->mu);
      room = capture->cv.wait_for(
          lock, std::chrono::milliseconds(20), [&] {
            return out->sent + count <=
                   capture->visible + skipped + out->load.failed +
                       w.window;
          });
    }
    if (!room) {
      skipped = svc->stats().failed;
      continue;
    }
    SubmitChunk(client, stream, out->sent, count, NowNs(), out);
  }
}

/// Open-loop writer: one RPC per period, due times from the seed.
void RunOpenLoopWriter(const Workload& w, std::uint64_t seed,
                       const std::vector<graph::EdgeUpdate>& stream,
                       net::IncSrClient* client, std::uint64_t start_ns,
                       std::uint64_t stop_ns, WriterStats* out) {
  PreciseSleeps();
  for (std::size_t rpc = 0;; ++rpc) {
    const std::size_t first = rpc * w.submit_batch;
    if (first >= stream.size()) break;
    const std::uint64_t due = start_ns + WriterDueNs(w, seed, rpc);
    if (due >= stop_ns) break;
    SleepUntilNs(due);
    const std::size_t count = std::min(w.submit_batch, stream.size() - first);
    SubmitChunk(client, stream, first, count, due, out);
  }
}

/// Waits until `target` updates are visible or accounted as lost: refused
/// (`client_failed`, counted client side) or skipped by the service.
void WaitVisible(service::SimRankService* svc, Capture* capture,
                 std::uint64_t target, std::uint64_t client_failed) {
  for (;;) {
    const std::uint64_t lost = svc->stats().failed + client_failed;
    std::unique_lock<std::mutex> lock(capture->mu);
    if (capture->visible + lost >= target) return;
    capture->cv.wait_for(lock, std::chrono::milliseconds(20));
  }
}

// ---- Metrics output -------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::fprintf(stderr, "\n%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-28s %16.4f  %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

// ---- Oracle ---------------------------------------------------------------

struct OracleReport {
  std::size_t checked = 0;
  std::size_t wrong = 0;
  bool ran = false;
};

/// Replays the captured batches into a reference replica (tiering off,
/// so it holds the exact incremental S) and compares sampled rows served
/// over the wire against it. Runs after the timed window.
OracleReport RunOracle(const Workload& w, std::uint64_t seed,
                       const std::vector<graph::Edge>& base,
                       const Capture& capture, double tolerance,
                       net::IncSrClient* client) {
  OracleReport report;
  service::ServiceOptions options = w.service;
  options.sparse = service::SparsityPolicy{};
  options.cache_capacity = 0;
  options.topk_index_capacity = 0;
  auto replica = Unwrap(
      service::SimRankService::CreateReplica(BuildIndex(w, base), options),
      "SimRankService::CreateReplica");
  for (std::size_t i = 0; i < capture.batches.size(); ++i) {
    const Status applied =
        replica->ApplyReplicated(capture.seqs[i], capture.batches[i]);
    if (!applied.ok()) {
      std::fprintf(stderr, "oracle: replay of epoch %llu failed: %s\n",
                   static_cast<unsigned long long>(capture.seqs[i]),
                   applied.ToString().c_str());
      ++report.wrong;
      return report;
    }
  }
  const auto reference_score = [&](graph::NodeId a, graph::NodeId b) {
    auto s = replica->Score(a, b);
    return s.ok() ? *s : -1.0;
  };
  const std::vector<graph::NodeId> rows =
      OracleRows(w.nodes, 32, 32, SubSeed(seed, kSeedOracle));
  incsr::Rng rng(SubSeed(seed, kSeedOracle) + 1);
  for (graph::NodeId row : rows) {
    auto served = client->TopKFor(row, w.topk);
    auto reference = replica->TopKFor(row, w.topk);
    report.checked += 1;
    if (!served.ok() || !reference.ok()) {
      ++report.wrong;
      continue;
    }
    report.wrong += CompareTopK(*served, *reference, tolerance,
                                reference_score) > 0
                        ? 1
                        : 0;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    for (const core::ScoredPair& p : *served) pairs.push_back({p.a, p.b});
    for (int extra = 0; extra < 2; ++extra) {
      pairs.push_back(
          {row, static_cast<graph::NodeId>(rng.NextBounded(w.nodes))});
    }
    for (const auto& [a, b] : pairs) {
      auto s = client->Score(a, b);
      report.checked += 1;
      if (!s.ok() || !ScoresAgree(*s, reference_score(a, b), tolerance)) {
        ++report.wrong;
      }
    }
  }
  report.ran = true;
  return report;
}

// ---- Replay (trace mode) --------------------------------------------------

/// Replays the captured batches straight into the core and la layers —
/// ApplyBatchCoalesced per batch, then ScoreStore::Publish, holding the
/// previous epoch's view until the next publish as the service does — on
/// two indexes in lockstep, the second with the tracer on. Alternating
/// which goes first per batch puts both under the same host conditions,
/// so their difference is the tracing overhead. The times are recorded as
/// spans core.replay_apply and la.store_publish, with a ".traced" suffix
/// for the traced index.
void ReplayPlainAndTraced(const Workload& w,
                          const std::vector<graph::Edge>& base,
                          const Capture& capture,
                          const std::string& trace_path, SpanRecorder* spans) {
  core::DynamicSimRank index[2] = {BuildIndex(w, base), BuildIndex(w, base)};
  incsr::la::ScoreStore::View held[2] = {
      index[0].mutable_score_store()->Publish(),
      index[1].mutable_score_store()->Publish()};
  for (std::size_t k = 0; k < capture.batches.size(); ++k) {
    for (int step = 0; step < 2; ++step) {
      const int side = (static_cast<int>(k) + step) % 2;  // 1 = traced
      if (side == 1) {
        const Status started = obs::Tracer::Instance().Start(trace_path);
        if (!started.ok()) Fail("Tracer::Start", started);
      }
      std::uint64_t t = NowNs();
      const Status applied =
          index[side].ApplyBatchCoalesced(capture.batches[k]);
      if (!applied.ok()) Fail("replay ApplyBatchCoalesced", applied);
      const std::uint64_t apply = NowNs() - t;
      t = NowNs();
      held[side] = index[side].mutable_score_store()->Publish();
      const std::uint64_t publish = NowNs() - t;
      if (side == 1) obs::Tracer::Instance().Stop();
      const char* suffix = side == 1 ? ".traced" : "";
      spans->Record(std::string("core.replay_apply") + suffix, apply);
      spans->Record(std::string("la.store_publish") + suffix, publish);
    }
  }
}

std::vector<Metric> PhaseMetrics(const obs::TraceSummary& summary) {
  const auto total_ms = [&](obs::EventId id) {
    auto it = summary.spans.find(static_cast<std::uint16_t>(id));
    return it == summary.spans.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e6;
  };
  return {
      {"core.seed_ms", total_ms(obs::EventId::kKernelSeed), "ms"},
      {"core.expand_ms", total_ms(obs::EventId::kKernelExpand), "ms"},
      {"core.scatter_ms", total_ms(obs::EventId::kKernelScatter), "ms"},
      {"core.kernel_apply_ms", total_ms(obs::EventId::kKernelApply), "ms"},
      {"service.batch_apply_ms", total_ms(obs::EventId::kBatchApply), "ms"},
      {"service.publish_ms", total_ms(obs::EventId::kPublish), "ms"},
      {"service.rerank_ms", total_ms(obs::EventId::kRerank), "ms"},
      {"service.tier_policy_ms", total_ms(obs::EventId::kTierPolicy), "ms"},
      {"graph.snapshot_ms", total_ms(obs::EventId::kGraphSnapshot), "ms"},
      {"sched.region_ms", total_ms(obs::EventId::kSchedRegion), "ms"},
  };
}

/// The applier's phase split from the program's own spans, as shares of
/// batch.apply, plus the scheduler's inline/parallel region mix.
void PrintSplit(const obs::TraceSummary& summary,
                const incsr::SchedulerStats& after,
                const incsr::SchedulerStats& before) {
  const auto span_ns = [&](obs::EventId id) {
    auto it = summary.spans.find(static_cast<std::uint16_t>(id));
    return it == summary.spans.end() ? 0.0
                                     : static_cast<double>(it->second.total_ns);
  };
  const double batch = span_ns(obs::EventId::kBatchApply);
  std::fprintf(stderr, "\napplier split (share of batch.apply = %.1f ms; "
                       "trace wall %.1f ms)\n",
               batch / 1e6, static_cast<double>(summary.wall_ns) / 1e6);
  for (obs::EventId id :
       {obs::EventId::kCoalesce, obs::EventId::kKernelApply,
        obs::EventId::kKernelSeed, obs::EventId::kKernelExpand,
        obs::EventId::kKernelScatter, obs::EventId::kPublish,
        obs::EventId::kTierPolicy, obs::EventId::kGraphSnapshot,
        obs::EventId::kStorePublish, obs::EventId::kRerank,
        obs::EventId::kCacheInvalidate}) {
    const double ns = span_ns(id);
    std::fprintf(stderr, "  %-28s %12.1f ms  %6.1f %%\n", obs::EventName(id),
                 ns / 1e6, batch > 0.0 ? 100.0 * ns / batch : 0.0);
  }
  const double kernel = span_ns(obs::EventId::kKernelApply);
  std::fprintf(stderr, "  kernel.apply / trace wall      %6.1f %%\n",
               summary.wall_ns > 0
                   ? 100.0 * kernel / static_cast<double>(summary.wall_ns)
                   : 0.0);
  for (const auto& [id, stat] : summary.counters) {
    std::fprintf(stderr, "  counter %-20s %12llu events\n",
                 obs::EventName(static_cast<obs::EventId>(id)),
                 static_cast<unsigned long long>(stat.count));
  }
  const std::uint64_t regions = after.regions - before.regions;
  const std::uint64_t parallel =
      after.regions_parallel - before.regions_parallel;
  std::fprintf(stderr,
               "  sched regions %llu: %llu parallel, %llu inline; %llu "
               "steals\n",
               static_cast<unsigned long long>(regions),
               static_cast<unsigned long long>(parallel),
               static_cast<unsigned long long>(regions - parallel),
               static_cast<unsigned long long>(after.steals - before.steals));
}

/// The benchmark's own spans around its calls into each layer.
void PrintSpans(const SpanRecorder& spans) {
  std::fprintf(stderr, "\nbenchmark spans (calls into each layer)\n");
  for (const auto& [name, span] : spans.Snapshot()) {
    std::fprintf(stderr,
                 "  %-28s %8llu calls %12.2f ms  p50 %10.1f us  p99 %10.1f "
                 "us\n",
                 name.c_str(), static_cast<unsigned long long>(span.count),
                 static_cast<double>(span.total_ns) / 1e6,
                 Percentile(span.samples_ns, 0.5) / 1e3,
                 Percentile(span.samples_ns, 0.99) / 1e3);
  }
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Append(std::vector<double>* into, const std::vector<double>& from) {
  into->insert(into->end(), from.begin(), from.end());
}

double HistPercentileMs(const obs::HistogramSnapshot& h, double q) {
  return h.Percentile(q) / 1e6;
}

/// One round: a fresh set-up and one timed window over it. Members are
/// destroyed in reverse order, so the clients close first, then the stack
/// stops, and the capture its listener writes to goes last.
struct Round {
  std::unique_ptr<Capture> capture = std::make_unique<Capture>();
  std::unique_ptr<Deployment> d;
  std::unique_ptr<net::IncSrClient> writer_client;
  std::vector<std::unique_ptr<net::IncSrClient>> reader_clients;
  WriterStats writer;
  std::vector<LoadStats> readers;
  std::uint64_t ingest_end_ns = 0;
  service::ServiceStats stats0, stats1;
  net::ServerStats server0, server1;
  incsr::SchedulerStats sched0, sched1;
};

/// Sets the stack up, then drives it for one window: --seconds / rounds
/// for fixed-time workloads; for fixed-work ones, until the last update
/// is visible (and at least that long). Traces the window when
/// `trace_path` is not empty.
std::unique_ptr<Round> RunRound(const Workload& w, const Args& args,
                                const std::vector<graph::Edge>& base,
                                const std::vector<graph::EdgeUpdate>& stream,
                                SpanRecorder* spans,
                                const std::string& trace_path) {
  auto round = std::make_unique<Round>();
  round->d = SetUp(w, base, spans, &round->writer_client);
  service::SimRankService* svc = round->d->service.get();
  Capture* capture = round->capture.get();
  // Replaces the server's replication listener (replication is not part
  // of this benchmark); registered before the first update.
  svc->SetAppliedBatchListener(
      [capture](std::uint64_t seq,
                const std::vector<graph::EdgeUpdate>& batch) {
        const std::uint64_t now = NowNs();
        std::lock_guard<std::mutex> lock(capture->mu);
        capture->events.push_back({now, batch.size()});
        capture->seqs.push_back(seq);
        capture->batches.push_back(batch);
        capture->visible += batch.size();
        capture->callback_ns.push_back(static_cast<double>(NowNs() - now));
        capture->cv.notify_all();
      });
  for (std::size_t r = 0; r < w.readers; ++r) {
    round->reader_clients.push_back(
        std::make_unique<net::IncSrClient>(Connect(*round->d->server)));
  }

  round->stats0 = svc->stats();
  round->server0 = round->d->server->stats();
  round->sched0 = incsr::Scheduler::Global().stats();
  if (!trace_path.empty()) {
    const Status started = obs::Tracer::Instance().Start(trace_path);
    if (!started.ok()) Fail("Tracer::Start", started);
  }
  const std::uint64_t start_ns = NowNs() + 20'000'000;
  const auto window_ns =
      static_cast<std::uint64_t>(args.seconds * 1e9 / w.rounds);
  const std::uint64_t stop_ns = start_ns + window_ns;
  std::atomic<std::uint64_t> reader_end_ns(
      w.fixed_updates > 0 ? ~std::uint64_t{0} : stop_ns);
  const std::size_t limit =
      w.fixed_updates > 0 ? std::min(w.fixed_updates, stream.size())
                          : stream.size();
  WriterStats& writer = round->writer;
  writer.intended_ns.assign(stream.size(), 0);
  round->readers.resize(w.readers);
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < w.readers; ++r) {
    threads.emplace_back(RunReader, std::cref(w), args.seed, r,
                         round->reader_clients[r].get(), start_ns,
                         &reader_end_ns, &round->readers[r]);
  }
  std::thread writer_thread([&] {
    SleepUntilNs(start_ns);
    if (w.writer == WriterKind::kWindowed) {
      RunWindowedWriter(w, stream, limit, round->writer_client.get(), svc,
                        capture, stop_ns, &writer);
    } else {
      RunOpenLoopWriter(w, args.seed, stream, round->writer_client.get(),
                        start_ns, stop_ns, &writer);
    }
  });
  writer_thread.join();
  if (w.fixed_updates > 0) {
    WaitVisible(svc, capture, writer.sent, writer.load.failed);
    reader_end_ns.store(std::max(stop_ns, NowNs()), std::memory_order_release);
  }
  round->ingest_end_ns = w.fixed_updates > 0 ? NowNs() : stop_ns;
  for (std::thread& t : threads) t.join();
  // End-of-window barrier in process, after the readers stopped: a Flush
  // RPC is served inside the server's poll loop and would stall every
  // connection.
  const Status flushed = svc->Flush();
  if (!flushed.ok()) Fail("Flush", flushed);
  round->stats1 = svc->stats();
  round->server1 = round->d->server->stats();
  round->sched1 = incsr::Scheduler::Global().stats();
  if (!trace_path.empty()) obs::Tracer::Instance().Stop();
  return round;
}

/// Per update, ms from its intended send time until the epoch holding it
/// was visible. Stream edges are distinct, so an edge key names one update.
std::vector<double> VisibleLatencies(
    const Round& round, const std::vector<graph::EdgeUpdate>& stream) {
  std::unordered_map<std::uint64_t, std::size_t> position;
  for (std::size_t i = 0; i < round.writer.sent; ++i) {
    position[graph::EdgeKey(stream[i].src, stream[i].dst)] = i;
  }
  std::vector<double> out;
  const Capture& capture = *round.capture;
  for (std::size_t e = 0; e < capture.batches.size(); ++e) {
    for (const graph::EdgeUpdate& u : capture.batches[e]) {
      auto it = position.find(graph::EdgeKey(u.src, u.dst));
      if (it == position.end()) continue;
      const std::uint64_t intended = round.writer.intended_ns[it->second];
      out.push_back(static_cast<double>(capture.events[e].ns - intended) /
                    1e6);
    }
  }
  return out;
}

/// The end-to-end figures of one round, each over all of the round's
/// samples. The read tail (p90, p99) is printed, not reported: on a shared
/// host it follows the host more than the program (README.md, "Noise").
struct RoundFigures {
  double ingest_ups = 0.0;
  double visible_p50_ms = 0.0;
  double visible_p99_ms = 0.0;
  double query_p50_us = 0.0;
  double query_p90_us = 0.0;
  double query_p99_us = 0.0;
};

int Run(const Args& args) {
  const Workload& w = *FindWorkload(args.workload);
  const std::vector<graph::Edge> base =
      Unwrap(BaseEdges(w, args.seed), "base graph");
  const std::vector<graph::EdgeUpdate> stream =
      Unwrap(UpdateStream(w, base, args.seed), "update stream");
  SpanRecorder spans(args.trace);
  const std::string live_trace = args.trace_dir + "/live.trace";

  // ---- Rounds: each sets up afresh and measures one window. ---------------
  std::vector<double> setup_s;
  std::vector<RoundFigures> figures;
  std::vector<double> late_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t sent = 0;
  std::size_t visible_updates = 0;
  std::size_t reads = 0;
  double peak_rss_mb = 0.0;  // the first round's: later rounds reuse a
                             // fragmented heap
  std::unique_ptr<Round> last;
  for (int i = 0; i < w.rounds; ++i) {
    last.reset();  // tear the previous round's stack down first
    const bool traced = args.trace && i + 1 == w.rounds;
    last = RunRound(w, args, base, stream, &spans,
                    traced ? live_trace : std::string());
    const Round& round = *last;
    setup_s.push_back(round.d->setup_s);
    if (i == 0) peak_rss_mb = PeakRssMb();
    const std::vector<double> visible = VisibleLatencies(round, stream);
    std::vector<double> query_us;
    for (const LoadStats& r : round.readers) {
      Append(&query_us, r.latency_us);
      Append(&late_ns, r.late_ns);
      attempted += r.attempted;
      failed += r.failed;
    }
    figures.push_back({RoundRate(round.capture->events, round.ingest_end_ns),
                       Percentile(visible, 0.50), Percentile(visible, 0.99),
                       Percentile(query_us, 0.50), Percentile(query_us, 0.90),
                       Percentile(query_us, 0.99)});
    Append(&late_ns, round.writer.load.late_ns);
    sent += round.writer.sent;
    visible_updates += visible.size();
    reads += query_us.size();
    attempted += round.writer.load.attempted;
    failed += round.writer.load.failed +
              (round.stats1.failed - round.stats0.failed);
  }
  obs::TraceSummary summary;
  if (args.trace) {
    auto file = obs::ReadTraceFile(live_trace);
    if (!file.ok()) Fail("ReadTraceFile", file.status());
    summary = obs::Summarize(*file);
  }
  const Round& round = *last;
  const Capture& capture = *round.capture;
  const WriterStats& writer = round.writer;
  const service::ServiceStats& stats0 = round.stats0;
  const service::ServiceStats& stats1 = round.stats1;
  const net::ServerStats& server0 = round.server0;
  const net::ServerStats& server1 = round.server1;
  const incsr::SchedulerStats& sched0 = round.sched0;
  const incsr::SchedulerStats& sched1 = round.sched1;

  // ---- Correctness. ---------------------------------------------------------
  const double tolerance =
      w.service.sparse.enabled ? stats1.sparse_max_error_bound : 0.0;
  const OracleReport oracle = RunOracle(w, args.seed, base, capture, tolerance,
                                        round.writer_client.get());
  const bool correct = oracle.ran && oracle.wrong == 0;

  std::fprintf(stderr,
               "perfbench %s seed=%llu: %d rounds, %zu updates sent, %zu "
               "made visible, %zu reads; oracle checked %zu results of the "
               "last round, %zu wrong (tolerance %.3g); failed %.4f%% of %llu "
               "operations\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               w.rounds, sent, visible_updates, reads, oracle.checked,
               oracle.wrong, tolerance, FailedPct(failed, attempted),
               static_cast<unsigned long long>(attempted));

  if (!args.trace) {
    // Each figure comes from the best round for it: a disturbed round is
    // dropped whole (README.md, "Noise").
    const auto best = [&](double RoundFigures::*field, bool higher) {
      double v = figures.front().*field;
      for (const RoundFigures& f : figures) {
        v = higher ? std::max(v, f.*field) : std::min(v, f.*field);
      }
      return v;
    };
    for (std::size_t i = 0; i < figures.size(); ++i) {
      const RoundFigures& f = figures[i];
      std::fprintf(stderr,
                   "round %zu: ingest %.1f/s, visible p50 %.1f p99 %.1f ms, "
                   "query p50 %.1f p90 %.1f p99 %.1f us\n",
                   i, f.ingest_ups, f.visible_p50_ms, f.visible_p99_ms,
                   f.query_p50_us, f.query_p90_us, f.query_p99_us);
    }
    const std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ingest_ups", best(&RoundFigures::ingest_ups, true), "1/s"},
        {"visible_p50_ms", best(&RoundFigures::visible_p50_ms, false), "ms"},
        {"visible_p99_ms", best(&RoundFigures::visible_p99_ms, false), "ms"},
        {"query_p50_us", best(&RoundFigures::query_p50_us, false), "us"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    PrintTable("end-to-end (" + w.name + ")", metrics);
    std::fprintf(stderr, "  %-28s %16.4f  %%\n  %-28s %16zu  count\n",
                 "failed_pct", FailedPct(failed, attempted), "wrong_results",
                 oracle.wrong);
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // ---- Per-layer (trace mode). ----------------------------------------------
  // Stop the served stack; the capture and the counters stay.
  last->reader_clients.clear();
  last->writer_client.reset();
  last->d.reset();
  // Client round trips of the traced (last) round, beside its rpc spans.
  std::vector<double> client_rtt_ns = writer.load.rtt_ns;
  for (const LoadStats& r : round.readers) Append(&client_rtt_ns, r.rtt_ns);
  spans.RecordAll("net.client_rpc", client_rtt_ns);
  spans.RecordAll("service.listener_callback", capture.callback_ns);
  ReplayPlainAndTraced(w, base, capture, args.trace_dir + "/replay.trace",
                       &spans);
  const std::map<std::string, SpanRecorder::Span> recorded = spans.Snapshot();
  const auto span_ms = [&](const std::string& name) {
    auto it = recorded.find(name);
    return it == recorded.end()
               ? 0.0
               : static_cast<double>(it->second.total_ns) / 1e6;
  };
  const auto median_span_s = [&](const std::string& name) {
    auto it = recorded.find(name);
    return it == recorded.end() ? 0.0 : Median(it->second.samples_ns) / 1e9;
  };
  const double replay_ms =
      span_ms("core.replay_apply") + span_ms("la.store_publish");
  const double replay_traced_ms = span_ms("core.replay_apply.traced") +
                                  span_ms("la.store_publish.traced");

  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const std::uint64_t hits = stats1.cache.hits - stats0.cache.hits;
  const std::uint64_t misses = stats1.cache.misses - stats0.cache.misses;
  const std::uint64_t batches = stats1.batches - stats0.batches;
  const auto rpc = summary.spans.find(
      static_cast<std::uint16_t>(obs::EventId::kRpc));
  const double rpc_server_us =
      rpc == summary.spans.end() || rpc->second.count == 0
          ? 0.0
          : static_cast<double>(rpc->second.total_ns) /
                static_cast<double>(rpc->second.count) / 1e3;
  const double n = static_cast<double>(w.nodes);

  std::vector<Metric> metrics = PhaseMetrics(summary);
  const std::vector<Metric> rest = {
      {"core.replay_apply_ms", span_ms("core.replay_apply"), "ms"},
      {"service.rows_reranked",
       delta(stats1.topk_index_rows_reranked, stats0.topk_index_rows_reranked),
       "count"},
      {"service.build_s", median_span_s("setup.create_service"), "s"},
      {"service.topk_index_fallbacks",
       delta(stats1.topk_index_fallbacks, stats0.topk_index_fallbacks),
       "count"},
      {"service.cache_hit_rate",
       hits + misses == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(hits + misses),
       "ratio"},
      {"service.apply_p50_ms", HistPercentileMs(stats1.apply_ns, 0.50), "ms"},
      {"service.apply_p99_ms", HistPercentileMs(stats1.apply_ns, 0.99), "ms"},
      {"service.queue_wait_p99_ms",
       HistPercentileMs(stats1.queue_wait_ns, 0.99), "ms"},
      {"service.updates_per_batch",
       batches == 0 ? 0.0
                    : delta(stats1.applied, stats0.applied) /
                          static_cast<double>(batches),
       "count"},
      {"la.store_publish_ms", span_ms("la.store_publish"), "ms"},
      {"la.rows_cow", delta(stats1.rows_published, stats0.rows_published),
       "count"},
      {"la.bytes_cow", delta(stats1.bytes_published, stats0.bytes_published),
       "B"},
      {"la.sparse_write_merges",
       delta(stats1.sparse_write_merges, stats0.sparse_write_merges),
       "count"},
      {"la.rows_spilled_dense",
       delta(stats1.rows_spilled_dense, stats0.rows_spilled_dense), "count"},
      {"la.resident_mb",
       (n * n * 8.0 - static_cast<double>(stats1.bytes_saved)) /
           (1024.0 * 1024.0),
       "MiB"},
      {"sched.regions", delta(sched1.regions, sched0.regions), "count"},
      {"sched.regions_parallel",
       delta(sched1.regions_parallel, sched0.regions_parallel), "count"},
      {"sched.steals", delta(sched1.steals, sched0.steals), "count"},
      {"sched.tickets_dropped",
       delta(sched1.tickets_dropped, sched0.tickets_dropped), "count"},
      {"graph.bytes_copied",
       delta(stats1.graph_bytes_copied, stats0.graph_bytes_copied), "B"},
      {"simrank.build_s", median_span_s("setup.create_index"), "s"},
      {"net.submit_rpc_p99_us", Percentile(writer.load.rtt_ns, 0.99) / 1e3,
       "us"},
      {"net.rpc_server_us", rpc_server_us, "us"},
      {"net.loop_wait_us", Mean(client_rtt_ns) / 1e3 - rpc_server_us, "us"},
      {"net.requests_served",
       delta(server1.requests_served, server0.requests_served), "count"},
      {"net.protocol_errors",
       delta(server1.protocol_errors, server0.protocol_errors), "count"},
      {"obs.trace_overhead_pct",
       replay_ms > 0.0 ? 100.0 * (replay_traced_ms - replay_ms) / replay_ms
                       : 0.0,
       "%"},
      {"obs.events_dropped", static_cast<double>(summary.total_dropped),
       "count"},
      {"bench.late_p99_us", Percentile(late_ns, 0.99) / 1e3, "us"},
  };
  metrics.insert(metrics.end(), rest.begin(), rest.end());
  PrintTable("per-layer (" + w.name + ", traced)", metrics);
  PrintSplit(summary, sched1, sched0);
  PrintSpans(spans);
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::setvbuf(stderr, nullptr, _IOLBF, 0);
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
