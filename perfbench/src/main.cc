// hugebench: one run of one benchmark workload against the HUGE library.
//
//   hugebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --spill-dir <dir> --trace-out <file>
//
// Generates the workload's inputs from the seed, sets up the system
// several times (setup_s is the median), computes reference counts apart
// from the engine, then runs whole rounds of the workload's operations for
// `--seconds`, checking every result. The last stdout line is a JSON
// object: correct, attempted, failed, metrics, info, failures. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the run
// alternates untraced and traced rounds and reports the per-layer set,
// writing every trace document (the benchmark's own spans plus the
// engine's and the service's) to --trace-out for perfbench/run.py to
// reduce to self times.

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/intersect.h"
#include "engine/simd_intersect.h"
#include "huge/huge.h"
#include "inputs.h"
#include "obs/trace.h"
#include "query/signature.h"
#include "reference.h"
#include "report.h"

namespace perfbench {
namespace {

using huge::Graph;
using huge::QueryGraph;
using huge::RunResult;

constexpr int kMachines = 2;
constexpr int kWorkersPerMachine = 2;
constexpr int kSetups = 15;
constexpr int kTenants = 4;
constexpr uint64_t kWrappedPeak = uint64_t{1} << 63;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spill_dir;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "hugebench: %s\nusage: hugebench --workload <social-pull|"
               "road-join|service-mix|warm-reuse> --seed <n> --seconds <s> "
               "--trace <0|1> --spill-dir <dir> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--spill-dir") {
      a.spill_dir = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + k).c_str());
    }
  }
  if (a.workload.empty() || a.spill_dir.empty() || a.seconds <= 0) {
    Usage("missing --workload, --spill-dir or --seconds");
  }
  if (a.trace && a.trace_out.empty()) Usage("--trace 1 needs --trace-out");
  return a;
}

huge::Config EngineConfig(const Args& a) {
  huge::Config c;
  c.num_machines = kMachines;
  c.workers_per_machine = kWorkersPerMachine;
  c.spill_dir = a.spill_dir;
  // A safety net, far above any run's time: a hang fails one operation
  // instead of the whole benchmark.
  c.time_limit_seconds = 60;
  return c;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// A query as the benchmark submits it: a pattern, optionally with query
/// vertex 0 constrained to one label.
struct QuerySpec {
  QueryGraph q;
  int label = kAnyLabel;
};

QuerySpec Spec(QueryGraph q, int label = kAnyLabel) {
  if (label != kAnyLabel) q.SetLabel(0, static_cast<uint8_t>(label));
  return {std::move(q), label};
}

struct Input {
  VertexId n = 0;
  EdgeList edges;
  std::vector<uint8_t> labels;
  /// Runner workloads: the query list of one pass. service-mix: the
  /// labelled variants, tenant-major (tenant t owns [5t, 5t + 5)).
  std::vector<QuerySpec> queries;
  /// Latency samples an untraced run collects at least, so that its medians
  /// rest on enough passes even when the host is slow.
  size_t min_samples = 0;
};

Input MakeInput(const Args& a) {
  using namespace huge::queries;
  Input in;
  if (a.workload == "social-pull") {
    in.n = 8000;
    in.edges = ChungLu(in.n, 12, 2.45, Stream(a.seed, 1));
    for (int i : {1, 2, 3, 5}) in.queries.push_back(Spec(Q(i)));
    in.min_samples = 100;
  } else if (a.workload == "road-join") {
    const uint32_t side = 120;
    in.n = side * side;
    in.edges = RoadGrid(side, uint64_t{side} * side / 16, Stream(a.seed, 2));
    for (int i : {6, 7}) in.queries.push_back(Spec(Q(i)));
    in.min_samples = 100;
  } else if (a.workload == "service-mix") {
    in.n = 12000;
    in.edges = ChungLu(in.n, 8, 2.5, Stream(a.seed, 3));
    in.labels = Labels(in.n, kTenants, Stream(a.seed, 4));
    for (int c = 0; c < kTenants; ++c) {
      in.queries.push_back(Spec(Triangle(), c));
      for (int i : {1, 2, 3, 5}) in.queries.push_back(Spec(Q(i), c));
    }
    in.min_samples = 100;
  } else if (a.workload == "warm-reuse") {
    in.n = 48000;
    // Seed-independent on purpose: this workload keeps the operations that
    // fail (the reused cluster's alternating kOom), and a kept failure must
    // not depend on the seed.
    in.edges = ChungLu(in.n, 8, 2.5, Stream(0, 5));
    for (auto q : {Diamond(), Clique(4), Triangle()}) {
      in.queries.push_back(Spec(q));
    }
    in.min_samples = 100;
  } else {
    Usage(("unknown workload " + a.workload).c_str());
  }
  return in;
}

std::shared_ptr<const Graph> BuildGraph(const Input& in, Lane* lane) {
  EdgeList edges = in.edges;  // FromEdges consumes its input
  Span span(lane, "graph_build");
  Graph g = Graph::FromEdges(in.n, std::move(edges));
  if (!in.labels.empty()) g.AssignLabels(in.labels);
  return std::make_shared<const Graph>(std::move(g));
}

// ---------------------------------------------------------------------------
// References
// ---------------------------------------------------------------------------

/// Expected counts per query, from the benchmark's own counters where it
/// has one (triangle, square) and from the scalar-pinned Oracle otherwise.
/// With `time_oracle` the Oracle also runs on the patterns the own counters
/// cover (its count must then agree), so `oracle_seconds` spans every
/// query: the single-thread baseline of engine.vs_oracle.
struct References {
  std::vector<uint64_t> counts;
  double oracle_seconds = 0;
};

References ComputeReferences(const Input& in, const Graph& g, bool time_oracle,
                             Report* rep) {
  const Adjacency adj = BuildAdjacency(in.n, in.edges);
  if (adj.NumEdges() != g.NumEdges()) {
    rep->Fail("Graph::FromEdges kept " + std::to_string(g.NumEdges()) +
              " edges, reference CSR " + std::to_string(adj.NumEdges()));
  }
  References refs;
  for (const QuerySpec& s : in.queries) {
    const std::string& name = s.q.name();
    uint64_t own = 0;
    bool has_own = true;
    if (name == "triangle") {
      own = CountTriangles(adj, in.labels, s.label);
    } else if (name == "square") {
      own = CountSquares(adj, in.labels, s.label);
    } else {
      has_own = false;
    }
    uint64_t count = own;
    if (!has_own || time_oracle) {
      double secs = 0;
      count = OracleCount(g, s.q, &secs);
      refs.oracle_seconds += secs;
      if (has_own && count != own) {
        rep->Fail("oracle " + std::to_string(count) + " != own counter " +
                  std::to_string(own) + " on " + s.q.ToString());
      }
    }
    refs.counts.push_back(count);
  }
  return refs;
}

// ---------------------------------------------------------------------------
// Operations and their accounting
// ---------------------------------------------------------------------------

/// Checks one engine result. Returns false (a failed operation) when the
/// run did not complete; a completed run with a wrong count makes the whole
/// run incorrect, and so does an impossible peak M where M is defined: on a
/// fresh cluster, or against an armed `limit`. Reused service slots without
/// a limit are not checked for M (`check_peak` false); see
/// engine.wrapped_peak_runs.
bool Verify(const RunResult& r, uint64_t expected, const QuerySpec& s,
            Report* rep, size_t limit = 0, bool check_peak = true) {
  if (!r.ok()) return false;
  if (r.matches != expected) {
    rep->Fail(s.q.ToString() + " label " + std::to_string(s.label) +
              ": engine " + std::to_string(r.matches) + " != reference " +
              std::to_string(expected));
  }
  const uint64_t peak = r.metrics.peak_memory_bytes;
  if (check_peak && (peak >= kWrappedPeak || (limit != 0 && peak > limit))) {
    rep->Fail(s.q.ToString() + ": peak_memory_bytes " + std::to_string(peak) +
              " breaks the limit " + std::to_string(limit) + " or 2^63");
  }
  return true;
}

/// One pass over a workload's query list, as the user sees it (warm-reuse:
/// the j-th successful run of each query).
struct Pass {
  std::vector<double> latencies;
  double wall = 0;
  double cpu = 0;
  double comm_sim = 0;
  double bytes = 0;

  void Add(const RunResult& r, double latency_s) {
    latencies.push_back(latency_s);
    comm_sim += r.metrics.comm_seconds;
    bytes += static_cast<double>(r.metrics.bytes_communicated);
  }
};

/// Per-layer counters summed over successful runs.
struct Layers {
  double runs = 0;
  double compute_s = 0, busy_s = 0, fetch_s = 0;
  double queued_s = 0, admission_s = 0, execute_s = 0;
  double rows = 0, steals_intra = 0, steals_inter = 0;
  double fused = 0, delta = 0, materialize = 0;
  double hits = 0, misses = 0, rpc = 0, push = 0;

  void Add(const RunResult& r, double latency_s) {
    const huge::RunMetrics& m = r.metrics;
    runs += 1;
    compute_s += m.compute_seconds;
    for (double b : m.worker_busy_seconds) busy_s += b;
    for (double b : m.machine_busy_seconds) busy_s += b;
    fetch_s += m.fetch_seconds;
    queued_s += r.queued_seconds;
    admission_s += r.admission_wait_seconds;
    execute_s += latency_s - r.queued_seconds;
    rows += m.intermediate_rows;
    steals_intra += m.intra_steals;
    steals_inter += m.inter_steals;
    fused += m.fused_count_rows;
    delta += m.delta_rows;
    materialize += m.materialize_rows;
    hits += m.cache_hits;
    misses += m.cache_misses;
    rpc += m.rpc_requests;
    push += m.push_messages;
  }
};

/// Service-level counters of the services (or Runners' internal services)
/// an interval used.
struct ServiceCounters {
  double plan_hits = 0, plan_misses = 0, dedup = 0;
  double shared_hits = 0, shared_misses = 0;
  int peak_concurrency = 0;

  void AddDelta(const huge::ServiceMetrics& after,
                const huge::ServiceMetrics& before) {
    plan_hits += after.plan_cache_hits - before.plan_cache_hits;
    plan_misses += after.plan_cache_misses - before.plan_cache_misses;
    dedup += after.dedup_hits - before.dedup_hits;
    shared_hits += after.shared_cache_hits - before.shared_cache_hits;
    shared_misses += after.shared_cache_misses - before.shared_cache_misses;
    peak_concurrency = std::max(peak_concurrency, after.peak_concurrency);
  }
};

/// Stage timings of the explicit plan pipeline, summed.
struct Stages {
  double queries = 0, signature_s = 0, optimize_s = 0, translate_s = 0;
};

/// The plan half of the Submit path with the benchmark's own spans:
/// CanonicalSignature -> Optimize -> Translate.
huge::Dataflow PlanStages(const QueryGraph& q, const huge::GraphStats& stats,
                          Lane* lane, Stages* stages) {
  const auto t0 = Clock::now();
  std::string sig;
  {
    Span span(lane, "signature");
    sig = huge::CanonicalSignature(q);
  }
  const auto t1 = Clock::now();
  huge::ExecutionPlan plan;
  {
    Span span(lane, "optimize");
    huge::OptimizerOptions options;
    options.num_machines = kMachines;
    plan = huge::Optimize(q, stats, options);
  }
  const auto t2 = Clock::now();
  huge::Dataflow df;
  {
    Span span(lane, "translate");
    df = huge::Translate(plan);
  }
  const auto t3 = Clock::now();
  auto secs = [](auto d) { return std::chrono::duration<double>(d).count(); };
  stages->queries += 1;
  stages->signature_s += secs(t1 - t0);
  stages->optimize_s += secs(t2 - t1);
  stages->translate_s += secs(t3 - t2);
  if (sig.empty()) std::abort();  // keeps the signature call observable
  return df;
}

/// The Submit path spelled out, so that a QueryTrace reaches Cluster::Run.
RunResult PipelineRun(huge::Cluster& cluster, const huge::GraphStats& stats,
                      const QueryGraph& q, Lane* lane, huge::QueryTrace* trace,
                      Stages* stages) {
  const huge::Dataflow df = PlanStages(q, stats, lane, stages);
  Span span(lane, "cluster_run");
  return cluster.Run(df, nullptr, trace);
}

/// Trace documents written for run.py: one Chrome trace document each.
class TraceSink {
 public:
  explicit TraceSink(const std::string& path) {
    if (!path.empty()) f_ = std::fopen(path.c_str(), "w");
    if (!path.empty() && f_ == nullptr) Usage("cannot open --trace-out");
  }
  ~TraceSink() {
    if (f_ != nullptr) std::fclose(f_);
  }
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void Write(const std::string& doc) {
    if (f_ != nullptr) std::fputs(doc.c_str(), f_);
  }
  void Engine(const huge::QueryTrace& t) {
    Write(t.ChromeJson(++pid_, "perfbench-engine"));
  }

 private:
  std::FILE* f_ = nullptr;
  uint64_t pid_ = 0;
};

/// engine.intersect_ns_per_elem: IntersectCountSorted over neighbour-list
/// pairs of the workload's own edges, under the engine's kernel policy.
double IntersectNsPerElem(const Graph& g, const EdgeList& edges,
                          const huge::Config& cfg, uint64_t seed) {
  huge::SetIntersectKernelPolicy(cfg.intersect_kernel);
  huge::SetBitmapDensityPolicy(cfg.bitmap_density_inv);
  SplitMix rng(seed);
  std::vector<std::pair<VertexId, VertexId>> pairs(20000);
  for (auto& p : pairs) p = edges[rng.Below(edges.size())];
  double elems = 0;
  uint64_t sink = 0;
  const auto t0 = Clock::now();
  int reps = 0;
  do {
    for (auto [u, v] : pairs) {
      sink += huge::IntersectCountSorted(g.Neighbors(u), g.Neighbors(v));
      elems += g.Degree(u) + g.Degree(v);
    }
    ++reps;
  } while (SecondsSince(t0) < 0.2 || reps < 3);
  const double secs = SecondsSince(t0);
  if (sink == ~uint64_t{0}) std::abort();  // keeps the kernel calls live
  return secs * 1e9 / std::max(1.0, elems);
}

// ---------------------------------------------------------------------------
// Metric emission
// ---------------------------------------------------------------------------

struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<Pass> passes;
  std::vector<double> latencies_s;
  /// Untraced rounds: (wall seconds, operations completed).
  std::vector<std::pair<double, double>> rounds;
  double measured_s = 0;
  double peak_mem = 0;
};

void EmitEndToEnd(const EndToEnd& e, Report* rep) {
  auto med = [&](double Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : e.passes) v.push_back(p.*field);
    return Median(v);
  };
  rep->Metric("setup_s", Median(e.setup_s), "s");
  rep->Metric("wall_s", med(&Pass::wall), "s");
  rep->Metric("cpu_s", med(&Pass::cpu), "s");
  rep->Metric("comm_sim_s", med(&Pass::comm_sim), "s");
  rep->Metric("comm_bytes", med(&Pass::bytes), "bytes");
  rep->Metric("peak_mem_bytes", e.peak_mem, "bytes");
  rep->Metric("peak_rss_bytes", MaxRssBytes(), "bytes");
  std::vector<double> walls;
  double ops = 0;
  for (auto [wall, done] : e.rounds) {
    walls.push_back(wall);
    ops += done;
  }
  rep->Metric("qps", ops / std::max<size_t>(1, walls.size()) / Median(walls),
              "1/s");
  // Medians over passes of each pass's median and of its slowest query: a
  // pass of a few distinct queries puts a pooled percentile in the gap
  // between two queries' latencies, or in the slowest query's upper tail,
  // where it would be set by the host's worst moments in the run.
  std::vector<double> pass_p50, pass_max;
  for (const Pass& p : e.passes) {
    if (p.latencies.empty()) continue;
    pass_p50.push_back(Median(p.latencies) * 1e3);
    pass_max.push_back(
        *std::max_element(p.latencies.begin(), p.latencies.end()) * 1e3);
  }
  rep->Metric("latency_p50_ms", Median(pass_p50), "ms");
  rep->Metric("latency_tail_ms", Median(pass_max), "ms");
  std::vector<double> pooled_ms;
  for (double s : e.latencies_s) pooled_ms.push_back(s * 1e3);
  rep->Info("latency_p90_ms", Percentile(pooled_ms, 90));
  rep->Info("latency_samples", static_cast<double>(pooled_ms.size()));
  rep->Info("passes", static_cast<double>(e.passes.size()));
  rep->Info("measured_s", e.measured_s);
}

struct PerLayer {
  double build_s = 0;
  double csr_bytes = 0;
  double passes = 0;  ///< untraced passes `layers` was summed over
  Layers layers;
  ServiceCounters service;
  Stages stages;
  double intersect_ns = 0;
  double oracle_s = 0;
  double engine_s = 0;  ///< engine wall on the same queries as oracle_s
  double untraced_s = 0, traced_s = 0;
  double wrapped = 0;  ///< completed runs reporting a peak M >= 2^63
};

void EmitPerLayer(const PerLayer& p, Report* rep) {
  const Layers& l = p.layers;
  const double passes = std::max(1.0, p.passes);
  const double runs = std::max(1.0, l.runs);
  const double workers = kMachines * kWorkersPerMachine;
  auto rate = [](double hits, double misses) {
    return hits + misses > 0 ? hits / (hits + misses) : 0.0;
  };
  auto per_query_us = [&](double s) {
    return s * 1e6 / std::max(1.0, p.stages.queries);
  };
  rep->Metric("graph.build_s", p.build_s, "s");
  rep->Metric("graph.csr_bytes", p.csr_bytes, "bytes");
  rep->Metric("query.signature_us", per_query_us(p.stages.signature_s), "us");
  rep->Metric("plan.optimize_us", per_query_us(p.stages.optimize_s), "us");
  rep->Metric("plan.translate_us", per_query_us(p.stages.translate_s), "us");
  rep->Metric("plan.intermediate_rows", l.rows / passes, "count");
  rep->Metric("engine.intersect_ns_per_elem", p.intersect_ns, "ns");
  rep->Metric("engine.compute_s", l.compute_s / passes, "s");
  rep->Metric("engine.busy_s", l.busy_s / passes, "s");
  rep->Metric("engine.busy_base_s", l.compute_s * workers / passes, "s");
  rep->Metric("engine.busy_ratio",
              l.compute_s > 0 ? l.busy_s / (l.compute_s * workers) : 0.0,
              "ratio");
  rep->Metric("engine.steals_intra", l.steals_intra / passes, "count");
  rep->Metric("engine.steals_inter", l.steals_inter / passes, "count");
  rep->Metric("engine.fetch_s", l.fetch_s / passes, "s");
  rep->Metric("engine.fused_count_rows", l.fused / passes, "count");
  rep->Metric("engine.delta_rows", l.delta / passes, "count");
  rep->Metric("engine.materialize_rows", l.materialize / passes, "count");
  rep->Metric("engine.vs_oracle",
              p.engine_s > 0 ? p.oracle_s / p.engine_s : 0.0, "ratio");
  rep->Metric("engine.oracle_s", p.oracle_s, "s");
  rep->Metric("engine.wrapped_peak_runs", p.wrapped / passes, "count");
  rep->Metric("cache.hit_rate", rate(l.hits, l.misses), "ratio");
  rep->Metric("cache.hits", l.hits / passes, "count");
  rep->Metric("cache.misses", l.misses / passes, "count");
  rep->Metric("cache.shared_hit_rate",
              rate(p.service.shared_hits, p.service.shared_misses), "ratio");
  rep->Metric("cache.shared_lookups",
              (p.service.shared_hits + p.service.shared_misses) / passes,
              "count");
  rep->Metric("net.rpc_requests", l.rpc / passes, "count");
  rep->Metric("net.push_messages", l.push / passes, "count");
  rep->Metric("service.queued_s", l.queued_s / runs, "s");
  rep->Metric("service.admission_wait_s", l.admission_s / runs, "s");
  rep->Metric("service.execute_s", l.execute_s / runs, "s");
  rep->Metric("service.peak_concurrency", p.service.peak_concurrency, "count");
  rep->Metric("service.plan_cache_hit_rate",
              rate(p.service.plan_hits, p.service.plan_misses), "ratio");
  rep->Metric("service.dedup_hits", p.service.dedup / passes, "count");
  rep->Metric("obs.trace_overhead",
              p.untraced_s > 0 ? p.traced_s / p.untraced_s - 1 : 0.0, "ratio");
}

// ---------------------------------------------------------------------------
// Runner workloads: social-pull, road-join (a fresh Runner per query) and
// warm-reuse (one Runner for the whole run)
// ---------------------------------------------------------------------------

int RunRunnerWorkload(const Args& a, const Input& in, Report* rep) {
  const bool reuse = a.workload == "warm-reuse";
  huge::Config cfg = EngineConfig(a);
  TraceSink sink(a.trace_out);
  Lane setup_lane("perfbench-setup"), pass_lane("perfbench-pass");
  Lane* setup_spans = a.trace ? &setup_lane : nullptr;

  // References, on a graph built outside the timed setup.
  auto ref_graph = BuildGraph(in, nullptr);
  const References refs = ComputeReferences(in, *ref_graph, a.trace, rep);
  const auto& counts = refs.counts;

  // Fresh-cluster runs: the peak M of each query, and (warm-reuse) the
  // memory limit armed at a few times the largest.
  double fresh_peak = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    huge::Runner runner(ref_graph, cfg);
    const RunResult r = runner.Run(in.queries[i].q);
    if (!Verify(r, counts[i], in.queries[i], rep)) {
      rep->Fail("fresh-cluster run of " + in.queries[i].q.ToString() +
                " did not complete: " + huge::ToString(r.status));
    }
    fresh_peak =
        std::max(fresh_peak, static_cast<double>(r.metrics.peak_memory_bytes));
  }
  if (reuse) cfg.memory_limit_bytes = static_cast<size_t>(4 * fresh_peak);
  rep->Info("memory_limit_bytes", static_cast<double>(cfg.memory_limit_bytes));

  // Setup: graph build + GraphStats + Runner construction + one warm-up
  // query, kSetups times; the last one is kept.
  const QuerySpec warmup = Spec(huge::queries::Triangle());
  const uint64_t warmup_count = CountTriangles(
      BuildAdjacency(in.n, in.edges), in.labels, kAnyLabel);
  EndToEnd e2e;
  PerLayer pl;
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<huge::Runner> runner;
  std::vector<double> build_s;
  for (int i = 0; i < kSetups; ++i) {
    runner.reset();
    graph.reset();
    const auto t0 = Clock::now();
    graph = BuildGraph(in, i + 1 == kSetups ? setup_spans : nullptr);
    build_s.push_back(SecondsSince(t0));
    {
      Span span(i + 1 == kSetups ? setup_spans : nullptr, "graph_stats");
      if (huge::GraphStats::Compute(*graph).num_edges <= 0) std::abort();
    }
    runner = std::make_unique<huge::Runner>(graph, cfg);
    if (!Verify(runner->Run(warmup.q), warmup_count, warmup, rep)) {
      rep->Fail("warm-up query did not complete");
    }
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  pl.build_s = Median(build_s);
  pl.csr_bytes = static_cast<double>(graph->SizeBytes());

  // Measurement: whole rounds until --seconds have passed and the workload
  // has its minimum number of latency samples. A round is one
  // pass over the query list (warm-reuse: two, so that every query meets
  // both parities of the reused cluster's alternating kOom). With
  // --trace 1 a round adds a traced pass through PipelineRun.
  const size_t nq = in.queries.size();
  const size_t round_ops = reuse ? 2 * nq : nq;
  // Successful runs' latencies per query, untraced and traced.
  std::vector<std::vector<double>> untraced_q(nq), traced_q(nq);
  // warm-reuse: each query's successful untraced runs, one Pass each. Pass j
  // of the run joins the j-th of every query, so that the failed half of
  // the runs neither counts in a pass nor changes what a pass holds.
  std::vector<std::vector<Pass>> reuse_runs(nq);
  const huge::ServiceMetrics reuse_before = runner->service().metrics();

  auto one_round = [&](bool traced) {
    Pass pass;
    double round_done = 0;
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    for (size_t k = 0; k < round_ops; ++k) {
      const size_t i = k % nq;
      const QuerySpec& s = in.queries[i];
      std::unique_ptr<huge::Runner> fresh;
      huge::Runner* use = runner.get();
      if (!reuse) {
        fresh = std::make_unique<huge::Runner>(graph, cfg);
        use = fresh.get();
      }
      const huge::ServiceMetrics before = use->service().metrics();
      std::unique_ptr<huge::QueryTrace> trace;
      if (traced) trace = std::make_unique<huge::QueryTrace>(1 << 16);
      const double op_cpu0 = CpuSeconds();
      const auto op_t0 = Clock::now();
      const RunResult r =
          traced ? PipelineRun(use->cluster(), use->stats(), s.q, &pass_lane,
                               trace.get(), &pl.stages)
                 : use->Run(s.q);
      const double latency = SecondsSince(op_t0);
      const double op_cpu = CpuSeconds() - op_cpu0;
      if (traced) sink.Engine(*trace);
      ++rep->attempted;
      if (!Verify(r, counts[i], s, rep, cfg.memory_limit_bytes)) {
        ++rep->failed;
        continue;
      }
      if (traced) {
        traced_q[i].push_back(latency);
        continue;
      }
      untraced_q[i].push_back(latency);
      e2e.latencies_s.push_back(latency);
      ++round_done;
      pl.layers.Add(r, latency);
      if (!reuse) pl.service.AddDelta(use->service().metrics(), before);
      if (reuse) {
        Pass single;
        single.wall = latency;
        single.cpu = op_cpu;
        single.Add(r, latency);
        reuse_runs[i].push_back(std::move(single));
        pl.passes += 1.0 / static_cast<double>(nq);
      } else {
        pass.Add(r, latency);
      }
    }
    if (!traced) e2e.rounds.emplace_back(SecondsSince(t0), round_done);
    if (!reuse && !traced) {
      pass.wall = SecondsSince(t0);
      pass.cpu = CpuSeconds() - cpu0;
      e2e.passes.push_back(pass);
      pl.passes += 1;
    }
  };

  const auto start = Clock::now();
  const auto deadline = After(start, a.seconds);
  do {
    one_round(false);
    if (a.trace) one_round(true);
  } while (Clock::now() < deadline ||
           (!a.trace && e2e.latencies_s.size() < in.min_samples));
  e2e.measured_s = SecondsSince(start);
  e2e.peak_mem = fresh_peak;
  if (reuse) {
    pl.service.AddDelta(runner->service().metrics(), reuse_before);
    size_t passes = reuse_runs[0].size();
    for (const auto& runs : reuse_runs) passes = std::min(passes, runs.size());
    for (size_t j = 0; j < passes; ++j) {
      Pass pass;
      for (const auto& runs : reuse_runs) {
        const Pass& run = runs[j];
        pass.wall += run.wall;
        pass.cpu += run.cpu;
        pass.comm_sim += run.comm_sim;
        pass.bytes += run.bytes;
        pass.latencies.push_back(run.latencies[0]);
      }
      e2e.passes.push_back(std::move(pass));
    }
  }

  if (!a.trace) {
    EmitEndToEnd(e2e, rep);
    return 0;
  }
  pl.intersect_ns = IntersectNsPerElem(*graph, in.edges, cfg,
                                       Stream(a.seed, 100));
  pl.oracle_s = refs.oracle_seconds;
  double traced_runs = 0;
  for (size_t i = 0; i < nq; ++i) {
    pl.untraced_s += Median(untraced_q[i]);
    pl.traced_s += Median(traced_q[i]);
    traced_runs += static_cast<double>(traced_q[i].size());
  }
  pl.engine_s = pl.untraced_s;
  sink.Write(setup_lane.ChromeJson(start));
  sink.Write(pass_lane.ChromeJson(start));
  rep->Info("setups", 1);
  rep->Info("traced_passes",
            reuse ? traced_runs / static_cast<double>(nq) : pl.passes);
  EmitPerLayer(pl, rep);
  return 0;
}

// ---------------------------------------------------------------------------
// service-mix: a closed loop of kTenants tenants over one service
// ---------------------------------------------------------------------------

huge::ServiceConfig MixServiceConfig(const huge::Config& engine) {
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  huge::ServiceConfig sc;
  sc.engine = engine;
  sc.max_concurrent_queries = kTenants;
  sc.memory_budget_bytes = size_t{1} << 30;
  sc.min_reservation_bytes = size_t{4} << 20;
  sc.fabric_workers = cores;
  sc.core_budget = cores;
  return sc;
}

struct ClientOp {
  size_t query = 0;  ///< index into Input::queries
  RunResult r;
  double latency_s = 0;
  Clock::time_point done;
};

/// Runs the closed loop until `deadline` has passed and the workload has its
/// minimum number of samples; every client finishes its round. Returns the
/// operations in completion order.
/// One client thread per tenant, at most one per core: on a host with fewer
/// cores than tenants a thread serves several tenants in turn.
std::vector<ClientOp> ClosedLoop(huge::QueryService& service, const Input& in,
                                 Clock::time_point deadline,
                                 size_t min_samples) {
  const size_t per_tenant = in.queries.size() / kTenants;
  const int threads = std::clamp(
      static_cast<int>(std::thread::hardware_concurrency()), 1, kTenants);
  std::vector<std::vector<ClientOp>> ops(threads);
  std::atomic<size_t> done{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < threads; ++c) {
    clients.emplace_back([&, c] {
      do {
        for (int t = c; t < kTenants; t += threads) {
          huge::SubmitOptions opts;
          opts.tenant = "tenant-" + std::to_string(t);
          for (size_t j = 0; j < per_tenant; ++j) {
            ClientOp op;
            op.query = t * per_tenant + (j + t) % per_tenant;
            const auto t0 = Clock::now();
            op.r = service.Submit(in.queries[op.query].q, opts).get();
            op.done = Clock::now();
            op.latency_s = std::chrono::duration<double>(op.done - t0).count();
            ops[c].push_back(std::move(op));
            ++done;
          }
        }
      } while (Clock::now() < deadline || done.load() < min_samples);
    });
  }
  for (auto& t : clients) t.join();
  std::vector<ClientOp> all;
  for (auto& v : ops) {
    for (auto& op : v) all.push_back(std::move(op));
  }
  std::sort(all.begin(), all.end(), [](const ClientOp& x, const ClientOp& y) {
    return x.done < y.done;
  });
  return all;
}

int RunServiceMix(const Args& a, const Input& in, Report* rep) {
  const huge::Config cfg = EngineConfig(a);
  const huge::ServiceConfig sc = MixServiceConfig(cfg);
  TraceSink sink(a.trace_out);
  Lane setup_lane("perfbench-setup"), pass_lane("perfbench-pass");
  Lane* setup_spans = a.trace ? &setup_lane : nullptr;

  auto ref_graph = BuildGraph(in, nullptr);
  const References refs = ComputeReferences(in, *ref_graph, a.trace, rep);

  // Single-client runs: every labelled variant on a fresh Runner. Their
  // counts are what each concurrent service result must equal, and their
  // peaks are the fresh-cluster M.
  std::vector<uint64_t> single(in.queries.size());
  double fresh_peak = 0, single_s = 0;
  for (size_t i = 0; i < in.queries.size(); ++i) {
    huge::Runner runner(ref_graph, cfg);
    const auto t0 = Clock::now();
    const RunResult r = runner.Run(in.queries[i].q);
    single_s += SecondsSince(t0);
    if (!Verify(r, refs.counts[i], in.queries[i], rep)) {
      rep->Fail("single-client run did not complete");
    }
    single[i] = r.matches;
    fresh_peak =
        std::max(fresh_peak, static_cast<double>(r.metrics.peak_memory_bytes));
  }

  EndToEnd e2e;
  PerLayer pl;
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<huge::QueryService> service;
  std::vector<double> build_s;
  for (int i = 0; i < kSetups; ++i) {
    service.reset();
    graph.reset();
    const auto t0 = Clock::now();
    graph = BuildGraph(in, i + 1 == kSetups ? setup_spans : nullptr);
    build_s.push_back(SecondsSince(t0));
    {
      Span span(i + 1 == kSetups ? setup_spans : nullptr, "graph_stats");
      if (huge::GraphStats::Compute(*graph).num_edges <= 0) std::abort();
    }
    service = std::make_unique<huge::QueryService>(graph, sc);
    const RunResult r = service->Submit(in.queries[0].q).get();
    if (!Verify(r, single[0], in.queries[0], rep)) {
      rep->Fail("warm-up query did not complete");
    }
    e2e.setup_s.push_back(SecondsSince(t0));
  }
  pl.build_s = Median(build_s);
  pl.csr_bytes = static_cast<double>(graph->SizeBytes());

  // Verifies and tallies one closed-loop interval. Passes overlap in a
  // closed loop, so the interval is cut into windows of one pass's worth of
  // completions, in completion order: a window's wall runs from the previous
  // window's last completion to its own, and its other figures are its
  // operations' sums. CPU time is not split by window: each gets the mean.
  const size_t per_pass = in.queries.size();
  auto tally = [&](const std::vector<ClientOp>& ops, bool untraced,
                   Clock::time_point start, double cpu) {
    std::vector<bool> ok(ops.size());
    for (size_t k = 0; k < ops.size(); ++k) {
      const ClientOp& op = ops[k];
      ++rep->attempted;
      ok[k] = Verify(op.r, single[op.query], in.queries[op.query], rep, 0,
                     false);
      if (!ok[k]) ++rep->failed;
      if (!ok[k] || !untraced) continue;
      if (op.r.metrics.peak_memory_bytes >= kWrappedPeak) pl.wrapped += 1;
      pl.layers.Add(op.r, op.latency_s);
    }
    if (!untraced) return;
    pl.passes += static_cast<double>(ops.size()) / per_pass;
    const size_t windows = ops.size() / per_pass;
    Clock::time_point prev = start;
    for (size_t w = 0; w < windows; ++w) {
      Pass pass;
      double done = 0;
      for (size_t k = w * per_pass; k < (w + 1) * per_pass; ++k) {
        if (!ok[k]) continue;
        const ClientOp& op = ops[k];
        pass.Add(op.r, op.latency_s);
        e2e.latencies_s.push_back(op.latency_s);
        done += 1;
      }
      const Clock::time_point end = ops[(w + 1) * per_pass - 1].done;
      pass.wall = std::chrono::duration<double>(end - prev).count();
      pass.cpu = cpu * per_pass / static_cast<double>(ops.size());
      prev = end;
      e2e.rounds.emplace_back(pass.wall, done);
      e2e.passes.push_back(std::move(pass));
    }
  };

  const double measure_s = a.trace ? a.seconds / 2 : a.seconds;
  const huge::ServiceMetrics before = service->metrics();
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now();
  auto ops = ClosedLoop(*service, in, After(start, measure_s),
                        a.trace ? 0 : in.min_samples);
  e2e.measured_s = SecondsSince(start);
  tally(ops, true, start, CpuSeconds() - cpu0);
  pl.service.AddDelta(service->metrics(), before);
  e2e.peak_mem = fresh_peak;

  if (!a.trace) {
    EmitEndToEnd(e2e, rep);
    return 0;
  }

  // Traced half: the same loop on a service with per-query tracing on,
  // after the benchmark's own pass over the plan pipeline.
  huge::ServiceConfig traced_sc = sc;
  traced_sc.obs.trace_queries = true;
  traced_sc.obs.trace_retention = size_t{1} << 20;
  huge::QueryService traced(graph, traced_sc);
  if (traced.Submit(in.queries[0].q).get().matches != single[0]) {
    rep->Fail("traced warm-up count");
  }
  for (const QuerySpec& s : in.queries) {
    PlanStages(s.q, traced.stats(), &pass_lane, &pl.stages);
  }
  const auto traced_start = Clock::now();
  auto traced_ops =
      ClosedLoop(traced, in, After(traced_start, measure_s), 0);
  const double traced_wall = SecondsSince(traced_start);
  tally(traced_ops, false, traced_start, 0);
  // Time per completed query, traced vs untraced.
  pl.untraced_s = e2e.measured_s / std::max<size_t>(1, ops.size());
  pl.traced_s = traced_wall / std::max<size_t>(1, traced_ops.size());
  sink.Write(traced.RetainedTracesJson());
  sink.Write(setup_lane.ChromeJson(start));
  sink.Write(pass_lane.ChromeJson(start));
  pl.intersect_ns =
      IntersectNsPerElem(*graph, in.edges, cfg, Stream(a.seed, 100));
  pl.oracle_s = refs.oracle_seconds;
  pl.engine_s = single_s;
  rep->Info("setups", 1);
  rep->Info("bench_passes", 1);
  rep->Info("traced_passes",
            static_cast<double>(traced_ops.size()) / per_pass);
  EmitPerLayer(pl, rep);
  return 0;
}

/// The CPU's brand string from CPUID (no file outside the checkout is read).
std::string CpuModel() {
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    model.assign(reinterpret_cast<const char*>(regs), sizeof(regs));
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
  }
#endif
  return model;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::strcmp(argv[1], "--host") == 0) {
    // The build half of the report's host block.
    std::printf("{\"cpu_model\": \"%s\", \"isa\": \"%s\", "
                "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
                CpuModel().c_str(),
                huge::simd::ToString(huge::simd::ActiveLevel()),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
    return 0;
  }
  const Args args = ParseArgs(argc, argv);
  const auto t0 = Clock::now();
  const Input in = MakeInput(args);
  Report rep;
  rep.Info("input_s", SecondsSince(t0));
  rep.Info("vertices", in.n);
  rep.Info("edges_generated", static_cast<double>(in.edges.size()));
  rep.Info("isa_level", static_cast<double>(huge::simd::ActiveLevel()));
  std::fprintf(stderr, "hugebench: isa %s\n",
               huge::simd::ToString(huge::simd::ActiveLevel()));
  const int rc = args.workload == "service-mix"
                     ? RunServiceMix(args, in, &rep)
                     : RunRunnerWorkload(args, in, &rep);
  rep.Print(stdout);
  return rc;
}
