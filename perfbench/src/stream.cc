// stream-sbm200k: out-of-core LinBP over compressed v2 shards on two lanes
// (plus the pipeline's prefetch thread). A separate set-up process writes
// the shard sets; this process solves them uncached (v2-f64), at f32 over
// v2-f32 shards, and with a decoded-block cache that covers the working
// set, then checks every result against an in-memory solve of the same
// shards. SBP runs from scratch on the same graph held in memory.

#include <cstdio>
#include <iostream>
#include <optional>

#include "perfbench/src/harness.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/workloads.h"
#include "src/core/convergence.h"
#include "src/core/coupling.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/dataset/shard.h"
#include "src/engine/shard_stream_backend.h"

namespace perfbench {

namespace {

using linbp::LinBpOptions;
using linbp::LinBpResult;
using linbp::engine::ShardStreamBackend;

constexpr int kMinRounds = 3;
// RunSbp takes about 60 ms here: the traced run times it call by call
// for this many seconds, with at least kMinSbpSamples calls.
constexpr double kSbpSeconds = 2.0;
constexpr int kMinSbpSamples = 9;
// Updates in the traced run's update probe: each one re-solves the whole
// graph, so a few suffice (every op kind still occurs once or more).
constexpr std::int64_t kProbeUpdates = 5;
// Half the Lemma 8 threshold of the workload graph,
// sbm:n=200000,k=3,deg=10,seed=1 (0.202301; see README). Bisecting it
// takes over a minute, which no run should pay.
constexpr double kFullEps = 0.1011505;

std::string SpecFor(const Args& args) {
  return std::string(args.size == Size::kFull ? "sbm:n=200000" : "sbm:n=2000") +
         ",k=3,deg=10";
}

}  // namespace

int RunStreamSetup(const Args& args) {
  const linbp::exec::ExecContext ctx =
      linbp::exec::ExecContext::WithThreads(kStreamLanes);
  std::string error;
  double start = Now();
  const auto scenario = MakeWorkloadScenario(SpecFor(args), args.seed, ctx, &error);
  const double build_seconds = Now() - start;
  if (!scenario.has_value()) {
    std::cerr << "stream-setup: " << error << '\n';
    return 1;
  }
  start = Now();
  if (!WriteShardSets(*scenario, args.dir, &error)) {
    std::cerr << "stream-setup: " << error << '\n';
    return 1;
  }
  const double write_seconds = Now() - start;
  std::printf("{\"scenario_build_s\": %.9g, \"shard_write_s\": %.9g}\n",
              build_seconds, write_seconds);
  return 0;
}

int RunStream(const Args& args) {
  const linbp::exec::ExecContext ctx =
      linbp::exec::ExecContext::WithThreads(kStreamLanes);
  const ShardSets sets = ShardSetsIn(args.dir);
  Ledger ledger;
  Metrics metrics;
  std::string error;

  double eps = kFullEps;
  if (args.size == Size::kToy) {
    auto backend = ShardStreamBackend::Open(sets.f64_manifest, &error, ctx);
    if (!backend.has_value()) {
      std::cerr << "stream: " << error << '\n';
      return 1;
    }
    eps = 0.5 * linbp::ExactEpsilonThreshold(
                    *backend,
                    linbp::CouplingMatrix::FromResidual(
                        backend->coupling_residual()),
                    linbp::LinBpVariant::kLinBp, 1e-6, ctx);
  }
  const LinBpOptions f64 = StreamOptions(linbp::Precision::kF64);
  const LinBpOptions f32 = StreamOptions(linbp::Precision::kF32);

  // A budget equal to the decoded working set: every block fits.
  const std::int64_t budget = CoveringBudget(sets.f64_manifest, &error);
  if (budget <= 0) {
    std::cerr << "stream: " << error << '\n';
    return 1;
  }

  const double measure_start = Now();
  std::vector<double> uncached_s, f32_s, cached_s, round_s;
  std::optional<StreamSolve> uncached, narrow, cached;
  for (int round = 0;
       round < kMinRounds || Now() - measure_start < args.seconds; ++round) {
    uncached = SolveStreamed(sets.f64_manifest, eps, f64, 0, false);
    if (!ledger.Op(uncached.has_value() && uncached->result.converged)) break;
    uncached_s.push_back(uncached->seconds);
    narrow = SolveStreamed(sets.f32_manifest, eps, f32, 0, false);
    if (!ledger.Op(narrow.has_value() && narrow->result.converged)) break;
    f32_s.push_back(narrow->seconds);
    cached = SolveStreamed(sets.f64_manifest, eps, f64, budget, false);
    if (!ledger.Op(cached.has_value() && cached->result.converged)) break;
    cached_s.push_back(cached->seconds);
    round_s.push_back(uncached->seconds + narrow->seconds + cached->seconds);
  }
  if (!uncached || !narrow || !cached) return 1;
  LogSamples("stream_solve_s", uncached_s);
  LogSamples("stream_f32_solve_s", f32_s);
  LogSamples("stream_cached_solve_s", cached_s);
  LogSamples("round_s", round_s);
  // Peak RSS of the solving process, before any reference is loaded.
  const double peak_rss = PeakRssMb();

  // Checks: in-memory solves of the same shards, byte accounting.
  const std::int64_t f64_bytes = ShardFileBytes(sets.f64_manifest);
  const std::int64_t f32_bytes = ShardFileBytes(sets.f32_manifest);
  const auto reference =
      linbp::dataset::LoadShardedSnapshot(sets.f64_manifest, &error, ctx);
  if (!ledger.Op(reference.has_value())) {
    std::cerr << "stream: " << error << '\n';
    return 1;
  }
  const Graph& graph = reference->graph;
  const DenseMatrix& e = reference->explicit_residuals;
  const DenseMatrix hhat = reference->Coupling().ScaledResidual(eps);
  double start = Now();
  const LinBpResult memory = linbp::RunLinBp(graph, hhat, e, f64);
  std::cerr << "in-memory reference solve: " << Fmt(Now() - start)
            << " s on " << kStreamLanes << " lanes\n";
  ledger.Check("uncached stream == in-memory (memcmp)",
               SameBytes(uncached->result.beliefs, memory.beliefs),
               "v2-f64, " + std::to_string(memory.iterations) + " sweeps");
  ledger.Check("cached stream == in-memory (memcmp)",
               SameBytes(cached->result.beliefs, memory.beliefs),
               "budget " + std::to_string(budget) + " bytes");
  {
    const auto narrow_reference =
        linbp::dataset::LoadShardedSnapshot(sets.f32_manifest, &error, ctx);
    if (!ledger.Op(narrow_reference.has_value())) {
      std::cerr << "stream: " << error << '\n';
      return 1;
    }
    const LinBpResult memory32 = linbp::RunLinBp(
        narrow_reference->graph,
        narrow_reference->Coupling().ScaledResidual(eps),
        narrow_reference->explicit_residuals, f32);
    ledger.Check("f32 stream == in-memory f32 (memcmp)",
                 SameBytes(narrow->result.beliefs, memory32.beliefs),
                 "v2-f32, " + std::to_string(memory32.iterations) + " sweeps");
  }
  ledger.Check("uncached bytes == sweeps x shard bytes",
               uncached->bytes_after_open ==
                   uncached->result.iterations * f64_bytes,
               std::to_string(uncached->bytes_after_open) + " == " +
                   std::to_string(uncached->result.iterations) + " x " +
                   std::to_string(f64_bytes));
  ledger.Check("f32 bytes == sweeps x shard bytes",
               narrow->bytes_after_open == narrow->result.iterations * f32_bytes,
               std::to_string(narrow->bytes_after_open) + " == " +
                   std::to_string(narrow->result.iterations) + " x " +
                   std::to_string(f32_bytes));
  ledger.Check("cached solve reads 0 bytes after Open",
               cached->bytes_after_open == 0,
               std::to_string(cached->bytes_after_open) + " bytes");

  // SBP from scratch on the workload graph, held in memory: once for the
  // check, and call by call for core.sbp_s in the traced run.
  std::vector<double> sbp_s;
  linbp::SbpResult sbp_result;
  const double sbp_start = Now();
  do {
    start = Now();
    sbp_result = linbp::RunSbp(graph, hhat, e, reference->explicit_nodes, ctx);
    sbp_s.push_back(Now() - start);
    ledger.Op(true);
  } while (args.trace && (static_cast<int>(sbp_s.size()) < kMinSbpSamples ||
                          Now() - sbp_start < kSbpSeconds));
  LogSamples("sbp_s", sbp_s);
  std::int64_t oracle_levels = 0;
  const DenseMatrix oracle =
      SbpOracle(graph.num_nodes(), graph.edges(), hhat, e,
                reference->explicit_nodes, &oracle_levels);
  const double sbp_diff = MaxAbsDiff(oracle, sbp_result.beliefs);
  ledger.Check("SBP vs BFS + Def. 15 recursion",
               sbp_diff <= 1e-9 && oracle_levels == sbp_result.max_geodesic,
               "max diff " + Fmt(sbp_diff) + ", levels " +
                   std::to_string(oracle_levels));

  if (!args.trace) {
    metrics.Set("solve_s", FastDecile(uncached_s), "s");
    metrics.Set("round_s", FastDecile(round_s), "s");
    metrics.Set("peak_rss_mb", peak_rss, "MB");
    std::cout << metrics.ResultJson(ledger) << std::endl;
    return 0;
  }

  // Traced run: products through the wrapper, shard layers called
  // directly, the pipeline's stall histogram read through the registry,
  // and the in-memory and update layers probed on the same graph.
  const auto probe = ProbeShards(sets, eps, kMinRounds, &ledger, &metrics);
  if (!probe.has_value()) return 1;
  ProbeKernels(graph, memory.beliefs, ctx, &metrics);
  ProbeGraph(graph, &metrics);
  ProbeRegistry(graph, hhat, e, f64, 2, &ledger, &metrics);
  if (!ProbeUpdates(*reference, args.seed, kProbeUpdates, eps, kStreamLanes,
                    3, false, args.dir + "/updates", &ledger, &metrics)) {
    return 1;
  }
  const double untraced = Median(uncached_s);
  const double layer_sum =
      Median(probe->open_s) + Median(probe->product_s) + Median(probe->self_s);
  ReportReconcile("solve_s", layer_sum, untraced, &metrics);

  metrics.Set("engine.solve_products", static_cast<double>(probe->products),
              "count");
  metrics.Set("engine.product_s", Median(probe->product_s), "s");
  metrics.Set("engine.round_products",
              static_cast<double>(probe->round_products), "count");
  metrics.Set("core.solve_sweeps", static_cast<double>(probe->sweeps), "count");
  metrics.Set("core.self_s", Median(probe->self_s), "s");
  metrics.Set("core.round_sweeps", static_cast<double>(probe->round_sweeps),
              "count");
  metrics.Set("core.sbp_s", FastDecile(sbp_s), "s");
  metrics.Set("core.sbp_levels", static_cast<double>(sbp_result.max_geodesic),
              "count");
  metrics.Set("obs.trace_overhead_s", Median(probe->wall_s) - untraced, "s");
  std::cout << metrics.ResultJson(ledger) << std::endl;
  return 0;
}

}  // namespace perfbench
