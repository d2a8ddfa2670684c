// batch-rmat13: cold classification of a power-law graph in memory on one
// lane, the way `linbp_cli --eps=auto` runs it: the Lemma 8 threshold by
// bisection, then LinBP at half of it, plus the f32 solve and SBP. The
// graph (8 192 nodes, ~64k edges) stays in a core's private cache, which
// keeps its timings clear of the memory traffic of other tenants on the
// host (see README).

#include <cmath>
#include <iostream>

#include "perfbench/src/harness.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/workloads.h"
#include "src/core/convergence.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/engine/in_memory_backend.h"

namespace perfbench {

namespace {

using linbp::LinBpOptions;
using linbp::LinBpResult;
using linbp::LinBpVariant;
using linbp::Precision;

// The CLI's tolerances: ExactEpsilonThreshold at 1e-6, f64 solves to
// 1e-12, f32 solves to float resolution (1e-6).
constexpr double kEpsTolerance = 1e-6;
constexpr double kF32Tolerance = 1e-6;
constexpr double kResidualBound = 1e-10;
// Chance is 1/3; rmat's planted classes give about 0.5-0.6.
constexpr double kF1Floor = 0.4;
constexpr double kFlipBound = 0.005;
constexpr int kSbpBatch = 40;
// A set-up takes about 0.08 s; one every kSetupEvery rounds gives about
// 17 per run.
constexpr int kSetupEvery = 4;
constexpr int kMinRounds = 3;
constexpr int kTracedRounds = 5;

}  // namespace

int RunBatch(const Args& args) {
  const std::string spec =
      std::string(args.size == Size::kFull ? "rmat:scale=13" : "rmat:scale=10") +
      ",ef=8,k=3";
  const linbp::exec::ExecContext ctx = linbp::exec::ExecContext::WithThreads(1);
  Ledger ledger;
  Metrics metrics;
  std::string error;

  // Set-up: scenario generation. It runs once here and again every
  // kSetupEvery rounds, so its median samples the whole run.
  std::vector<double> setup;
  std::optional<linbp::dataset::Scenario> scenario;
  auto set_up = [&]() {
    const double start = Now();
    scenario = MakeWorkloadScenario(spec, args.seed, ctx, &error);
    setup.push_back(Now() - start);
    if (!ledger.Op(scenario.has_value())) {
      std::cerr << "batch: " << error << '\n';
      return false;
    }
    return true;
  };
  if (!set_up()) return 1;
  const Graph& graph = scenario->graph;
  const std::int64_t n = graph.num_nodes();
  const linbp::CouplingMatrix coupling = scenario->Coupling();
  const DenseMatrix& e = scenario->explicit_residuals;

  LinBpOptions f64;
  f64.exec = ctx;
  LinBpOptions f32 = f64;
  f32.precision = Precision::kF32;
  f32.tolerance = kF32Tolerance;

  // Rounds of every operation until --seconds has passed. The bisection
  // is deterministic, so each round repeats the same work.
  const double measure_start = Now();
  double start = 0.0;
  double threshold = 0.0;
  DenseMatrix hhat;
  std::vector<double> eps_auto, solve, solve_f32, sbp;
  LinBpResult result64, result32;
  linbp::SbpResult sbp_result;
  for (int round = 0;
       round < kMinRounds || Now() - measure_start < args.seconds; ++round) {
    // Regenerates the same scenario in place; `graph` and `e` stay valid
    // references into it.
    if (round % kSetupEvery == kSetupEvery - 1 && !set_up()) return 1;
    start = Now();
    threshold = linbp::ExactEpsilonThreshold(graph, coupling,
                                             LinBpVariant::kLinBp,
                                             kEpsTolerance);
    eps_auto.push_back(Now() - start);
    if (!ledger.Op(std::isfinite(threshold) && threshold > 0.0)) {
      std::cerr << "batch: no finite convergence threshold\n";
      return 1;
    }
    hhat = coupling.ScaledResidual(0.5 * threshold);
    start = Now();
    result64 = linbp::RunLinBp(graph, hhat, e, f64);
    solve.push_back(Now() - start);
    ledger.Op(result64.converged);
    start = Now();
    result32 = linbp::RunLinBp(graph, hhat, e, f32);
    solve_f32.push_back(Now() - start);
    ledger.Op(result32.converged);
    // One SBP run takes a few milliseconds; a sample is kSbpBatch of them.
    start = Now();
    for (int i = 0; i < kSbpBatch; ++i) {
      sbp_result = linbp::RunSbp(graph, hhat, e, scenario->explicit_nodes, ctx);
      ledger.Op(true);
    }
    sbp.push_back((Now() - start) / kSbpBatch);
  }
  const double peak_rss = PeakRssMb();
  std::vector<double> round;
  for (std::size_t i = 0; i < solve.size(); ++i) {
    round.push_back(eps_auto[i] + solve[i] + solve_f32[i] + sbp[i]);
  }
  LogSamples("setup_s", setup);
  LogSamples("eps_auto_s", eps_auto);
  LogSamples("solve_s", solve);
  LogSamples("solve_f32_s", solve_f32);
  LogSamples("sbp_s", sbp);
  LogSamples("round_s", round);

  // Checks, each against a computation made apart from the solver.
  DenseMatrix checked = result64.beliefs;
  if (args.perturb) checked.At(n / 2, 0) += 1e-3;
  const double residual =
      FixedPointResidual(n, graph.edges(), hhat, e, checked);
  ledger.Check("fixed-point residual", residual <= kResidualBound,
               Fmt(residual) + " <= " + Fmt(kResidualBound));
  const double f1 =
      GroundTruthF1(result64.beliefs, scenario->ground_truth,
                    scenario->explicit_nodes);
  ledger.Check("ground-truth F1", f1 >= kF1Floor,
               Fmt(f1) + " >= " + Fmt(kF1Floor));
  std::int64_t oracle_levels = 0;
  const DenseMatrix oracle = SbpOracle(n, graph.edges(), hhat, e,
                                       scenario->explicit_nodes,
                                       &oracle_levels);
  const double sbp_diff = MaxAbsDiff(oracle, sbp_result.beliefs);
  ledger.Check("SBP vs BFS + Def. 15 recursion",
               sbp_diff <= 1e-9 && oracle_levels == sbp_result.max_geodesic,
               "max diff " + Fmt(sbp_diff) + ", levels " +
                   std::to_string(oracle_levels));
  const std::vector<int> labels64 = ArgmaxLabels(result64.beliefs);
  const std::vector<int> labels32 = ArgmaxLabels(result32.beliefs);
  std::int64_t flips = 0;
  for (std::int64_t v = 0; v < n; ++v) flips += labels64[v] != labels32[v];
  ledger.Check("f32 label flips",
               static_cast<double>(flips) <= kFlipBound * static_cast<double>(n),
               std::to_string(flips) + " of " + std::to_string(n));
  const double lemma23 = Lemma23Bound(n, graph.edges(),
                                      scenario->coupling_residual);
  ledger.Check("threshold above Lemma 23 bound", threshold >= lemma23,
               Fmt(threshold) + " >= " + Fmt(lemma23));

  if (!args.trace) {
    metrics.Set("setup_s", Median(setup), "s");
    metrics.Set("solve_s", FastDecile(solve), "s");
    metrics.Set("round_s", FastDecile(round), "s");
    metrics.Set("peak_rss_mb", peak_rss, "MB");
    std::cout << metrics.ResultJson(ledger) << std::endl;
    return 0;
  }

  // Traced run: the same calls, wrapped or made directly from here. Each
  // round runs the solve bare and through the counting wrapper, back to
  // back, so the overhead compares neighbouring solves.
  const linbp::engine::InMemoryBackend memory(&graph);
  TracingBackend traced(&memory);
  std::vector<double> product_time, self_time, trace_overhead;
  std::int64_t solve_products = 0, solve_sweeps = 0;
  for (int i = 0; i < kTracedRounds; ++i) {
    start = Now();
    ledger.Op(linbp::RunLinBp(graph, hhat, e, f64).converged);
    const double bare = Now() - start;
    traced.Reset();
    start = Now();
    const LinBpResult r = linbp::RunLinBp(traced, hhat, e, f64);
    const double wall = Now() - start;
    ledger.Op(r.converged);
    product_time.push_back(traced.product_seconds());
    self_time.push_back(wall - traced.product_seconds());
    trace_overhead.push_back(wall - bare);
    solve_products = traced.products();
    solve_sweeps = r.iterations;
  }
  // One round's products: the bisection, the f64 and the f32 solve (SBP
  // issues none).
  traced.Reset();
  linbp::ExactEpsilonThreshold(traced, coupling, LinBpVariant::kLinBp,
                               kEpsTolerance, ctx);
  const LinBpResult r32 = linbp::RunLinBp(traced, hhat, e, f32);
  ledger.Op(r32.converged);
  const std::int64_t round_products = traced.products() + solve_products;
  const std::int64_t round_sweeps = solve_sweeps + r32.iterations;

  const double layer_sum = Median(product_time) + Median(self_time);
  ReportReconcile("solve_s", layer_sum, Median(solve), &metrics);

  const double eps = 0.5 * threshold;
  const bool toy = args.size == Size::kToy;
  ProbeKernels(graph, result64.beliefs, ctx, &metrics);
  ProbeGraph(graph, &metrics);
  ProbeRegistry(graph, hhat, e, f64, kTracedRounds, &ledger, &metrics);
  if (!ProbeShardsOf(*scenario, eps, args.dir + "/shards", &ledger,
                     &metrics) ||
      !ProbeUpdates(*scenario, args.seed, toy ? 12 : 40, eps, 1, 3, false,
                    args.dir + "/updates", &ledger, &metrics)) {
    return 1;
  }
  metrics.Set("engine.solve_products", static_cast<double>(solve_products),
              "count");
  metrics.Set("engine.product_s", Median(product_time), "s");
  metrics.Set("engine.round_products", static_cast<double>(round_products),
              "count");
  metrics.Set("core.solve_sweeps", static_cast<double>(solve_sweeps), "count");
  metrics.Set("core.self_s", Median(self_time), "s");
  metrics.Set("core.round_sweeps", static_cast<double>(round_sweeps), "count");
  metrics.Set("core.sbp_s", FastDecile(sbp), "s");
  metrics.Set("core.sbp_levels", static_cast<double>(sbp_result.max_geodesic),
              "count");
  metrics.Set("dataset.scenario_build_s", Median(setup), "s");
  metrics.Set("obs.trace_overhead_s", Median(trace_overhead), "s");
  std::cout << metrics.ResultJson(ledger) << std::endl;
  return 0;
}

}  // namespace perfbench
