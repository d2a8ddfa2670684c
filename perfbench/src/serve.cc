// serve-sbm10k: live serving through cli::RunServe, the code behind
// `linbp_cli serve`, over in-process streams. One closed-loop client hands
// the REPL one line at a time: a GenerateUpdateTrace mix of add / delete /
// reweight / belief lines with `q` queries interleaved. The same trace is
// then replayed on SbpState, and SBP runs from scratch on the final graph.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>

#include "perfbench/src/harness.h"
#include "perfbench/src/probes.h"
#include "perfbench/src/repl.h"
#include "perfbench/src/workloads.h"
#include "src/core/convergence.h"
#include "src/core/linbp.h"
#include "src/core/sbp.h"
#include "src/core/sbp_incremental.h"
#include "src/dataset/snapshot.h"
#include "src/dataset/update_stream.h"

namespace perfbench {

namespace {

using linbp::dataset::UpdateKind;
using linbp::dataset::UpdateOp;
namespace fs = std::filesystem;

constexpr std::int64_t kUpdates = 40;  // a session of about 4 s
constexpr int kQueryEvery = 4;         // one `q` line after every 4 updates
// Sessions replay the same script from the same start until --seconds
// has passed, at least this many, so every update has repeats.
constexpr int kMinSessions = 3;
// Per round, besides the session: set-ups (about 0.2 s each) and, in the
// traced run, SBP samples of kSbpBatch calls (about 50 ms each).
constexpr int kSetupsPerRound = 2;
constexpr int kSbpPerRound = 6;
constexpr int kSbpBatch = 40;
constexpr double kParity = 1e-9;
// Half the Lemma 8 threshold of the workload graph,
// sbm:n=10000,k=3,deg=8,seed=1 (0.254476; see README). `serve --eps=auto`
// would spend seconds bisecting it before every session; the trace's
// start graph lacks the held-out edges, so its threshold is higher.
constexpr double kFullEps = 0.127238;

// The final problem, built here by applying the trace to the start edges
// and residuals (not through the program's update code).
struct Problem {
  std::vector<Edge> edges;
  DenseMatrix residuals;
  std::vector<std::int64_t> explicit_nodes;
};

Problem ApplyTrace(const std::vector<Edge>& start_edges,
                   const DenseMatrix& start_residuals,
                   const std::vector<std::int64_t>& start_explicit,
                   const std::vector<UpdateOp>& ops) {
  std::map<std::pair<std::int64_t, std::int64_t>, double> edges;
  for (const Edge& e : start_edges) {
    edges[{std::min(e.u, e.v), std::max(e.u, e.v)}] = e.weight;
  }
  Problem problem;
  problem.residuals = start_residuals;
  std::set<std::int64_t> explicit_nodes(start_explicit.begin(),
                                        start_explicit.end());
  for (const UpdateOp& op : ops) {
    const std::pair<std::int64_t, std::int64_t> key{std::min(op.u, op.v),
                                                    std::max(op.u, op.v)};
    switch (op.kind) {
      case UpdateKind::kAddEdge:
      case UpdateKind::kReweightEdge:
        edges[key] = op.weight;
        break;
      case UpdateKind::kDeleteEdge:
        edges.erase(key);
        break;
      case UpdateKind::kBeliefUpdate:
        for (std::size_t c = 0; c < op.residuals.size(); ++c) {
          problem.residuals.At(op.u, static_cast<std::int64_t>(c)) =
              op.residuals[c];
        }
        explicit_nodes.insert(op.u);
        break;
    }
  }
  for (const auto& [key, weight] : edges) {
    problem.edges.push_back({key.first, key.second, weight});
  }
  problem.explicit_nodes.assign(explicit_nodes.begin(), explicit_nodes.end());
  return problem;
}

}  // namespace

int RunServeWorkload(const Args& args) {
  const std::string spec =
      std::string(args.size == Size::kFull ? "sbm:n=10000" : "sbm:n=500") +
      ",k=3,deg=8";
  const std::int64_t num_updates = kUpdates;
  const linbp::exec::ExecContext ctx = linbp::exec::ExecContext::WithThreads(1);
  const std::string snapshot = (fs::path(args.dir) / "start.lbps").string();
  Ledger ledger;
  Metrics metrics;
  std::string error;
  fs::create_directories(args.dir);

  linbp::cli::ServeOptions options;
  options.scenario = "snap:path=" + snapshot;
  options.threads = 1;
  double eps = kFullEps;

  // One set-up: scenario, trace generation, start snapshot, and RunServe
  // until its first reply (a one-line probe session). It runs once here
  // and kSetupsPerRound more times in every round, so its median samples
  // the whole run; each one rewrites the same snapshot.
  std::vector<double> setup, scenario_build;
  std::optional<linbp::dataset::Scenario> scenario;
  linbp::dataset::UpdateTrace trace;
  auto set_up = [&]() {
    const double start = Now();
    scenario = MakeWorkloadScenario(spec, args.seed, ctx, &error);
    scenario_build.push_back(Now() - start);
    if (!ledger.Op(scenario.has_value())) {
      std::cerr << "serve: " << error << '\n';
      return false;
    }
    linbp::dataset::UpdateTraceOptions trace_options;
    trace_options.num_ops = num_updates;
    trace_options.seed = args.seed;
    trace = linbp::dataset::GenerateUpdateTrace(*scenario, trace_options);
    linbp::dataset::Scenario start_scenario = *scenario;
    start_scenario.graph = Graph(scenario->graph.num_nodes(), trace.start_edges);
    if (!ledger.Op(linbp::dataset::SaveSnapshot(start_scenario, snapshot,
                                                &error))) {
      std::cerr << "serve: " << error << '\n';
      return false;
    }
    if (args.size == Size::kToy) {
      eps = 0.5 * linbp::ExactEpsilonThreshold(start_scenario.graph,
                                               start_scenario.Coupling(),
                                               linbp::LinBpVariant::kLinBp);
    }
    options.eps = Fmt17(eps);
    const Session probe = Serve(options, {"q 0"}, start);
    if (!ledger.Op(probe.exit_code == 0 && !probe.written.empty())) return false;
    setup.push_back(probe.setup_seconds);
    return true;
  };
  if (!set_up()) return 1;

  // The measured session: the trace with interleaved queries, then labels.
  std::vector<std::string> script(1, "q 0");
  std::vector<bool> is_update;  // per script line after the probe
  std::mt19937_64 rng(args.seed);
  for (std::size_t u = 0; u < trace.ops.size(); ++u) {
    script.push_back(linbp::dataset::FormatUpdateOp(trace.ops[u]));
    is_update.push_back(true);
    if ((u + 1) % kQueryEvery == 0) {
      script.push_back(
          "q " + std::to_string(rng() % static_cast<std::uint64_t>(
                                            scenario->graph.num_nodes())));
      is_update.push_back(false);
    }
  }
  script.push_back("labels");
  is_update.push_back(false);

  const auto start_state = linbp::dataset::LoadSnapshot(snapshot, &error);
  if (!ledger.Op(start_state.has_value())) {
    std::cerr << "serve: " << error << '\n';
    return 1;
  }
  const DenseMatrix hhat = start_state->Coupling().ScaledResidual(eps);
  const std::int64_t n = scenario->graph.num_nodes();

  // The final problem, built here from the trace, for sbp_s and the checks.
  const Problem final_problem =
      ApplyTrace(trace.start_edges, start_state->explicit_residuals,
                 start_state->explicit_nodes, trace.ops);
  const Graph final_graph(n, final_problem.edges);
  // core.sbp_s: RunSbp from scratch on the final graph. One call takes
  // about a millisecond, so a sample is kSbpBatch calls.
  std::vector<double> sbp_s;
  linbp::SbpResult sbp_cold;
  auto sample_sbp = [&]() {
    const double start = Now();
    for (int i = 0; i < kSbpBatch; ++i) {
      sbp_cold = linbp::RunSbp(final_graph, hhat, final_problem.residuals,
                               final_problem.explicit_nodes, ctx);
      ledger.Op(true);
    }
    sbp_s.push_back((Now() - start) / kSbpBatch);
  };

  // Per update: line handed to the REPL -> its reply written, the fastest
  // over the sessions (each session does the same work).
  std::vector<double> fastest(static_cast<std::size_t>(num_updates), INFINITY);
  std::vector<double> session_s, session_update_s;
  std::int64_t ok_replies = 0, query_ok = 0, queries = 0;
  Session session;
  const double measure_start = Now();
  for (int round = 0;
       round < kMinSessions || Now() - measure_start < args.seconds; ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      if (!set_up()) return 1;
    }
    for (int i = 0; args.trace && i < kSbpPerRound; ++i) sample_sbp();
    session = Serve(options, script, Now());
    if (!ledger.Op(session.exit_code == 0 &&
                   session.replies.size() == script.size() +
                                                 static_cast<std::size_t>(n) -
                                                 1)) {
      std::cerr << "serve: session ended early\n";
      return 1;
    }
    // The whole session: first update handed to the last reply written.
    session_s.push_back(session.written.back() - session.handed[1]);
    double update_total = 0.0;
    std::size_t update = 0;
    for (std::size_t line = 0; line + 1 < script.size(); ++line) {
      const std::size_t reply = line + 1;  // reply 0 answers the probe
      const std::string& text = session.replies[reply];
      if (is_update[line]) {
        const std::size_t u = update++;
        if (!ledger.Op(text.rfind("ok sweeps=", 0) == 0)) continue;
        ++ok_replies;
        const double latency =
            session.written[reply] - session.handed[line + 1];
        update_total += latency;
        fastest[u] = std::min(fastest[u], latency);
      } else if (script[line + 1] != "labels") {
        ++queries;
        query_ok +=
            ledger.Op(text.rfind(script[line + 1].substr(2) + " ", 0) == 0);
      }
    }
    session_update_s.push_back(update_total);
  }
  const std::int64_t sessions = static_cast<std::int64_t>(session_s.size());
  ledger.Check("every update replies ok", ok_replies == sessions * num_updates,
               std::to_string(ok_replies) + " of " +
                   std::to_string(sessions * num_updates));
  ledger.Check("every query answers its node", query_ok == queries,
               std::to_string(query_ok) + " of " + std::to_string(queries));
  std::vector<double> latency;
  for (const double s : fastest) {
    if (std::isfinite(s)) latency.push_back(s);
  }

  if (sbp_s.empty()) sample_sbp();  // the check below needs one

  // A cold solve of the final problem.
  linbp::LinBpOptions serve_options;  // what RunServe sets
  serve_options.max_iterations = 1000;
  serve_options.exec = ctx;
  const linbp::LinBpResult cold = linbp::RunLinBp(
      final_graph, hhat, final_problem.residuals, serve_options);
  ledger.Op(cold.converged);
  // Warm labels from the session's final `labels` reply against the cold
  // argmax; a differing label is allowed only on a numerical tie.
  const bool labels_present =
      session.replies.size() >= static_cast<std::size_t>(n) + 1;
  std::int64_t label_mismatches = labels_present ? 0 : n;
  const std::size_t labels_begin =
      labels_present ? session.replies.size() - n : 0;
  for (std::int64_t v = 0; labels_present && v < n; ++v) {
    std::istringstream fields(session.replies[labels_begin + v]);
    std::int64_t node = -1;
    int cls = -1;
    fields >> node >> cls;
    double best = -INFINITY;
    for (std::int64_t c = 0; c < cold.beliefs.cols(); ++c) {
      best = std::max(best, cold.beliefs.At(v, c));
    }
    if (node != v || cls < 0 || cls >= cold.beliefs.cols() ||
        cold.beliefs.At(v, cls) < best - kParity) {
      ++label_mismatches;
    }
  }
  ledger.Check("warm serve labels == cold solve of the final graph",
               label_mismatches == 0,
               std::to_string(label_mismatches) + " of " + std::to_string(n) +
                   " differ beyond a " + Fmt(kParity) + " tie");

  // SBP: the trace replayed on SbpState must end where RunSbp from
  // scratch on the final graph does.
  linbp::SbpState sbp = linbp::SbpState::FromGraph(
      start_state->graph, hhat, start_state->explicit_residuals,
      start_state->explicit_nodes, ctx);
  bool replay_ok = true;
  for (const UpdateOp& op : trace.ops) {
    replay_ok = linbp::dataset::ApplyUpdateOp(op, &sbp, &error) >= 0 &&
                replay_ok;
  }
  ledger.Op(replay_ok);
  const double sbp_diff = MaxAbsDiff(sbp.beliefs(), sbp_cold.beliefs);
  ledger.Check("warm SBP == cold SBP of the final graph", sbp_diff <= kParity,
               "max diff " + Fmt(sbp_diff));

  const double peak_rss = PeakRssMb();
  LogSamples("setup_s", setup);
  LogSamples("update_s (fastest per update)", latency);
  LogSamples("session_s", session_s);
  LogSamples("sbp_s", sbp_s);
  std::cerr << "update p95 (fastest per update): "
            << Fmt(Percentile(latency, 0.95)) << " s\n";

  if (!args.trace) {
    metrics.Set("setup_s", Median(setup), "s");
    metrics.Set("solve_s", Percentile(latency, 0.50), "s");
    metrics.Set("round_s", FastDecile(session_s), "s");
    metrics.Set("peak_rss_mb", peak_rss, "MB");
    std::cout << metrics.ResultJson(ledger) << std::endl;
    return 0;
  }

  // Traced run: the update probe replays the same trace (same seed and
  // length) through RunServe and two mirror LinBpStates; its per-update
  // figures are this workload's per-solve ones.
  const auto probe =
      ProbeUpdates(*scenario, args.seed, num_updates, eps, 1, 10, true,
                   args.dir + "/updates", &ledger, &metrics);
  if (!probe.has_value()) return 1;
  const double mirror_diff = MaxAbsDiff(probe->mirror_beliefs, cold.beliefs);
  ledger.Check("warm mirror LinBpState == cold solve", mirror_diff <= kParity,
               "max diff " + Fmt(mirror_diff));
  ProbeKernels(final_graph, cold.beliefs, ctx, &metrics);
  ProbeGraph(final_graph, &metrics);
  ProbeRegistry(final_graph, hhat, final_problem.residuals, serve_options, 5,
                &ledger, &metrics);
  if (!ProbeShardsOf(*scenario, eps, args.dir + "/shards", &ledger,
                     &metrics)) {
    return 1;
  }
  std::vector<double> self_s;
  double round_products = 0.0, round_sweeps = 0.0;
  for (std::size_t u = 0; u < probe->mirror_latency.size(); ++u) {
    self_s.push_back(probe->mirror_latency[u] - probe->product_seconds[u]);
    round_products += probe->products[u];
  }
  for (const double sweeps : probe->sweeps) round_sweeps += sweeps;
  auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  ReportReconcile("serve update time", probe->mirror_wall[1],
                  Median(session_update_s), &metrics);

  metrics.Set("engine.solve_products", mean(probe->products), "count");
  metrics.Set("engine.product_s", mean(probe->product_seconds), "s");
  metrics.Set("engine.round_products", round_products, "count");
  metrics.Set("core.solve_sweeps", mean(probe->sweeps), "count");
  metrics.Set("core.self_s", mean(self_s), "s");
  metrics.Set("core.round_sweeps", round_sweeps, "count");
  metrics.Set("core.sbp_s", FastDecile(sbp_s), "s");
  metrics.Set("core.sbp_levels", static_cast<double>(sbp_cold.max_geodesic),
              "count");
  metrics.Set("dataset.scenario_build_s", Median(scenario_build), "s");
  metrics.Set("obs.trace_overhead_s",
              probe->mirror_wall[1] - probe->mirror_wall[0], "s");
  std::cout << metrics.ResultJson(ledger) << std::endl;
  return 0;
}

}  // namespace perfbench
