#include "perfbench/src/probes.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>

#include "perfbench/src/repl.h"
#include "src/core/coupling.h"
#include "src/core/linbp_incremental.h"
#include "src/core/sbp_incremental.h"
#include "src/dataset/format_internal.h"
#include "src/dataset/shard.h"
#include "src/dataset/shard_stream.h"
#include "src/dataset/snapshot.h"
#include "src/engine/in_memory_backend.h"
#include "src/engine/shard_stream_backend.h"
#include "src/obs/metrics.h"

namespace perfbench {

namespace {

using linbp::LinBpOptions;
using linbp::dataset::UpdateKind;
using linbp::dataset::UpdateOp;
using linbp::engine::ShardStreamBackend;
namespace fs = std::filesystem;
namespace internal = linbp::dataset::internal;

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double x : values) sum += x;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

// One sweep's worth of the shard-read layers, each timed from outside:
// file read, checksum, column decode, and the whole ReadBlock.
struct SweepLayers {
  double read = 0.0, checksum = 0.0, decode = 0.0, read_block = 0.0;
};

SweepLayers TimeShardLayers(const std::string& manifest) {
  std::string error;
  const auto info = linbp::dataset::ReadShardManifestInfo(manifest, &error);
  const auto reader = linbp::dataset::ShardStreamReader::Open(manifest, &error);
  SweepLayers layers;
  if (!info.has_value() || !reader.has_value()) return layers;
  for (std::size_t s = 0; s < info->shards.size(); ++s) {
    const auto& shard = info->shards[s];
    const std::string path =
        (fs::path(manifest).parent_path() / shard.file).string();
    std::vector<char> bytes;
    double start = Now();
    internal::ReadFileBytes(path, &bytes, &error);
    layers.read += Now() - start;
    const char* payload = bytes.data() + internal::kHeaderBytes;
    const std::size_t payload_size = bytes.size() - internal::kHeaderBytes;
    start = Now();
    volatile std::uint64_t sum = internal::Fnv1a(payload, payload_size);
    (void)sum;
    layers.checksum += Now() - start;
    std::uint64_t encoded = 0;
    std::memcpy(&encoded, payload, 8);
    const std::int64_t rows = shard.row_end - shard.row_begin;
    std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(rows + 1));
    std::vector<std::int32_t> col_idx(static_cast<std::size_t>(shard.nnz));
    std::string what;
    start = Now();
    internal::DecodeColumnSection(payload + 8, encoded, rows, shard.nnz,
                                  info->num_nodes, row_ptr.data(),
                                  col_idx.data(), &what);
    layers.decode += Now() - start;
    linbp::dataset::ShardStreamBlock block;
    start = Now();
    reader->ReadBlock(static_cast<std::int64_t>(s), &block, &error);
    layers.read_block += Now() - start;
  }
  return layers;
}

double PrefetchStallSum() {
  return linbp::obs::Registry::Global()
      .GetHistogram("pipeline_prefetch_stall_seconds")
      .Snapshot()
      .sum;
}

bool IsEdgeOp(const UpdateOp& op) {
  return op.kind != UpdateKind::kBeliefUpdate;
}

}  // namespace

void ProbeKernels(const Graph& graph, const DenseMatrix& beliefs,
                  const linbp::exec::ExecContext& ctx, Metrics* metrics) {
  const linbp::SparseMatrix& a = graph.adjacency();
  const std::int64_t n = graph.num_nodes();
  const DenseMatrixF32 b32 = DenseMatrixF32::FromF64(beliefs);
  const std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> spmm, spmm32, spmv;
  for (int i = 0; i < 15; ++i) {
    double start = Now();
    DenseMatrix out = a.MultiplyDense(beliefs, ctx);
    spmm.push_back(Now() - start);
    start = Now();
    DenseMatrixF32 out32 = a.MultiplyDenseF32(b32, ctx);
    spmm32.push_back(Now() - start);
    start = Now();
    std::vector<double> y = a.MultiplyVector(x, ctx);
    spmv.push_back(Now() - start);
  }
  const double nnz = static_cast<double>(a.NumNonZeros());
  const double k = static_cast<double>(beliefs.cols());
  // Computed bytes of one SpMM: CSR arrays, one gathered B row per entry,
  // one written output row per node. Cache hits are not modelled.
  const double spmm_bytes = nnz * (8.0 + 4.0 + 8.0 * k) +
                            static_cast<double>(n + 1) * 8.0 +
                            static_cast<double>(n) * 8.0 * k;
  metrics->Set("la.spmm_s", Median(spmm), "s");
  metrics->Set("la.spmm_f32_s", Median(spmm32), "s");
  metrics->Set("la.spmv_s", Median(spmv), "s");
  metrics->Set("la.spmm_gbps", spmm_bytes / Median(spmm) / 1e9, "GB/s");
}

void ProbeGraph(const Graph& graph, Metrics* metrics) {
  std::vector<double> build_s, copy_s;
  for (int i = 0; i < 5; ++i) {
    double start = Now();
    const Graph built(graph.num_nodes(), graph.edges());
    build_s.push_back(Now() - start);
    start = Now();
    const Graph copy = built;
    copy_s.push_back(Now() - start);
  }
  metrics->Set("graph.build_s", Median(build_s), "s");
  metrics->Set("graph.copy_s", Median(copy_s), "s");
}

void ProbeRegistry(const Graph& graph, const DenseMatrix& hhat,
                   const DenseMatrix& e, const LinBpOptions& options,
                   int pairs, Ledger* ledger, Metrics* metrics) {
  std::vector<double> cost;
  for (int i = 0; i < pairs; ++i) {
    double start = Now();
    ledger->Op(linbp::RunLinBp(graph, hhat, e, options).converged);
    const double enabled = Now() - start;
    linbp::obs::Registry::Global().SetEnabled(false);
    start = Now();
    ledger->Op(linbp::RunLinBp(graph, hhat, e, options).converged);
    cost.push_back(enabled - (Now() - start));
    linbp::obs::Registry::Global().SetEnabled(true);
  }
  metrics->Set("obs.registry_overhead_s", Median(cost), "s");
}

ShardSets ShardSetsIn(const std::string& dir) {
  const std::string name = linbp::dataset::ShardManifestFileName();
  return {(fs::path(dir) / "f64" / name).string(),
          (fs::path(dir) / "f32" / name).string()};
}

bool WriteShardSets(const linbp::dataset::Scenario& scenario,
                    const std::string& dir, std::string* error) {
  for (const auto& [set, compression] :
       {std::pair{"f64", linbp::dataset::ShardCompression::kF64},
        std::pair{"f32", linbp::dataset::ShardCompression::kF32}}) {
    const fs::path path = fs::path(dir) / set;
    fs::create_directories(path);
    if (!linbp::dataset::ShardSnapshot(scenario, kShards, path.string(), error,
                                       compression)) {
      return false;
    }
  }
  return true;
}

std::int64_t ShardFileBytes(const std::string& manifest) {
  std::string error;
  const auto info = linbp::dataset::ReadShardManifestInfo(manifest, &error);
  if (!info.has_value()) return -1;
  std::int64_t total = 0;
  for (const auto& shard : info->shards) {
    total += static_cast<std::int64_t>(
        fs::file_size(fs::path(manifest).parent_path() / shard.file));
  }
  return total;
}

std::int64_t CoveringBudget(const std::string& manifest, std::string* error) {
  const auto reader = linbp::dataset::ShardStreamReader::Open(manifest, error);
  if (!reader.has_value()) return -1;
  std::int64_t budget = 0;
  for (std::int64_t s = 0; s < reader->num_shards(); ++s) {
    budget += reader->block_csr_bytes(s);
  }
  return budget;
}

LinBpOptions StreamOptions(linbp::Precision precision) {
  LinBpOptions options;
  options.exec = linbp::exec::ExecContext::WithThreads(kStreamLanes);
  if (precision == linbp::Precision::kF32) {
    options.precision = precision;
    options.tolerance = 1e-6;
  }
  return options;
}

std::optional<StreamSolve> SolveStreamed(const std::string& manifest,
                                         double eps,
                                         const LinBpOptions& options,
                                         std::int64_t cache_budget,
                                         bool traced) {
  StreamSolve solve;
  std::string error;
  const double start = Now();
  auto backend = ShardStreamBackend::Open(manifest, &error, options.exec,
                                          cache_budget);
  solve.open_seconds = Now() - start;
  if (!backend.has_value()) {
    std::cerr << "stream: " << error << '\n';
    return std::nullopt;
  }
  const std::int64_t bytes_before = backend->reader().file_bytes_read_total();
  const DenseMatrix hhat =
      linbp::CouplingMatrix::FromResidual(backend->coupling_residual())
          .ScaledResidual(eps);
  if (traced) {
    const TracingBackend wrapper(&*backend);
    solve.result = linbp::RunLinBp(wrapper, hhat,
                                   backend->explicit_residuals(), options);
    solve.products = wrapper.products();
    solve.product_seconds = wrapper.product_seconds();
  } else {
    solve.result = linbp::RunLinBp(*backend, hhat,
                                   backend->explicit_residuals(), options);
  }
  solve.seconds = Now() - start;
  solve.bytes_after_open =
      backend->reader().file_bytes_read_total() - bytes_before;
  solve.peak_resident = backend->reader().peak_resident_csr_bytes();
  if (backend->cache() != nullptr) {
    solve.cache_hits = backend->cache()->hits_total();
    solve.cache_lookups = solve.cache_hits + backend->cache()->misses_total();
  }
  return solve;
}

std::optional<ShardProbe> ProbeShards(const ShardSets& sets, double eps,
                                      int rounds, Ledger* ledger,
                                      Metrics* metrics) {
  const LinBpOptions f64 = StreamOptions(linbp::Precision::kF64);
  const LinBpOptions f32 = StreamOptions(linbp::Precision::kF32);
  std::string error;
  const std::int64_t budget = CoveringBudget(sets.f64_manifest, &error);
  if (!ledger->Op(budget > 0)) {
    std::cerr << "shard probe: " << error << '\n';
    return std::nullopt;
  }
  ShardProbe probe;
  std::vector<double> stall_s, read_s, checksum_s, decode_s, read_block_s;
  std::int64_t peak_resident = 0;
  for (int i = 0; i < rounds; ++i) {
    const double stall_before = PrefetchStallSum();
    const auto solve = SolveStreamed(sets.f64_manifest, eps, f64, 0, true);
    if (!ledger->Op(solve.has_value() && solve->result.converged)) {
      return std::nullopt;
    }
    stall_s.push_back(PrefetchStallSum() - stall_before);
    probe.open_s.push_back(solve->open_seconds);
    probe.product_s.push_back(solve->product_seconds);
    probe.self_s.push_back(solve->seconds - solve->open_seconds -
                           solve->product_seconds);
    probe.wall_s.push_back(solve->seconds);
    probe.products = solve->products;
    probe.sweeps = solve->result.iterations;
    peak_resident = std::max(peak_resident, solve->peak_resident);
    const SweepLayers layers = TimeShardLayers(sets.f64_manifest);
    read_s.push_back(layers.read);
    checksum_s.push_back(layers.checksum);
    decode_s.push_back(layers.decode);
    read_block_s.push_back(layers.read_block);
  }
  const auto narrow = SolveStreamed(sets.f32_manifest, eps, f32, 0, true);
  const auto cached = SolveStreamed(sets.f64_manifest, eps, f64, budget, true);
  if (!ledger->Op(narrow.has_value() && narrow->result.converged) ||
      !ledger->Op(cached.has_value() && cached->result.converged)) {
    return std::nullopt;
  }
  probe.round_products = probe.products + narrow->products + cached->products;
  probe.round_sweeps = probe.sweeps + narrow->result.iterations +
                       cached->result.iterations;
  const double product_per_sweep =
      Median(probe.product_s) /
      static_cast<double>(std::max<std::int64_t>(1, probe.products));

  metrics->Set("engine.stream_open_s", Median(probe.open_s), "s");
  metrics->Set("engine.cache_hit_rate",
               static_cast<double>(cached->cache_hits) /
                   static_cast<double>(
                       std::max<std::int64_t>(1, cached->cache_lookups)),
               "share");
  metrics->Set("dataset.read_s", Median(read_s), "s");
  metrics->Set("dataset.checksum_s", Median(checksum_s), "s");
  metrics->Set("dataset.decode_s", Median(decode_s), "s");
  metrics->Set("dataset.read_block_s", Median(read_block_s), "s");
  metrics->Set("dataset.bytes_per_sweep",
               static_cast<double>(ShardFileBytes(sets.f64_manifest)),
               "bytes");
  metrics->Set("dataset.bytes_per_sweep_f32",
               static_cast<double>(ShardFileBytes(sets.f32_manifest)),
               "bytes");
  metrics->Set("dataset.peak_resident_csr_mb",
               static_cast<double>(peak_resident) / (1024.0 * 1024.0), "MB");
  metrics->Set("exec.prefetch_stall_s", Median(stall_s), "s");
  metrics->Set("exec.serial_stage_share",
               Median(read_block_s) / product_per_sweep, "share");
  return probe;
}

bool ProbeShardsOf(const linbp::dataset::Scenario& scenario, double eps,
                   const std::string& dir, Ledger* ledger, Metrics* metrics) {
  std::string error;
  const double start = Now();
  if (!ledger->Op(WriteShardSets(scenario, dir, &error))) {
    std::cerr << "shard probe: " << error << '\n';
    return false;
  }
  metrics->Set("dataset.shard_write_s", Now() - start, "s");
  return ProbeShards(ShardSetsIn(dir), eps, 3, ledger, metrics).has_value();
}

std::optional<UpdateProbe> ProbeUpdates(
    const linbp::dataset::Scenario& scenario, std::uint64_t seed,
    std::int64_t num_ops, double eps, int threads, int sbp_replays,
    bool bare_mirror, const std::string& dir, Ledger* ledger,
    Metrics* metrics) {
  const linbp::exec::ExecContext ctx =
      linbp::exec::ExecContext::WithThreads(threads);
  std::string error;
  linbp::dataset::UpdateTraceOptions trace_options;
  trace_options.num_ops = num_ops;
  trace_options.seed = seed;
  std::vector<double> trace_gen;
  linbp::dataset::UpdateTrace trace;
  for (int i = 0; i < 3; ++i) {
    const double start = Now();
    trace = linbp::dataset::GenerateUpdateTrace(scenario, trace_options);
    trace_gen.push_back(Now() - start);
  }
  linbp::dataset::Scenario start_scenario = scenario;
  start_scenario.graph = Graph(scenario.graph.num_nodes(), trace.start_edges);
  fs::create_directories(dir);
  const std::string snapshot = (fs::path(dir) / "start.lbps").string();
  if (!ledger->Op(linbp::dataset::SaveSnapshot(start_scenario, snapshot,
                                               &error))) {
    std::cerr << "update probe: " << error << '\n';
    return std::nullopt;
  }

  // RunServe over the trace; the first line is a set-up probe.
  linbp::cli::ServeOptions options;
  options.scenario = "snap:path=" + snapshot;
  options.threads = threads;
  options.eps = Fmt17(eps);
  std::vector<std::string> script(1, "q 0");
  for (const UpdateOp& op : trace.ops) {
    script.push_back(linbp::dataset::FormatUpdateOp(op));
  }
  const double probe_start = Now();
  const Session session = Serve(options, script, probe_start);
  if (!ledger->Op(session.exit_code == 0 &&
                  session.replies.size() == script.size())) {
    return std::nullopt;
  }
  UpdateProbe probe;
  std::vector<double> sweeps_edge, sweeps_belief;
  for (std::size_t u = 0; u < trace.ops.size(); ++u) {
    const std::string& text = session.replies[u + 1];
    if (!ledger->Op(text.rfind("ok sweeps=", 0) == 0)) continue;
    probe.session_latency.push_back(session.written[u + 1] -
                                    session.handed[u + 1]);
    const double sweeps = std::atof(text.c_str() + 10);
    probe.sweeps.push_back(sweeps);
    (IsEdgeOp(trace.ops[u]) ? sweeps_edge : sweeps_belief).push_back(sweeps);
  }

  const double session_end = Now();

  // A mirror LinBpState with the options RunServe sets, replayed over the
  // counting wrapper and, if asked, bare as well.
  const DenseMatrix hhat = scenario.Coupling().ScaledResidual(eps);
  LinBpOptions mirror_options;
  mirror_options.max_iterations = 1000;
  mirror_options.exec = ctx;
  mirror_options.estimate_spectral_radius = true;
  std::vector<double> products_edge, products_belief;
  DenseMatrix beliefs[2];
  for (int traced = bare_mirror ? 0 : 1; traced < 2; ++traced) {
    auto graph = std::make_shared<Graph>(start_scenario.graph);
    auto memory =
        std::make_shared<linbp::engine::InMemoryBackend>(graph.get());
    auto wrapper = std::make_shared<TracingBackend>(memory.get());
    std::shared_ptr<const linbp::engine::PropagationBackend> backend =
        traced ? std::static_pointer_cast<
                     const linbp::engine::PropagationBackend>(wrapper)
               : memory;
    linbp::LinBpState state(graph, backend, hhat,
                            start_scenario.explicit_residuals, mirror_options);
    for (const UpdateOp& op : trace.ops) {
      wrapper->Reset();
      const double start = Now();
      const int sweeps = linbp::dataset::ApplyUpdateOp(op, &state, &error);
      const double seconds = Now() - start;
      ledger->Op(sweeps >= 0);
      probe.mirror_wall[traced] += seconds;
      if (!traced) continue;
      const double products = static_cast<double>(wrapper->products());
      probe.mirror_latency.push_back(seconds);
      probe.product_seconds.push_back(wrapper->product_seconds());
      probe.products.push_back(products);
      (IsEdgeOp(op) ? products_edge : products_belief).push_back(products);
    }
    beliefs[traced] = state.beliefs();
  }
  if (bare_mirror) {
    ledger->Check("traced mirror LinBpState == bare mirror (memcmp)",
                  SameBytes(beliefs[0], beliefs[1]),
                  std::to_string(trace.ops.size()) + " updates");
  }
  probe.mirror_beliefs = beliefs[1];

  const double mirrors_end = Now();

  // SbpState: the whole trace from a fresh bootstrap (not timed).
  std::vector<double> replay_s;
  std::int64_t recomputed = 0;
  for (int i = 0; i < sbp_replays; ++i) {
    linbp::SbpState sbp = linbp::SbpState::FromGraph(
        start_scenario.graph, hhat, start_scenario.explicit_residuals,
        start_scenario.explicit_nodes, ctx);
    recomputed = 0;
    bool ok = true;
    const double start = Now();
    for (const UpdateOp& op : trace.ops) {
      ok = linbp::dataset::ApplyUpdateOp(op, &sbp, &error) >= 0 && ok;
      recomputed += sbp.last_update_recomputed_nodes();
    }
    replay_s.push_back(Now() - start);
    ledger->Op(ok);
  }

  std::cerr << "update probe: " << trace.ops.size() << " updates; session "
            << Fmt(session_end - probe_start) << " s, mirrors "
            << Fmt(mirrors_end - session_end) << " s, SbpState replays "
            << Fmt(Now() - mirrors_end) << " s\n";

  // ParseUpdateLine alone: the lines are formatted beforehand, and each
  // sample parses at least 2000 of them.
  const std::size_t repeats =
      std::max<std::size_t>(1, 2000 / std::max<std::size_t>(1, trace.ops.size()));
  std::vector<double> parse_us;
  for (int i = 0; i < 5; ++i) {
    UpdateOp op;
    const double start = Now();
    for (std::size_t r = 0; r < repeats; ++r) {
      for (std::size_t line = 1; line < script.size(); ++line) {
        linbp::dataset::ParseUpdateLine(script[line], scenario.k, &op, &error);
      }
    }
    parse_us.push_back(1e6 * (Now() - start) /
                       static_cast<double>(repeats * trace.ops.size()));
  }

  metrics->Set("dataset.trace_gen_s", Median(trace_gen), "s");
  metrics->Set("dataset.parse_update_us", Median(parse_us), "us");
  metrics->Set("core.warm_sweeps_edge", Mean(sweeps_edge), "count");
  metrics->Set("core.warm_sweeps_belief", Mean(sweeps_belief), "count");
  metrics->Set("core.products_per_edge_update", Mean(products_edge), "count");
  metrics->Set("core.products_per_belief_update", Mean(products_belief),
               "count");
  metrics->Set("core.sbp_recomputed_nodes", static_cast<double>(recomputed),
               "count");
  metrics->Set("core.sbp_replay_s", Median(replay_s), "s");
  metrics->Set("tools.serve_overhead_ms",
               1e3 * (Percentile(probe.session_latency, 0.50) -
                      Percentile(probe.mirror_latency, 0.50)),
               "ms");
  return probe;
}

}  // namespace perfbench
