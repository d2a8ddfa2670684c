// Layer probes of the traced run. Each one calls a layer's public
// functions on the workload's own graph, from the benchmark's files, so
// that every workload reports every layer: the layers its own path goes
// through, and the streaming and update layers at the stream and serve
// workloads' settings where its path does not go through them.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"
#include "src/core/linbp.h"
#include "src/dataset/scenario.h"
#include "src/dataset/update_stream.h"

namespace perfbench {

/// Lanes and shard count of the streamed solves (stream workload and the
/// shard probe).
inline constexpr int kStreamLanes = 2;
inline constexpr std::int64_t kShards = 8;

/// la.spmm_s, la.spmm_f32_s, la.spmv_s, la.spmm_gbps: one product on the
/// graph's adjacency matrix at the solve's operand shapes, median of 15.
void ProbeKernels(const Graph& graph, const DenseMatrix& beliefs,
                  const linbp::exec::ExecContext& ctx, Metrics* metrics);

/// graph.build_s, graph.copy_s: Graph(n, edges) and a copy, median of 5.
void ProbeGraph(const Graph& graph, Metrics* metrics);

/// obs.registry_overhead_s: a cold in-memory f64 solve with the obs
/// Registry enabled minus one with it disabled, median of `pairs`
/// neighbouring pairs.
void ProbeRegistry(const Graph& graph, const DenseMatrix& hhat,
                   const DenseMatrix& e, const linbp::LinBpOptions& options,
                   int pairs, Ledger* ledger, Metrics* metrics);

// ---- Shards ----------------------------------------------------------

/// The v2-f64 and v2-f32 shard sets under one directory.
struct ShardSets {
  std::string f64_manifest;
  std::string f32_manifest;
};
ShardSets ShardSetsIn(const std::string& dir);

/// Writes both shard sets of `scenario` (kShards shards each).
bool WriteShardSets(const linbp::dataset::Scenario& scenario,
                    const std::string& dir, std::string* error);

/// On-disk bytes of all shard files of a manifest.
std::int64_t ShardFileBytes(const std::string& manifest);

/// The sum of the shards' decoded CSR bytes: a cache budget every block
/// fits in. -1 on error.
std::int64_t CoveringBudget(const std::string& manifest, std::string* error);

/// f64 (to 1e-12) or f32 (to 1e-6) solve options on kStreamLanes lanes.
linbp::LinBpOptions StreamOptions(linbp::Precision precision);

struct StreamSolve {
  double open_seconds = 0.0;
  double seconds = 0.0;  // Open + solve
  std::int64_t bytes_after_open = 0;
  std::int64_t cache_hits = 0;
  std::int64_t cache_lookups = 0;
  std::int64_t peak_resident = 0;
  std::int64_t products = 0;     // traced solves only
  double product_seconds = 0.0;  // traced solves only
  linbp::LinBpResult result;
};

/// ShardStreamBackend::Open on `manifest`, then a solve at `eps`;
/// `traced` wraps the backend's products in a TracingBackend.
std::optional<StreamSolve> SolveStreamed(const std::string& manifest,
                                         double eps,
                                         const linbp::LinBpOptions& options,
                                         std::int64_t cache_budget,
                                         bool traced);

/// What the shard probe measured on the uncached f64 solves, for the
/// stream workload's own path metrics.
struct ShardProbe {
  std::vector<double> open_s, product_s, self_s, wall_s;
  std::int64_t products = 0;  // one uncached solve
  std::int64_t sweeps = 0;
  std::int64_t round_products = 0;  // uncached + f32 + cached
  std::int64_t round_sweeps = 0;
};

/// Traced streamed solves of both sets (uncached f64 `rounds` times, f32
/// and cached once) and, per uncached round, the shard-read layers timed
/// directly. Sets engine.stream_open_s, engine.cache_hit_rate,
/// dataset.read_s, dataset.checksum_s, dataset.decode_s,
/// dataset.read_block_s, dataset.bytes_per_sweep(_f32),
/// dataset.peak_resident_csr_mb, exec.prefetch_stall_s and
/// exec.serial_stage_share.
std::optional<ShardProbe> ProbeShards(const ShardSets& sets, double eps,
                                      int rounds, Ledger* ledger,
                                      Metrics* metrics);

/// Writes the shard sets of `scenario` under `dir` (timed as
/// dataset.shard_write_s) and runs ProbeShards on them, three uncached
/// rounds.
bool ProbeShardsOf(const linbp::dataset::Scenario& scenario, double eps,
                   const std::string& dir, Ledger* ledger, Metrics* metrics);

// ---- Updates ---------------------------------------------------------

/// What the update probe measured, for the serve workload's own path
/// metrics (its "solve" is one update).
struct UpdateProbe {
  std::vector<double> session_latency;  // RunServe, per update
  std::vector<double> mirror_latency;   // traced mirror, per update
  std::vector<double> product_seconds;  // traced mirror, per update
  std::vector<double> products;         // traced mirror, per update
  std::vector<double> sweeps;           // from the `ok sweeps=N` replies
  double mirror_wall[2] = {0.0, 0.0};   // bare (if run), traced
  DenseMatrix mirror_beliefs;           // traced mirror after the trace
};

/// Update layers on a trace of `num_ops` ops drawn at `seed` from
/// `scenario`, solved at `eps` on `threads` lanes: a RunServe session of
/// the trace, a mirror LinBpState with RunServe's options replayed over
/// the counting wrapper (and bare too if `bare_mirror`, for the wrapper's
/// overhead), and `sbp_replays` SbpState replays. tools.serve_overhead_ms
/// is the session's median update minus the traced mirror's.
/// Sets dataset.trace_gen_s, dataset.parse_update_us,
/// core.warm_sweeps_edge/_belief, core.products_per_edge/belief_update,
/// core.sbp_recomputed_nodes, core.sbp_replay_s and
/// tools.serve_overhead_ms.
std::optional<UpdateProbe> ProbeUpdates(
    const linbp::dataset::Scenario& scenario, std::uint64_t seed,
    std::int64_t num_ops, double eps, int threads, int sbp_replays,
    bool bare_mirror, const std::string& dir, Ledger* ledger,
    Metrics* metrics);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
