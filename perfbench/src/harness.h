// Shared pieces of the LinBP/SBP benchmark workloads: timing and
// medians, the result line, the operation ledger, the timing/counting
// backend wrapper of the traced run, and the checks computed apart from
// the program (own loops over the edge list, own BFS, own label argmax).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/dataset/scenario.h"
#include "src/engine/propagation_backend.h"
#include "src/exec/exec_context.h"
#include "src/graph/graph.h"
#include "src/la/dense_matrix.h"

namespace perfbench {

using linbp::DenseMatrix;
using linbp::DenseMatrixF32;
using linbp::Edge;
using linbp::Graph;

/// Problem sizes: kFull is the published workload, kToy the seconds-long
/// self-check of the same code paths.
enum class Size { kFull, kToy };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string dir;       // scratch directory inside the checkout
  bool perturb = false;  // self-check negative case
};

/// Largest relative gap expected between the traced run's per-layer times
/// on the blocking path and the untraced wall time they split.
inline constexpr double kReconcileTolerance = 0.15;

double Now();  // steady-clock seconds

/// `value` with 4 significant digits / with all 17 (round-trips).
std::string Fmt(double value);
std::string Fmt17(double value);

double Median(std::vector<double> values);
/// Nearest-rank percentile (q in (0, 1]) of `values`.
double Percentile(std::vector<double> values, double q);
/// The fast decile, Percentile(values, 0.1), of repeats of identical work.
/// Other tenants of the host slow it down in bursts of seconds; the
/// fastest tenth of the repeats tracks the program rather than the
/// bursts, where the median moves with them.
double FastDecile(const std::vector<double>& values);

/// The workload's problem: the graph of `spec` generated with seed 1, so
/// every run shares one graph and one convergence threshold, with the
/// explicit beliefs drawn from `seed` (5% of the nodes revealed at belief
/// 0.5, the generators' defaults).
std::optional<linbp::dataset::Scenario> MakeWorkloadScenario(
    const std::string& spec, std::uint64_t seed,
    const linbp::exec::ExecContext& ctx, std::string* error);

/// Logs a timing's samples (count, min, median, max) to stderr.
void LogSamples(const std::string& name, const std::vector<double>& values);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Counts operations attempted and failed, and records which checks failed.
class Ledger {
 public:
  /// Records one operation; returns `ok`.
  bool Op(bool ok);
  /// Records one check; a failed check marks the run incorrect.
  bool Check(const std::string& name, bool ok, const std::string& detail);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool correct_ = true;
};

/// Metric name -> (value, unit), printed in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct": ..., "attempted": ..., "failed": ...,
  /// "metrics": {...}}.
  std::string ResultJson(const Ledger& ledger) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Records obs.trace_reconcile_error = |traced layer sum - untraced wall| /
/// untraced wall and logs it against kReconcileTolerance. Timing noise
/// must not decide correctness, so this is reported, not checked.
void ReportReconcile(const std::string& what, double layer_sum,
                     double untraced, Metrics* metrics);

/// Forwards every product to an inner backend, counting the products and
/// timing them. The benchmark hands it to RunLinBp, ExactEpsilonThreshold
/// and LinBpState in the traced run; it adds no code to the program.
class TracingBackend final : public linbp::engine::PropagationBackend {
 public:
  explicit TracingBackend(const linbp::engine::PropagationBackend* inner)
      : inner_(inner) {}

  std::int64_t num_nodes() const override { return inner_->num_nodes(); }
  std::int64_t num_stored_entries() const override {
    return inner_->num_stored_entries();
  }
  const std::vector<double>& weighted_degrees() const override {
    return inner_->weighted_degrees();
  }
  bool MultiplyDense(const DenseMatrix& b, const linbp::exec::ExecContext& ctx,
                     DenseMatrix* out, std::string* error) const override;
  bool MultiplyVector(const std::vector<double>& x,
                      const linbp::exec::ExecContext& ctx,
                      std::vector<double>* y,
                      std::string* error) const override;
  bool MultiplyDenseF32(const DenseMatrixF32& b,
                        const linbp::exec::ExecContext& ctx,
                        DenseMatrixF32* out,
                        std::string* error) const override;
  bool MultiplyVectorF32(const std::vector<float>& x,
                         const linbp::exec::ExecContext& ctx,
                         std::vector<float>* y,
                         std::string* error) const override;

  std::int64_t products() const { return products_; }
  double product_seconds() const { return product_seconds_; }
  void Reset() {
    products_ = 0;
    product_seconds_ = 0.0;
  }

 private:
  template <typename F>
  bool Timed(F&& product) const;

  const linbp::engine::PropagationBackend* inner_;  // not owned
  // Products are issued by the single solver thread.
  mutable std::int64_t products_ = 0;
  mutable double product_seconds_ = 0.0;
};

// ---- Checks computed apart from the program -------------------------

/// ||B - (E + A B H - D B H^2)||_inf, the LinBP fixed-point residual, with
/// A B and the squared-weight degrees D from a loop over the edge list.
double FixedPointResidual(std::int64_t n, const std::vector<Edge>& edges,
                          const DenseMatrix& hhat, const DenseMatrix& e,
                          const DenseMatrix& b);

/// SBP beliefs from a BFS over the edge list and the Def. 15 recursion:
/// explicit nodes keep their rows; a node at geodesic g > 0 gets
/// (sum over neighbours at g - 1 of w * b) * H; unreachable nodes get 0.
DenseMatrix SbpOracle(std::int64_t n, const std::vector<Edge>& edges,
                      const DenseMatrix& hhat, const DenseMatrix& e,
                      const std::vector<std::int64_t>& explicit_nodes,
                      std::int64_t* levels);

/// Largest absolute entry difference.
double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

/// Row argmax (first index on exact ties).
std::vector<int> ArgmaxLabels(const DenseMatrix& b);

/// Micro-F1 (= accuracy: one predicted and one true class per node) over
/// nodes with a ground-truth class that carry no explicit belief.
double GroundTruthF1(const DenseMatrix& b, const std::vector<int>& truth,
                     const std::vector<std::int64_t>& explicit_nodes);

/// Lemma 23: 1 / (2 ||A|| ||H_o||) with induced norms, A from the edges.
double Lemma23Bound(std::int64_t n, const std::vector<Edge>& edges,
                    const DenseMatrix& coupling_residual);

/// Byte-for-byte equality of two belief matrices.
bool SameBytes(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
