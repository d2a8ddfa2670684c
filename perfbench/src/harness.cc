#include "perfbench/src/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iostream>
#include <sstream>

#include "src/dataset/registry.h"
#include "src/util/mem_info.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string Fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.4g", value);
  return buffer;
}

std::string Fmt17(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m]
                                 : 0.5 * (values[m - 1] + values[m]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double FastDecile(const std::vector<double>& values) {
  return Percentile(values, 0.1);
}

std::optional<linbp::dataset::Scenario> MakeWorkloadScenario(
    const std::string& spec, std::uint64_t seed,
    const linbp::exec::ExecContext& ctx, std::string* error) {
  auto scenario = linbp::dataset::MakeScenario(spec + ",seed=1", error, ctx);
  if (scenario.has_value()) {
    linbp::dataset::RevealGroundTruth(0.05, 0.5, seed, &*scenario);
  }
  return scenario;
}

void LogSamples(const std::string& name, const std::vector<double>& values) {
  if (values.empty()) return;
  std::cerr << name << ": n=" << values.size() << " min "
            << Fmt(*std::min_element(values.begin(), values.end())) << " median "
            << Fmt(Median(values)) << " max "
            << Fmt(*std::max_element(values.begin(), values.end())) << " [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::cerr << (i ? " " : "") << Fmt(values[i]);
  }
  std::cerr << "]\n";
}

double PeakRssMb() {
  return static_cast<double>(linbp::util::PeakRssBytes()) / (1024.0 * 1024.0);
}

void ReportReconcile(const std::string& what, double layer_sum,
                     double untraced, Metrics* metrics) {
  const double error = std::fabs(layer_sum - untraced) / untraced;
  std::cerr << "reconcile " << what << ": traced layers " << Fmt(layer_sum)
            << " s vs untraced " << Fmt(untraced) << " s, error " << Fmt(error)
            << (error <= kReconcileTolerance ? " (within " : " (OUTSIDE ")
            << Fmt(kReconcileTolerance) << ")\n";
  metrics->Set("obs.trace_reconcile_error", error, "share");
}

bool Ledger::Op(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
  return ok;
}

bool Ledger::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  Op(ok);
  std::cerr << "check " << name << ": " << (ok ? "ok" : "FAILED") << " ("
            << detail << ")\n";
  if (!ok) correct_ = false;
  return ok;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string Metrics::ResultJson(const Ledger& ledger) const {
  std::ostringstream out;
  out << "{\"correct\": " << (ledger.correct() ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted()
      << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    // JSON has no NaN/Inf; a non-finite value is a harness bug, print 0
    // so the consumer's validation rejects the run instead of the parser.
    out << (i ? ", " : "") << '"' << order_[i]
        << "\": {\"value\": " << Fmt17(std::isfinite(value) ? value : 0.0)
        << ", \"unit\": \"" << unit << "\"}";
  }
  out << "}}";
  return out.str();
}

template <typename F>
bool TracingBackend::Timed(F&& product) const {
  const double start = Now();
  const bool ok = product();
  product_seconds_ += Now() - start;
  ++products_;
  return ok;
}

bool TracingBackend::MultiplyDense(const DenseMatrix& b,
                                   const linbp::exec::ExecContext& ctx,
                                   DenseMatrix* out,
                                   std::string* error) const {
  return Timed([&] { return inner_->MultiplyDense(b, ctx, out, error); });
}

bool TracingBackend::MultiplyVector(const std::vector<double>& x,
                                    const linbp::exec::ExecContext& ctx,
                                    std::vector<double>* y,
                                    std::string* error) const {
  return Timed([&] { return inner_->MultiplyVector(x, ctx, y, error); });
}

bool TracingBackend::MultiplyDenseF32(const DenseMatrixF32& b,
                                      const linbp::exec::ExecContext& ctx,
                                      DenseMatrixF32* out,
                                      std::string* error) const {
  return Timed([&] { return inner_->MultiplyDenseF32(b, ctx, out, error); });
}

bool TracingBackend::MultiplyVectorF32(const std::vector<float>& x,
                                       const linbp::exec::ExecContext& ctx,
                                       std::vector<float>* y,
                                       std::string* error) const {
  return Timed([&] { return inner_->MultiplyVectorF32(x, ctx, y, error); });
}

namespace {

DenseMatrix EdgeListProduct(std::int64_t n, const std::vector<Edge>& edges,
                            const DenseMatrix& b) {
  const std::int64_t k = b.cols();
  DenseMatrix out(n, k);
  for (const Edge& e : edges) {
    for (std::int64_t c = 0; c < k; ++c) {
      out.At(e.u, c) += e.weight * b.At(e.v, c);
      out.At(e.v, c) += e.weight * b.At(e.u, c);
    }
  }
  return out;
}

std::vector<double> EdgeListSquaredDegrees(std::int64_t n,
                                           const std::vector<Edge>& edges) {
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  for (const Edge& e : edges) {
    d[e.u] += e.weight * e.weight;
    d[e.v] += e.weight * e.weight;
  }
  return d;
}

// Row-vector product: out_row = row * h (k x k).
void RowTimes(const double* row, const DenseMatrix& h, std::int64_t k,
              double* out) {
  for (std::int64_t c = 0; c < k; ++c) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < k; ++j) sum += row[j] * h.At(j, c);
    out[c] = sum;
  }
}

}  // namespace

double FixedPointResidual(std::int64_t n, const std::vector<Edge>& edges,
                          const DenseMatrix& hhat, const DenseMatrix& e,
                          const DenseMatrix& b) {
  const std::int64_t k = b.cols();
  const DenseMatrix ab = EdgeListProduct(n, edges, b);
  const std::vector<double> d = EdgeListSquaredDegrees(n, edges);
  std::vector<double> h2(static_cast<std::size_t>(k * k), 0.0);
  for (std::int64_t i = 0; i < k; ++i) {
    for (std::int64_t j = 0; j < k; ++j) {
      for (std::int64_t l = 0; l < k; ++l) {
        h2[i * k + j] += hhat.At(i, l) * hhat.At(l, j);
      }
    }
  }
  double worst = 0.0;
  std::vector<double> abh(k), bh2(k);
  for (std::int64_t v = 0; v < n; ++v) {
    RowTimes(&ab.data()[v * k], hhat, k, abh.data());
    for (std::int64_t c = 0; c < k; ++c) {
      double sum = 0.0;
      for (std::int64_t j = 0; j < k; ++j) sum += b.At(v, j) * h2[j * k + c];
      bh2[c] = sum;
    }
    for (std::int64_t c = 0; c < k; ++c) {
      const double rhs = e.At(v, c) + abh[c] - d[v] * bh2[c];
      worst = std::max(worst, std::fabs(b.At(v, c) - rhs));
    }
  }
  return worst;
}

DenseMatrix SbpOracle(std::int64_t n, const std::vector<Edge>& edges,
                      const DenseMatrix& hhat, const DenseMatrix& e,
                      const std::vector<std::int64_t>& explicit_nodes,
                      std::int64_t* levels) {
  const std::int64_t k = hhat.rows();
  std::vector<std::vector<std::pair<std::int64_t, double>>> adj(
      static_cast<std::size_t>(n));
  for (const Edge& edge : edges) {
    adj[edge.u].push_back({edge.v, edge.weight});
    adj[edge.v].push_back({edge.u, edge.weight});
  }
  std::vector<std::int64_t> geodesic(static_cast<std::size_t>(n), -1);
  std::deque<std::int64_t> queue;
  for (const std::int64_t s : explicit_nodes) {
    if (geodesic[s] < 0) {
      geodesic[s] = 0;
      queue.push_back(s);
    }
  }
  std::vector<std::int64_t> order;
  while (!queue.empty()) {
    const std::int64_t u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (const auto& [v, w] : adj[u]) {
      if (geodesic[v] < 0) {
        geodesic[v] = geodesic[u] + 1;
        queue.push_back(v);
      }
    }
  }
  DenseMatrix b(n, k);
  std::int64_t max_level = 0;
  std::vector<double> sum(k);
  // BFS order visits every level after the one before it.
  for (const std::int64_t t : order) {
    max_level = std::max(max_level, geodesic[t]);
    if (geodesic[t] == 0) {
      for (std::int64_t c = 0; c < k; ++c) b.At(t, c) = e.At(t, c);
      continue;
    }
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const auto& [s, w] : adj[t]) {
      if (geodesic[s] != geodesic[t] - 1) continue;
      for (std::int64_t c = 0; c < k; ++c) sum[c] += w * b.At(s, c);
    }
    RowTimes(sum.data(), hhat, k, &b.mutable_data()[t * k]);
  }
  if (levels != nullptr) *levels = max_level;
  return b;
}

double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    worst = std::max(worst, std::fabs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

std::vector<int> ArgmaxLabels(const DenseMatrix& b) {
  std::vector<int> labels(static_cast<std::size_t>(b.rows()), 0);
  for (std::int64_t v = 0; v < b.rows(); ++v) {
    for (std::int64_t c = 1; c < b.cols(); ++c) {
      if (b.At(v, c) > b.At(v, labels[v])) labels[v] = static_cast<int>(c);
    }
  }
  return labels;
}

double GroundTruthF1(const DenseMatrix& b, const std::vector<int>& truth,
                     const std::vector<std::int64_t>& explicit_nodes) {
  std::vector<bool> is_explicit(truth.size(), false);
  for (const std::int64_t s : explicit_nodes) is_explicit[s] = true;
  const std::vector<int> labels = ArgmaxLabels(b);
  std::int64_t total = 0, hits = 0;
  for (std::size_t v = 0; v < truth.size(); ++v) {
    if (truth[v] < 0 || is_explicit[v]) continue;
    ++total;
    if (labels[v] == truth[v]) ++hits;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

double Lemma23Bound(std::int64_t n, const std::vector<Edge>& edges,
                    const DenseMatrix& coupling_residual) {
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for (const Edge& e : edges) {
    row_abs[e.u] += std::fabs(e.weight);
    row_abs[e.v] += std::fabs(e.weight);
  }
  // A is symmetric, so its induced 1- and inf-norms coincide.
  const double a_norm = *std::max_element(row_abs.begin(), row_abs.end());
  const std::int64_t k = coupling_residual.rows();
  double h_one = 0.0, h_inf = 0.0;
  for (std::int64_t i = 0; i < k; ++i) {
    double row = 0.0, col = 0.0;
    for (std::int64_t j = 0; j < k; ++j) {
      row += std::fabs(coupling_residual.At(i, j));
      col += std::fabs(coupling_residual.At(j, i));
    }
    h_inf = std::max(h_inf, row);
    h_one = std::max(h_one, col);
  }
  return 1.0 / (2.0 * a_norm * std::min(h_one, h_inf));
}

bool SameBytes(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

}  // namespace perfbench
