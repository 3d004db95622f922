#include "ml/dgi.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::ml {

DgiTrainer::DgiTrainer(GraphTransformer& encoder, util::Rng& rng)
    : encoder_(encoder), w_(Mat::xavier(encoder.config().dim, encoder.config().dim, rng)) {}

double DgiTrainer::discriminate(const Mat& h_row, const Mat& summary) const {
  // h W s^T
  double d = 0.0;
  for (int i = 0; i < w_.value.rows(); ++i) {
    double ws = 0.0;
    for (int j = 0; j < w_.value.cols(); ++j) ws += w_.value.at(i, j) * summary.at(0, j);
    d += h_row.at(0, i) * ws;
  }
  return sigmoid(d);
}

double DgiTrainer::loss_and_grad(const Mat& h, const Mat& h_neg, const BatchLayout& layout,
                                 Mat& dh, Mat& dh_neg) {
  const int dim = h.cols();
  const int graphs = layout.graphs;
  // Summaries come from the CLEAN graphs only (DGI definition):
  // s_g = sigmoid(mean of graph g's rows of h).
  s_.resize(graphs, dim);
  s_.zero();
  for (int g = 0; g < graphs; ++g) {
    const int n = layout.nodes[static_cast<std::size_t>(g)];
    const int r0 = layout.row_offset[static_cast<std::size_t>(g)];
    double* sg = s_.row(g);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < dim; ++j) sg[j] += h.at(r0 + i, j);
    for (int j = 0; j < dim; ++j) sg[j] = sigmoid(sg[j] / static_cast<double>(n));
  }
  // Discriminator scores d_i = h_i W s_g^T, with row g of WS = s_g W^T.
  matmul_nt(s_, w_.value, ws_);
  const auto dot = [dim](const double* a, const double* b) {
    double d = 0.0;
    for (int j = 0; j < dim; ++j) d += a[j] * b[j];
    return d;
  };

  // dL/d(score) per positive / negative node; each graph's loss is the mean
  // over its nodes, and the batch's the mean over its graphs.
  double loss = 0.0;
  dpos_.resize(static_cast<std::size_t>(layout.total_rows));
  dneg_.resize(static_cast<std::size_t>(layout.total_rows));
  for (int g = 0; g < graphs; ++g) {
    const int n = layout.nodes[static_cast<std::size_t>(g)];
    const int r0 = layout.row_offset[static_cast<std::size_t>(g)];
    const double per_node = 1.0 / (static_cast<double>(n) * graphs);
    double graph_loss = 0.0;
    for (int r = r0; r < r0 + n; ++r) {
      const double pp = sigmoid(dot(h.row(r), ws_.row(g)));
      const double pn = sigmoid(dot(h_neg.row(r), ws_.row(g)));
      graph_loss += -std::log(std::max(pp, 1e-12)) - std::log(std::max(1.0 - pn, 1e-12));
      dpos_[static_cast<std::size_t>(r)] = (pp - 1.0) * per_node;
      dneg_[static_cast<std::size_t>(r)] = pn * per_node;
    }
    loss += graph_loss / n;
  }
  loss /= graphs;

  // With U_g = sum_i (dpos_i h_i + dneg_i hneg_i) over graph g's rows:
  // dL/dW = U^T S and dL/dS = U W.
  u_.resize(graphs, dim);
  u_.zero();
  dh.resize(layout.total_rows, dim);
  dh_neg.resize(layout.total_rows, dim);
  for (int g = 0; g < graphs; ++g) {
    const int n = layout.nodes[static_cast<std::size_t>(g)];
    const int r0 = layout.row_offset[static_cast<std::size_t>(g)];
    double* ug = u_.row(g);
    const double* wsg = ws_.row(g);
    for (int r = r0; r < r0 + n; ++r) {
      const double gp = dpos_[static_cast<std::size_t>(r)];
      const double gn = dneg_[static_cast<std::size_t>(r)];
      for (int j = 0; j < dim; ++j) {
        ug[j] += gp * h.at(r, j) + gn * h_neg.at(r, j);
        // The direct discriminator terms of dL/dh and dL/dh_neg.
        dh.at(r, j) = gp * wsg[j];
        dh_neg.at(r, j) = gn * wsg[j];
      }
    }
  }
  matmul_tn(u_, s_, dw_);
  w_.grad.axpy(1.0, dw_);
  matmul(u_, w_.value, ds_);
  // The summary term of dL/dh: s = sigmoid(mean h), so
  // ds_j/dh_ij = s_j (1 - s_j) / n.
  for (int g = 0; g < graphs; ++g) {
    const int n = layout.nodes[static_cast<std::size_t>(g)];
    const int r0 = layout.row_offset[static_cast<std::size_t>(g)];
    for (int j = 0; j < dim; ++j) {
      const double sj = s_.at(g, j);
      const double v = ds_.at(g, j) * sj * (1.0 - sj) / n;
      for (int r = r0; r < r0 + n; ++r) dh.at(r, j) += v;
    }
  }
  return loss;
}

double DgiTrainer::train_epoch(std::span<const PathGraph> graphs, Adam& optimizer,
                               util::Rng& rng) {
  // Per-step buffers, reused across the epoch's batches and released after
  // it. The clean and the corrupted forward each keep their own
  // activations, so both backward passes run without a re-forward.
  GraphTransformer::Cache clean, corrupt;
  GraphBatch batch;
  std::vector<const PathGraph*> members;
  std::vector<int> perm;
  Mat x, x_corrupt, h, h_neg, dh, dh_neg, dx;
  double total_loss = 0.0;
  std::size_t trained_graphs = 0;
  for (std::size_t next = 0; next < graphs.size();) {
    members.clear();
    for (; next < graphs.size() && members.size() < kGraphsPerStep; ++next)
      if (graphs[next].x.rows() >= 2) members.push_back(&graphs[next]);
    if (members.empty()) break;
    pack(members, batch, x);
    // Corruption: each graph's feature rows shuffled among themselves, the
    // RNG drawn graph by graph in batch order.
    x_corrupt.resize(x.rows(), x.cols());
    for (int g = 0; g < batch.graphs; ++g) {
      const int n = batch.nodes[static_cast<std::size_t>(g)];
      const int r0 = batch.row_offset[static_cast<std::size_t>(g)];
      perm.resize(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
      rng.shuffle(perm);
      for (int i = 0; i < n; ++i) {
        const double* src = x.row(r0 + perm[static_cast<std::size_t>(i)]);
        std::copy(src, src + x.cols(), x_corrupt.row(r0 + i));
      }
    }

    encoder_.zero_grad();
    w_.zero_grad();
    encoder_.forward(x, batch, clean, h);
    encoder_.forward(x_corrupt, batch, corrupt, h_neg);
    const double loss = loss_and_grad(h, h_neg, batch, dh, dh_neg);
    // The weights have not moved since either forward, so each cache is
    // exactly what a re-forward would produce.
    encoder_.backward(dh_neg, corrupt, dx);
    encoder_.backward(dh, clean, dx);
    optimizer.step();
    total_loss += loss * batch.graphs;
    trained_graphs += members.size();
  }
  return trained_graphs ? total_loss / static_cast<double>(trained_graphs) : 0.0;
}

std::vector<double> DgiTrainer::pretrain(std::span<const PathGraph> graphs,
                                         const DgiConfig& config, util::Rng& rng) {
  // No span of its own: GnnMlsEngine::pretrain's ml.dgi.pretrain covers it
  // (with the scaler fit), and the epochs are its children.
  std::vector<Param*> ps = encoder_.params();
  ps.push_back(&w_);
  Adam opt(ps, config.lr);
  std::vector<double> trajectory;
  trajectory.reserve(static_cast<std::size_t>(config.epochs));
  obs::Counter& epochs = obs::Metrics::instance().counter("ml.dgi.epochs");
  obs::Gauge& loss = obs::Metrics::instance().gauge("ml.dgi.loss");
  for (int e = 0; e < config.epochs; ++e) {
    GNNMLS_SPAN("ml.dgi.epoch");
    trajectory.push_back(train_epoch(graphs, opt, rng));
    epochs.add(1);
    loss.set(trajectory.back());
  }
  return trajectory;
}

}  // namespace gnnmls::ml
