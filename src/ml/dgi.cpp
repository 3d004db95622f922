#include "ml/dgi.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::ml {

DgiTrainer::DgiTrainer(GraphTransformer& encoder, util::Rng& rng)
    : encoder_(encoder), w_(Mat::xavier(encoder.config().dim, encoder.config().dim, rng)) {}

namespace {

// s = sigmoid(mean over rows of H); returns 1 x dim.
Mat readout(const Mat& h) {
  Mat s(1, h.cols());
  for (int i = 0; i < h.rows(); ++i)
    for (int j = 0; j < h.cols(); ++j) s.at(0, j) += h.at(i, j);
  for (int j = 0; j < h.cols(); ++j)
    s.at(0, j) = sigmoid(s.at(0, j) / static_cast<double>(h.rows()));
  return s;
}

void shuffle_rows(const Mat& x, util::Rng& rng, Mat& y) {
  std::vector<int> perm(static_cast<std::size_t>(x.rows()));
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
  rng.shuffle(perm);
  y.resize(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i)
    for (int j = 0; j < x.cols(); ++j) y.at(i, j) = x.at(perm[static_cast<std::size_t>(i)], j);
}

}  // namespace

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

double DgiTrainer::train_epoch(std::span<const PathGraph> graphs, Adam& optimizer,
                               util::Rng& rng) {
  double total_loss = 0.0;
  std::size_t trained_graphs = 0;
  const int dim = encoder_.config().dim;
  for (const PathGraph& g : graphs) {
    const int n = g.x.rows();
    if (n < 2) continue;
    encoder_.zero_grad();
    w_.zero_grad();

    // Clean pass, then the corrupted one, each into its own cache.
    const Mat& h = h_;
    const Mat& h_neg = h_neg_;
    encoder_.forward(g.x, g.adj, clean_, h_);
    shuffle_rows(g.x, rng, x_corrupt_);
    // Summary comes from the CLEAN graph only (DGI definition).
    Mat s = readout(h);

    // Discriminator scores. d_i = h_i W s^T.
    Mat ws(dim, 1);
    for (int i = 0; i < dim; ++i) {
      double acc = 0.0;
      for (int j = 0; j < dim; ++j) acc += w_.value.at(i, j) * s.at(0, j);
      ws.at(i, 0) = acc;
    }
    auto score = [&](const Mat& hm, int row) {
      double d = 0.0;
      for (int i = 0; i < dim; ++i) d += hm.at(row, i) * ws.at(i, 0);
      return d;
    };

    // --- corrupted pass ---------------------------------------------------
    encoder_.forward(x_corrupt_, g.adj, corrupt_, h_neg_);

    double loss = 0.0;
    // dL/d(score) for each positive / negative node.
    std::vector<double> dpos(static_cast<std::size_t>(n)), dneg(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const double dp = score(h, i);
      const double dn = score(h_neg, i);
      const double pp = sigmoid(dp);
      const double pn = sigmoid(dn);
      loss += -std::log(std::max(pp, 1e-12)) - std::log(std::max(1.0 - pn, 1e-12));
      dpos[static_cast<std::size_t>(i)] = (pp - 1.0) / n;
      dneg[static_cast<std::size_t>(i)] = pn / n;
    }
    loss /= n;

    // --- gradients ----------------------------------------------------------
    // dL/dh_neg = dneg_i * (W s^T)^T; backprop through the corrupted
    // forward first.
    dh_neg_.resize(n, dim);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < dim; ++j)
        dh_neg_.at(i, j) = dneg[static_cast<std::size_t>(i)] * ws.at(j, 0);
    encoder_.backward(dh_neg_, corrupt_, dx_);

    // dL/dW from both halves; dL/ds collected for the summary path.
    Mat ds(1, dim);
    for (int i = 0; i < n; ++i) {
      const double gp = dpos[static_cast<std::size_t>(i)];
      const double gn = dneg[static_cast<std::size_t>(i)];
      for (int a = 0; a < dim; ++a) {
        const double hp = h.at(i, a);
        const double hn = h_neg.at(i, a);
        for (int b = 0; b < dim; ++b)
          w_.grad.at(a, b) += (gp * hp + gn * hn) * s.at(0, b);
      }
      // dL/ds += g * (h W), for both positive and corrupted nodes.
      for (int b = 0; b < dim; ++b) {
        double hw_p = 0.0, hw_n = 0.0;
        for (int a = 0; a < dim; ++a) {
          hw_p += h.at(i, a) * w_.value.at(a, b);
          hw_n += h_neg.at(i, a) * w_.value.at(a, b);
        }
        ds.at(0, b) += gp * hw_p + gn * hw_n;
      }
    }

    // dL/dh (positive) = direct discriminator term + summary term.
    Mat& dh = dh_;
    dh.resize(n, dim);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < dim; ++j)
        dh.at(i, j) = dpos[static_cast<std::size_t>(i)] * ws.at(j, 0);
    // s = sigmoid(mean h): ds/dh_ij = s_j (1 - s_j) / n.
    for (int j = 0; j < dim; ++j) {
      const double gate = s.at(0, j) * (1.0 - s.at(0, j)) / n;
      const double v = ds.at(0, j) * gate;
      for (int i = 0; i < n; ++i) dh.at(i, j) += v;
    }
    // The weights have not moved since the clean forward, so its cache is
    // exactly what a re-forward would produce.
    encoder_.backward(dh, clean_, dx_);

    optimizer.step();
    total_loss += loss;
    ++trained_graphs;
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
