#include "ml/mlp.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::ml {

MlpHead::MlpHead(int dim, int hidden, util::Rng& rng) : mlp_(dim, hidden, 1, rng) {}

std::vector<double> MlpHead::predict(const Mat& h) {
  mlp_.forward(h, cache_, logits_);
  std::vector<double> probs(static_cast<std::size_t>(logits_.rows()));
  for (int i = 0; i < logits_.rows(); ++i) probs[static_cast<std::size_t>(i)] = sigmoid(logits_.at(i, 0));
  return probs;
}

double MlpHead::loss_and_grad(const Mat& h, std::span<const int> labels, double positive_weight,
                              Mat& dh) {
  const std::vector<double> probs = predict(h);
  const int n = h.rows();
  dlogits_.resize(n, 1);
  dlogits_.zero();
  double loss = 0.0;
  int counted = 0;
  for (int i = 0; i < n; ++i) {
    const int label = labels[static_cast<std::size_t>(i)];
    if (label == kLabelUnknown) continue;
    const double p = probs[static_cast<std::size_t>(i)];
    const double w = label == 1 ? positive_weight : 1.0;
    loss += -w * (label == 1 ? std::log(std::max(p, 1e-12))
                             : std::log(std::max(1.0 - p, 1e-12)));
    dlogits_.at(i, 0) = w * (p - static_cast<double>(label));
    ++counted;
  }
  if (counted == 0) {
    dh = Mat(n, h.cols());
    return 0.0;
  }
  loss /= counted;
  for (int i = 0; i < n; ++i) dlogits_.at(i, 0) /= counted;
  mlp_.backward(dlogits_, cache_, dh);
  return loss;
}

std::vector<double> fine_tune(GraphTransformer& encoder, MlpHead& head,
                              std::span<const PathGraph> graphs, const FineTuneConfig& config) {
  GNNMLS_SPAN("ml.fine_tune");
  std::vector<Param*> ps = head.params();
  if (config.train_encoder)
    for (Param* p : encoder.params()) ps.push_back(p);
  Adam opt(ps, config.lr);

  // With a frozen encoder (the paper's Algorithm 1) the embeddings are
  // computed once and the epochs only touch the tiny MLP — this is what
  // makes fine-tuning effectively free next to label generation.
  std::vector<const PathGraph*> labeled;
  for (const PathGraph& g : graphs) {
    for (int label : g.labels) {
      if (label != kLabelUnknown) {
        labeled.push_back(&g);
        break;
      }
    }
  }
  GraphTransformer::Cache cache;
  std::vector<Mat> cached;
  if (!config.train_encoder) {
    cached.resize(labeled.size());
    for (std::size_t i = 0; i < labeled.size(); ++i)
      encoder.forward(labeled[i]->x, labeled[i]->adj, cache, cached[i]);
  }

  std::vector<double> trajectory;
  trajectory.reserve(static_cast<std::size_t>(config.epochs));
  obs::Counter& epochs_c = obs::Metrics::instance().counter("ml.fine_tune.epochs");
  obs::Gauge& loss_g = obs::Metrics::instance().gauge("ml.fine_tune.loss");
  obs::Gauge& gnorm_g = obs::Metrics::instance().gauge("ml.fine_tune.grad_norm");
  Mat h, dh, dx;
  for (int e = 0; e < config.epochs; ++e) {
    GNNMLS_SPAN("ml.fine_tune.epoch");
    double epoch_loss = 0.0;
    double grad_sq = 0.0;
    for (std::size_t i = 0; i < labeled.size(); ++i) {
      const PathGraph& g = *labeled[i];
      head.zero_grad();
      if (config.train_encoder) encoder.zero_grad();
      double loss = 0.0;
      if (config.train_encoder) {
        encoder.forward(g.x, g.adj, cache, h);
        loss = head.loss_and_grad(h, g.labels, config.positive_weight, dh);
        encoder.backward(dh, cache, dx);
      } else {
        loss = head.loss_and_grad(cached[i], g.labels, config.positive_weight, dh);
      }
      for (const Param* p : ps)
        for (int r = 0; r < p->grad.rows(); ++r)
          for (int c = 0; c < p->grad.cols(); ++c) grad_sq += p->grad.at(r, c) * p->grad.at(r, c);
      opt.step();
      epoch_loss += loss;
    }
    trajectory.push_back(labeled.empty() ? 0.0
                                         : epoch_loss / static_cast<double>(labeled.size()));
    epochs_c.add(1);
    loss_g.set(trajectory.back());
    gnorm_g.set(labeled.empty() ? 0.0 : std::sqrt(grad_sq / static_cast<double>(labeled.size())));
  }
  return trajectory;
}

util::BinaryMetrics evaluate(const GraphTransformer& encoder, MlpHead& head,
                             std::span<const PathGraph> graphs, double threshold) {
  std::vector<double> probs;
  std::vector<int> labels;
  GraphTransformer::Cache cache;
  Mat h;
  for (const PathGraph& g : graphs) {
    encoder.forward(g.x, g.adj, cache, h);
    const std::vector<double> p = head.predict(h);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (g.labels[i] == kLabelUnknown) continue;
      probs.push_back(p[i]);
      labels.push_back(g.labels[i]);
    }
  }
  return util::binary_metrics(probs, labels, threshold);
}

}  // namespace gnnmls::ml
