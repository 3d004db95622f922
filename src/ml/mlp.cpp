#include "ml/mlp.hpp"

#include <algorithm>
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

double MlpHead::loss_and_grad(const Mat& h, const BatchLayout& layout,
                              std::span<const int> labels, double positive_weight, Mat& dh) {
  const std::vector<double> probs = predict(h);
  dlogits_.resize(h.rows(), 1);
  dlogits_.zero();
  double loss = 0.0;
  int graphs_counted = 0;
  for (int g = 0; g < layout.graphs; ++g) {
    const int r0 = layout.row_offset[static_cast<std::size_t>(g)];
    const int r1 = r0 + layout.nodes[static_cast<std::size_t>(g)];
    double graph_loss = 0.0;
    int counted = 0;
    for (int r = r0; r < r1; ++r) {
      const int label = labels[static_cast<std::size_t>(r)];
      if (label == kLabelUnknown) continue;
      const double p = probs[static_cast<std::size_t>(r)];
      const double w = label == 1 ? positive_weight : 1.0;
      graph_loss += -w * (label == 1 ? std::log(std::max(p, 1e-12))
                                     : std::log(std::max(1.0 - p, 1e-12)));
      dlogits_.at(r, 0) = w * (p - static_cast<double>(label));
      ++counted;
    }
    if (counted == 0) continue;
    loss += graph_loss / counted;
    for (int r = r0; r < r1; ++r) dlogits_.at(r, 0) /= counted;
    ++graphs_counted;
  }
  if (graphs_counted == 0) {
    dh = Mat(h.rows(), h.cols());
    return 0.0;
  }
  for (double& d : dlogits_.data()) d /= graphs_counted;
  mlp_.backward(dlogits_, cache_, dh);
  return loss / graphs_counted;
}

double MlpHead::loss_and_grad(const Mat& h, std::span<const int> labels, double positive_weight,
                              Mat& dh) {
  BatchLayout one;
  one.add(h.rows());
  return loss_and_grad(h, one, labels, positive_weight, dh);
}

namespace {

// Packs graphs and runs the frozen encoder over them once: h gets their
// embeddings in packed row order.
void embed(const GraphTransformer& encoder, std::span<const PathGraph* const> graphs,
           GraphBatch& batch, Mat& x, GraphTransformer::Cache& cache, Mat& h) {
  pack(graphs, batch, x);
  encoder.forward(x, batch, cache, h);
}

}  // namespace

std::vector<double> fine_tune(const GraphTransformer& encoder, MlpHead& head,
                              std::span<const PathGraph> graphs, const FineTuneConfig& config) {
  GNNMLS_SPAN("ml.fine_tune");
  const std::vector<Param*> ps = head.params();
  Adam opt(ps, config.lr);

  std::vector<const PathGraph*> labeled;
  for (const PathGraph& g : graphs) {
    for (int label : g.labels) {
      if (label != kLabelUnknown) {
        labeled.push_back(&g);
        break;
      }
    }
  }
  // The encoder is frozen (the paper's Algorithm 1), so each step's
  // embeddings are computed once, by one packed forward per batch, and the
  // epochs only touch the tiny MLP — this is what makes fine-tuning
  // effectively free next to label generation.
  struct Step {
    BatchLayout layout;
    Mat h;
    std::vector<int> labels;  // in packed row order
  };
  std::vector<Step> steps;
  {
    GraphBatch batch;
    Mat x;
    GraphTransformer::Cache cache;
    for (std::size_t begin = 0; begin < labeled.size(); begin += kFineTuneGraphsPerStep) {
      const std::span<const PathGraph* const> members(
          labeled.data() + begin, std::min(kFineTuneGraphsPerStep, labeled.size() - begin));
      Step& step = steps.emplace_back();
      embed(encoder, members, batch, x, cache, step.h);
      step.layout = static_cast<const BatchLayout&>(batch);
      for (const PathGraph* g : members)
        step.labels.insert(step.labels.end(), g->labels.begin(), g->labels.end());
    }
  }

  std::vector<double> trajectory;
  trajectory.reserve(static_cast<std::size_t>(config.epochs));
  obs::Counter& epochs_c = obs::Metrics::instance().counter("ml.fine_tune.epochs");
  obs::Gauge& loss_g = obs::Metrics::instance().gauge("ml.fine_tune.loss");
  obs::Gauge& gnorm_g = obs::Metrics::instance().gauge("ml.fine_tune.grad_norm");
  Mat dh;
  for (int e = 0; e < config.epochs; ++e) {
    GNNMLS_SPAN("ml.fine_tune.epoch");
    double epoch_loss = 0.0;
    double grad_sq = 0.0;
    for (const Step& step : steps) {
      head.zero_grad();
      const double loss =
          head.loss_and_grad(step.h, step.layout, step.labels, config.positive_weight, dh);
      for (const Param* p : ps)
        for (const double gv : p->grad.data()) grad_sq += gv * gv;
      opt.step();
      epoch_loss += loss * step.layout.graphs;
    }
    trajectory.push_back(labeled.empty() ? 0.0
                                         : epoch_loss / static_cast<double>(labeled.size()));
    epochs_c.add(1);
    loss_g.set(trajectory.back());
    gnorm_g.set(steps.empty() ? 0.0 : std::sqrt(grad_sq / static_cast<double>(steps.size())));
  }
  return trajectory;
}

util::BinaryMetrics evaluate(const GraphTransformer& encoder, MlpHead& head,
                             std::span<const PathGraph> graphs, double threshold) {
  std::vector<double> probs;
  std::vector<int> labels;
  std::vector<const PathGraph*> all;
  all.reserve(graphs.size());
  for (const PathGraph& g : graphs) all.push_back(&g);
  GraphBatch batch;
  GraphTransformer::Cache cache;
  Mat x, h;
  for (std::size_t begin = 0; begin < all.size(); begin += kFineTuneGraphsPerStep) {
    const std::span<const PathGraph* const> members(
        all.data() + begin, std::min(kFineTuneGraphsPerStep, all.size() - begin));
    embed(encoder, members, batch, x, cache, h);
    const std::vector<double> p = head.predict(h);
    for (std::size_t g = 0; g < members.size(); ++g) {
      const int r0 = batch.row_offset[g];
      for (int i = 0; i < batch.nodes[g]; ++i) {
        const int label = members[g]->labels[static_cast<std::size_t>(i)];
        if (label == kLabelUnknown) continue;
        probs.push_back(p[static_cast<std::size_t>(r0 + i)]);
        labels.push_back(label);
      }
    }
  }
  return util::binary_metrics(probs, labels, threshold);
}

}  // namespace gnnmls::ml
