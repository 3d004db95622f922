// MLP decision head and supervised fine-tuning (paper Algorithm 1, lines
// 7-10): the DGI-pretrained transformer produces node embeddings; a 2-layer
// MLP maps each embedding to the binary MLS decision delta(n_i), trained
// with BCE on the STA-labeled subset.
#pragma once

#include <span>

#include "ml/dataset.hpp"
#include "ml/transformer.hpp"
#include "util/stats.hpp"

namespace gnnmls::ml {

struct FineTuneConfig {
  int epochs = 40;
  double lr = 2e-3;
  // Weight on positive examples (MLS-helps labels are the minority class).
  double positive_weight = 2.0;
};

class MlpHead : public Layer {
 public:
  MlpHead(int dim, int hidden, util::Rng& rng);

  // h: [rows x dim] embeddings -> per-row probability in [0,1].
  std::vector<double> predict(const Mat& h);

  // Weighted BCE over the labeled rows of a packed batch of graphs (h and
  // labels in packed row order): the mean over the graphs with a labeled
  // node of each graph's mean over its labeled nodes. Accumulates the head's
  // parameter gradients, writes dL/dh into dh and returns the loss; rows
  // labeled kLabelUnknown are skipped.
  double loss_and_grad(const Mat& h, const BatchLayout& layout, std::span<const int> labels,
                       double positive_weight, Mat& dh);
  // One graph: the batch of one.
  double loss_and_grad(const Mat& h, std::span<const int> labels, double positive_weight,
                       Mat& dh);

  std::vector<Param*> params() override { return mlp_.params(); }

  const Linear& fc1() const { return mlp_.fc1(); }
  const Linear& fc2() const { return mlp_.fc2(); }

 private:
  FeedForward mlp_;           // dim -> hidden -> 1 logit
  FeedForward::Cache cache_;  // the last predict()'s activations
  Mat logits_, dlogits_;
};

// Trains the head on the frozen encoder's embeddings of the labeled graphs
// (the paper's Algorithm 1 trains only the MLP), in mini-batches of
// kFineTuneGraphsPerStep graphs in corpus order, one optimizer step per
// batch; returns the per-epoch training loss (the mean over labeled
// graphs). Validation metrics can be computed by the caller via evaluate().
std::vector<double> fine_tune(const GraphTransformer& encoder, MlpHead& head,
                              std::span<const PathGraph> graphs, const FineTuneConfig& config);

// Graphs per fine-tuning optimizer step.
inline constexpr std::size_t kFineTuneGraphsPerStep = 4;

// Accuracy/precision/recall of head(encoder(x)) over labeled nodes.
util::BinaryMetrics evaluate(const GraphTransformer& encoder, MlpHead& head,
                             std::span<const PathGraph> graphs, double threshold = 0.5);

}  // namespace gnnmls::ml
