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
  // When true, gradients also flow into the transformer (full fine-tune);
  // the paper's Algorithm 1 trains only the MLP on frozen embeddings.
  bool train_encoder = false;
  // Weight on positive examples (MLS-helps labels are the minority class).
  double positive_weight = 2.0;
};

class MlpHead : public Layer {
 public:
  MlpHead(int dim, int hidden, util::Rng& rng);

  // h: [n x dim] embeddings -> per-node probability in [0,1].
  std::vector<double> predict(const Mat& h);

  // BCE loss + gradient step helper: returns loss, fills dh (for optional
  // encoder fine-tuning). Nodes with label kLabelUnknown are skipped.
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

// Trains the head (and optionally the encoder) on labeled graphs in corpus
// order; returns per-epoch training loss. Validation metrics can be
// computed by the caller via evaluate().
std::vector<double> fine_tune(GraphTransformer& encoder, MlpHead& head,
                              std::span<const PathGraph> graphs, const FineTuneConfig& config);

// Accuracy/precision/recall of head(encoder(x)) over labeled nodes.
util::BinaryMetrics evaluate(const GraphTransformer& encoder, MlpHead& head,
                             std::span<const PathGraph> graphs, double threshold = 0.5);

}  // namespace gnnmls::ml
