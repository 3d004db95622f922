// Deep Graph Infomax pretraining (paper Section III-C, Equation 3).
//
// STA-derived MLS labels are expensive, so the encoder is first pretrained
// self-supervised: maximize mutual information between each node embedding
// v and the global path summary g(Y) = sigmoid(mean of embeddings), using a
// bilinear discriminator and negative samples from a corrupted graph C(Y)
// (node-feature rows shuffled — the standard DGI corruption, which keeps
// the topology but breaks the feature-structure correspondence).
#pragma once

#include <span>

#include "ml/dataset.hpp"
#include "ml/transformer.hpp"

namespace gnnmls::ml {

struct DgiConfig {
  int epochs = 20;
  double lr = 1e-3;
};

class DgiTrainer {
 public:
  DgiTrainer(GraphTransformer& encoder, util::Rng& rng);

  // One pass over the corpus, one optimizer step per graph; returns the
  // mean DGI loss over the graphs it trained on (those with at least 2
  // nodes: a single node has no corruption to contrast).
  double train_epoch(std::span<const PathGraph> graphs, Adam& optimizer, util::Rng& rng);

  // Full pretraining loop with its own Adam over encoder + discriminator.
  // Returns the loss trajectory (one value per epoch).
  std::vector<double> pretrain(std::span<const PathGraph> graphs, const DgiConfig& config,
                               util::Rng& rng);

  // Discriminator probability that node embeddings belong to summary s
  // (exposed for tests: positives should score above corrupted negatives).
  double discriminate(const Mat& h_row, const Mat& summary) const;

  Param& discriminator() { return w_; }

 private:
  GraphTransformer& encoder_;
  Param w_;  // dim x dim bilinear form
  // Per-step buffers, reused across graphs. The clean and the corrupted
  // forward each keep their own activations, so both backward passes run
  // without a re-forward.
  GraphTransformer::Cache clean_, corrupt_;
  Mat x_corrupt_, h_, h_neg_, dh_, dh_neg_, dx_;
};

}  // namespace gnnmls::ml
