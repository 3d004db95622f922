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

  // One pass over the corpus in mini-batches of kGraphsPerStep graphs (in
  // corpus order), one packed clean forward, one packed corrupted forward,
  // their two backward passes and one optimizer step per batch. Graphs with
  // fewer than 2 nodes are skipped: a single node has no corruption to
  // contrast. Returns the mean DGI loss over the graphs it trained on.
  double train_epoch(std::span<const PathGraph> graphs, Adam& optimizer, util::Rng& rng);

  // Full pretraining loop with its own Adam over encoder + discriminator.
  // Returns the loss trajectory (one value per epoch).
  std::vector<double> pretrain(std::span<const PathGraph> graphs, const DgiConfig& config,
                               util::Rng& rng);

  // The DGI objective of a packed batch: the mean over its graphs of each
  // graph's loss, given the clean embeddings h and the corrupted ones h_neg
  // (both [layout.total_rows x dim]). Writes dL/dh and dL/dh_neg and
  // accumulates dL/dW into the discriminator's gradient.
  double loss_and_grad(const Mat& h, const Mat& h_neg, const BatchLayout& layout, Mat& dh,
                       Mat& dh_neg);

  // Discriminator probability that node embeddings belong to summary s
  // (exposed for tests: positives should score above corrupted negatives).
  double discriminate(const Mat& h_row, const Mat& summary) const;

  Param& discriminator() { return w_; }

  // Graphs per optimizer step.
  static constexpr std::size_t kGraphsPerStep = 8;

 private:
  GraphTransformer& encoder_;
  Param w_;  // dim x dim bilinear form
  // Discriminator scratch: per-graph summaries S, S W^T, U and dL/dS; per-row
  // dL/d(score) of the clean and corrupted nodes.
  Mat s_, ws_, u_, ds_, dw_;
  std::vector<double> dpos_, dneg_;
};

}  // namespace gnnmls::ml
