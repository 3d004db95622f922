// Graph Transformer encoder (paper Section III-C).
//
// Architecture per the paper: an input projection of the fused node/net
// features, sinusoidal positional encoding (timing paths are ordered — the
// position of a stage along the path matters), then three pre-LN transformer
// layers, each with three-head self-attention carrying an additive
// adjacency bias (the "graph" part) and a feed-forward block, and a final
// layer norm. Output is one embedding per path stage.
//
// forward() runs a mini-batch of path graphs packed back to back
// (ml/batcher.hpp): the row-wise stages (input projection, LayerNorm, the
// Q/K/V/Wo projections, FFN) run once over all rows, and the positional
// rows and attention address each graph through the batch layout. One
// graph is the batch of one. Each output row is computed independently of
// the other graphs' rows, so a graph's embeddings inside a batch are
// bit-equal to its lone forward. forward() records its activations in a
// caller-owned Cache and backward() replays one; a trainer keeps a cache per
// pass it backpropagates and reuses them across steps, so a training step
// allocates nothing per op.
#pragma once

#include <memory>
#include <vector>

#include "ml/layers.hpp"

namespace gnnmls::ml {

struct TransformerConfig {
  int input_features = 7;
  int dim = 48;
  int heads = 3;
  int layers = 3;
  int ffn_hidden = 96;
  int max_len = 256;  // positional-encoding table size
};

class GraphTransformer : public Layer {
 public:
  struct BlockCache {
    LayerNorm::Cache ln1;
    MultiHeadAttention::Cache attn;
    LayerNorm::Cache ln2;
    FeedForward::Cache ffn;
  };
  struct Cache {
    Linear::Cache input;
    std::vector<BlockCache> blocks;
    LayerNorm::Cache final_ln;
    Mat h, normed, sub;  // residual stream; a sublayer's input and output
  };

  GraphTransformer(const TransformerConfig& config, util::Rng& rng);

  // x: [batch.total_rows x input_features]; out: [batch.total_rows x dim].
  void forward(const Mat& x, const GraphBatch& batch, Cache& cache, Mat& out) const;
  // One graph: x [n x input_features], adj [n x n] (or empty).
  void forward(const Mat& x, const Mat& adj, Cache& cache, Mat& out) const;
  // One-off forward of one graph with a throwaway cache (inference, tests).
  Mat forward(const Mat& x, const Mat& adj) const;
  // dh: [rows x dim] against the cache of the forward it differentiates;
  // accumulates parameter grads and writes dL/dx (rarely used) into dx.
  void backward(const Mat& dh, const Cache& cache, Mat& dx);

  std::vector<Param*> params() override;
  const TransformerConfig& config() const { return config_; }

  // Read-only structure views for the float32 inference engine's weight
  // snapshot (ml/engine.cpp): the engine re-packs these into flat buffers.
  struct BlockView {
    const LayerNorm* ln1;
    const MultiHeadAttention* attn;
    const LayerNorm* ln2;
    const FeedForward* ffn;
  };
  const Linear& input_proj() const { return *input_proj_; }
  const Mat& pos_table() const { return pos_table_; }
  const LayerNorm& final_ln() const { return *final_ln_; }
  std::vector<BlockView> block_views() const {
    std::vector<BlockView> views;
    views.reserve(blocks_.size());
    for (const Block& b : blocks_)
      views.push_back({b.ln1.get(), b.attn.get(), b.ln2.get(), b.ffn.get()});
    return views;
  }

 private:
  struct Block {
    std::unique_ptr<LayerNorm> ln1;
    std::unique_ptr<MultiHeadAttention> attn;
    std::unique_ptr<LayerNorm> ln2;
    std::unique_ptr<FeedForward> ffn;
  };

  TransformerConfig config_;
  std::unique_ptr<Linear> input_proj_;
  Mat pos_table_;  // max_len x dim, sinusoidal
  std::vector<Block> blocks_;
  std::unique_ptr<LayerNorm> final_ln_;
  Mat dh_, dnormed_, dsub_;  // backward scratch
};

}  // namespace gnnmls::ml
