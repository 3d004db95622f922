#include "ml/transformer.hpp"

#include <cmath>
#include <stdexcept>

namespace gnnmls::ml {

GraphTransformer::GraphTransformer(const TransformerConfig& config, util::Rng& rng)
    : config_(config) {
  input_proj_ = std::make_unique<Linear>(config.input_features, config.dim, rng);
  pos_table_ = Mat(config.max_len, config.dim);
  for (int pos = 0; pos < config.max_len; ++pos) {
    for (int j = 0; j < config.dim; ++j) {
      const double angle =
          pos / std::pow(10000.0, 2.0 * (j / 2) / static_cast<double>(config.dim));
      pos_table_.at(pos, j) = (j % 2 == 0) ? std::sin(angle) : std::cos(angle);
    }
  }
  blocks_.reserve(static_cast<std::size_t>(config.layers));
  for (int l = 0; l < config.layers; ++l) {
    Block b;
    b.ln1 = std::make_unique<LayerNorm>(config.dim);
    b.attn = std::make_unique<MultiHeadAttention>(config.dim, config.heads, rng);
    b.ln2 = std::make_unique<LayerNorm>(config.dim);
    b.ffn = std::make_unique<FeedForward>(config.dim, config.ffn_hidden, config.dim, rng);
    blocks_.push_back(std::move(b));
  }
  final_ln_ = std::make_unique<LayerNorm>(config.dim);
}

void GraphTransformer::forward(const Mat& x, const GraphBatch& batch, Cache& c, Mat& out) const {
  if (batch.max_nodes > config_.max_len)
    throw std::invalid_argument("path longer than positional table");
  if (x.rows() != batch.total_rows)
    throw std::invalid_argument("encoder: rows do not match the batch layout");
  Mat& h = c.h;
  input_proj_->forward(x, c.input, h);
  for (int g = 0; g < batch.graphs; ++g) {
    double* rows = h.row(batch.row_offset[static_cast<std::size_t>(g)]);
    for (int i = 0; i < batch.nodes[static_cast<std::size_t>(g)]; ++i)
      for (int j = 0; j < h.cols(); ++j) rows[i * h.cols() + j] += pos_table_.at(i, j);
  }
  c.blocks.resize(blocks_.size());
  for (std::size_t l = 0; l < blocks_.size(); ++l) {
    const Block& b = blocks_[l];
    BlockCache& bc = c.blocks[l];
    // Pre-LN residual blocks: h += Attn(LN(h)); h += FFN(LN(h)).
    b.ln1->forward(h, bc.ln1, c.normed);
    b.attn->forward(c.normed, batch, bc.attn, c.sub);
    h.axpy(1.0, c.sub);
    b.ln2->forward(h, bc.ln2, c.normed);
    b.ffn->forward(c.normed, bc.ffn, c.sub);
    h.axpy(1.0, c.sub);
  }
  final_ln_->forward(h, c.final_ln, out);
}

void GraphTransformer::forward(const Mat& x, const Mat& adj, Cache& c, Mat& out) const {
  forward(x, GraphBatch::single(adj, x.rows()), c, out);
}

Mat GraphTransformer::forward(const Mat& x, const Mat& adj) const {
  Cache cache;
  Mat out;
  forward(x, adj, cache, out);
  return out;
}

void GraphTransformer::backward(const Mat& dh_in, const Cache& c, Mat& dx) {
  final_ln_->backward(dh_in, c.final_ln, dh_);
  for (std::size_t l = blocks_.size(); l-- > 0;) {
    Block& b = blocks_[l];
    const BlockCache& bc = c.blocks[l];
    // Residual: dh flows both straight through and into the sublayer.
    b.ffn->backward(dh_, bc.ffn, dnormed_);
    b.ln2->backward(dnormed_, bc.ln2, dsub_);
    dh_.axpy(1.0, dsub_);
    b.attn->backward(dh_, bc.attn, dnormed_);
    b.ln1->backward(dnormed_, bc.ln1, dsub_);
    dh_.axpy(1.0, dsub_);
  }
  // Positional table is fixed (sinusoidal), no grads.
  input_proj_->backward(dh_, c.input, dx);
}

std::vector<Param*> GraphTransformer::params() {
  std::vector<Param*> ps = input_proj_->params();
  for (Block& b : blocks_) {
    for (Param* p : b.ln1->params()) ps.push_back(p);
    for (Param* p : b.attn->params()) ps.push_back(p);
    for (Param* p : b.ln2->params()) ps.push_back(p);
    for (Param* p : b.ffn->params()) ps.push_back(p);
  }
  for (Param* p : final_ln_->params()) ps.push_back(p);
  return ps;
}

}  // namespace gnnmls::ml
