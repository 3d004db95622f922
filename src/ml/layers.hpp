// Neural-network layers with hand-written backward passes.
//
// A forward pass writes what its backward pass needs into a caller-owned
// Cache, so several forwards through one layer can be in flight at once
// (DGI backpropagates a clean and a corrupted pass through the same
// encoder) and a cache reused across calls keeps its storage. Backward takes
// dL/d(output) and the matching forward's cache, writes dL/d(input) and
// accumulates parameter gradients. Inputs X are [rows x features]: one path
// graph's nodes, or a mini-batch of graphs packed back to back
// (ml/batcher.hpp). Every layer but attention is row-wise, and attention
// addresses each graph through the batch layout, so a mini-batch is one
// forward and one backward call. Outputs are caller-owned too and are
// resized in place; an output must not alias the layer's input.
#pragma once

#include <vector>

#include "ml/batcher.hpp"
#include "ml/tensor.hpp"

namespace gnnmls::ml {

// A trainable tensor with its gradient accumulator.
struct Param {
  Mat value;
  Mat grad;
  // value^T, kept only for the weights whose backward computes dy * W^T:
  // the constructor and Adam::step keep it equal to value's transpose, so W
  // is transposed once per optimizer step rather than on every backward
  // call. Empty for every other parameter. Code that writes value directly
  // calls sync_transpose() before the next backward.
  Mat value_t;

  explicit Param(Mat v, bool keep_transpose = false)
      : value(std::move(v)), grad(value.rows(), value.cols()) {
    if (keep_transpose) transpose_into(value, value_t);
  }
  void zero_grad() { grad.zero(); }
  void sync_transpose() {
    if (!value_t.empty()) transpose_into(value, value_t);
  }
};

// Common layer interface for parameter collection.
class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::vector<Param*> params() = 0;
  void zero_grad() {
    for (Param* p : params()) p->zero_grad();
  }
};

// Y = X W + b
class Linear : public Layer {
 public:
  struct Cache {
    Mat x;  // the input
  };

  Linear(int in, int out, util::Rng& rng);
  void forward(const Mat& x, Cache& cache, Mat& y) const;
  void backward(const Mat& dy, const Cache& cache, Mat& dx);
  std::vector<Param*> params() override { return {&w_, &b_}; }

  // Read-only weight views for the float32 inference engine's snapshot.
  const Mat& weight() const { return w_.value; }
  const Mat& bias() const { return b_.value; }

 private:
  Param w_;
  Param b_;
  Mat dw_;  // backward scratch
};

// Elementwise max(0, x). Backward reads the forward's output y, which is
// <= 0 exactly where x is, so the layer needs no cache of its own.
struct ReLU {
  static void forward(const Mat& x, Mat& y);
  static void backward(const Mat& dy, const Mat& y, Mat& dx);
};

// Per-row layer normalization with learned gain/bias.
class LayerNorm : public Layer {
 public:
  struct Cache {
    Mat xhat;
    std::vector<double> inv_std;
  };

  explicit LayerNorm(int dim);
  void forward(const Mat& x, Cache& cache, Mat& y) const;
  void backward(const Mat& dy, const Cache& cache, Mat& dx);
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }

  const Mat& gamma() const { return gamma_.value; }
  const Mat& beta() const { return beta_.value; }
  static constexpr double eps() { return kEps; }

 private:
  Param gamma_;
  Param beta_;
  static constexpr double kEps = 1e-5;
};

// Multi-head self-attention with an optional additive adjacency bias: for a
// timing-path graph the bias term (one learned scalar per head) is added to
// attention logits of edges present in the DAG, letting the model blend
// global attention with graph structure (the "graph transformer" of the
// paper's Figure 5). Over a packed batch each graph attends only to its own
// rows.
class MultiHeadAttention : public Layer {
 public:
  struct Cache {
    Mat x;
    GraphBatch batch;  // the forward's layout and adjacency
    Mat q, k, v;       // rows x dim (all heads packed)
    // Softmax scores, one row per head: graph g's n x n block sits at the
    // batch's adj_offset[g].
    Mat attn;
    Mat concat;  // rows x dim, pre-Wo
  };

  MultiHeadAttention(int dim, int heads, util::Rng& rng);

  // x: [batch.total_rows x dim]; batch.adj is empty (pure attention) or
  // holds every graph's n x n block.
  void forward(const Mat& x, const GraphBatch& batch, Cache& cache, Mat& y) const;
  // One graph, the batch of one: adj is n x n, 1.0 where an edge exists, or
  // empty.
  void forward(const Mat& x, const Mat& adj, Cache& cache, Mat& y) const;
  void backward(const Mat& dy, const Cache& cache, Mat& dx);
  std::vector<Param*> params() override {
    return {&wq_, &wk_, &wv_, &wo_, &edge_bias_};
  }

  const Mat& wq() const { return wq_.value; }
  const Mat& wk() const { return wk_.value; }
  const Mat& wv() const { return wv_.value; }
  const Mat& wo() const { return wo_.value; }
  const Mat& edge_bias() const { return edge_bias_.value; }
  int heads() const { return heads_; }

 private:
  int dim_, heads_, head_dim_;
  Param wq_, wk_, wv_, wo_;
  Param edge_bias_;  // 1 x heads, scales the adjacency bias per head
  // Backward scratch.
  Mat dconcat_, dq_, dk_, dv_, da_, dscores_, tmp_;
};

// Two-layer position-wise feed-forward: Linear -> ReLU -> Linear.
class FeedForward : public Layer {
 public:
  struct Cache {
    Linear::Cache fc1;
    Linear::Cache fc2;
    Mat hidden, act;  // fc1 output, ReLU output
  };

  FeedForward(int in, int hidden, int out, util::Rng& rng);
  void forward(const Mat& x, Cache& cache, Mat& y) const;
  void backward(const Mat& dy, const Cache& cache, Mat& dx);
  std::vector<Param*> params() override;

  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  Linear fc1_;
  Linear fc2_;
  Mat dact_, dhidden_;  // backward scratch
};

// Adam optimizer over a flat parameter list; the update runs on the
// kernel table's adam entry.
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-3, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);
  void step();
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  std::vector<Param*> params_;
  std::vector<Mat> m_, v_;
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
};

}  // namespace gnnmls::ml
