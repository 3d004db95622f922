#include "ml/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace gnnmls::ml {

// ---- Linear ----------------------------------------------------------------
Linear::Linear(int in, int out, util::Rng& rng)
    : w_(Mat::xavier(in, out, rng), /*keep_transpose=*/true), b_(Mat(1, out)) {}

void Linear::forward(const Mat& x, Cache& cache, Mat& y) const {
  cache.x = x;
  matmul(x, w_.value, y);
  add_row_bias(y, b_.value);
}

void Linear::backward(const Mat& dy, const Cache& cache, Mat& dx) {
  matmul_tn(cache.x, dy, dw_);
  w_.grad.axpy(1.0, dw_);
  for (int i = 0; i < dy.rows(); ++i)
    for (int j = 0; j < dy.cols(); ++j) b_.grad.at(0, j) += dy.at(i, j);
  matmul_dense(dy, w_.value_t, dx);
}

// ---- ReLU ------------------------------------------------------------------
void ReLU::forward(const Mat& x, Mat& y) {
  y.resize(x.rows(), x.cols());
  const std::vector<double>& in = x.data();
  std::vector<double>& out = y.data();
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = in[i] < 0.0 ? 0.0 : in[i];
}

void ReLU::backward(const Mat& dy, const Mat& y, Mat& dx) {
  dx.resize(dy.rows(), dy.cols());
  const std::vector<double>& g = dy.data();
  const std::vector<double>& out = y.data();
  std::vector<double>& d = dx.data();
  for (std::size_t i = 0; i < g.size(); ++i) d[i] = out[i] <= 0.0 ? 0.0 : g[i];
}

// ---- LayerNorm ---------------------------------------------------------------
LayerNorm::LayerNorm(int dim) : gamma_(Mat(1, dim)), beta_(Mat(1, dim)) {
  gamma_.value.fill(1.0);
}

void LayerNorm::forward(const Mat& x, Cache& cache, Mat& y) const {
  const int n = x.rows(), d = x.cols();
  cache.xhat.resize(n, d);
  cache.inv_std.assign(static_cast<std::size_t>(n), 0.0);
  y.resize(n, d);
  for (int i = 0; i < n; ++i) {
    const double* row = x.row(i);
    double mean = 0.0;
    for (int j = 0; j < d; ++j) mean += row[j];
    mean /= d;
    double var = 0.0;
    for (int j = 0; j < d; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= d;
    const double inv = 1.0 / std::sqrt(var + kEps);
    cache.inv_std[static_cast<std::size_t>(i)] = inv;
    for (int j = 0; j < d; ++j) {
      const double xh = (row[j] - mean) * inv;
      cache.xhat.at(i, j) = xh;
      y.at(i, j) = xh * gamma_.value.at(0, j) + beta_.value.at(0, j);
    }
  }
}

void LayerNorm::backward(const Mat& dy, const Cache& cache, Mat& dx) {
  const int n = dy.rows(), d = dy.cols();
  const Mat& xhat = cache.xhat;
  dx.resize(n, d);
  for (int i = 0; i < n; ++i) {
    // Accumulate parameter grads and the two reduction terms.
    double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
    for (int j = 0; j < d; ++j) {
      const double g = dy.at(i, j);
      gamma_.grad.at(0, j) += g * xhat.at(i, j);
      beta_.grad.at(0, j) += g;
      const double dxhat = g * gamma_.value.at(0, j);
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat.at(i, j);
    }
    const double inv = cache.inv_std[static_cast<std::size_t>(i)];
    for (int j = 0; j < d; ++j) {
      const double dxhat = dy.at(i, j) * gamma_.value.at(0, j);
      dx.at(i, j) =
          inv * (dxhat - sum_dxhat / d - xhat.at(i, j) * sum_dxhat_xhat / d);
    }
  }
}

// ---- MultiHeadAttention ------------------------------------------------------
MultiHeadAttention::MultiHeadAttention(int dim, int heads, util::Rng& rng)
    : dim_(dim),
      heads_(heads),
      head_dim_(dim / heads),
      wq_(Mat::xavier(dim, dim, rng), /*keep_transpose=*/true),
      wk_(Mat::xavier(dim, dim, rng), /*keep_transpose=*/true),
      wv_(Mat::xavier(dim, dim, rng), /*keep_transpose=*/true),
      wo_(Mat::xavier(dim, dim, rng), /*keep_transpose=*/true),
      edge_bias_(Mat(1, heads)) {
  if (dim % heads != 0) throw std::invalid_argument("dim must be divisible by heads");
  edge_bias_.value.fill(0.5);  // start with a mild preference for graph edges
}

// Head h is the column slice [h * head_dim, (h + 1) * head_dim) of the packed
// rows x dim matrices, and graph g the row slice the batch layout gives it;
// the kernels read and write a head of one graph in place through the row
// stride dim. Every product starts its sums at +0.0 and never yields -0.0,
// so writing a head's result straight into its slice gives the same bits as
// adding it into a zeroed matrix, and each graph's rows are bit-equal to
// its lone forward.
void MultiHeadAttention::forward(const Mat& x, const GraphBatch& batch, Cache& c,
                                 Mat& y) const {
  if (x.rows() != batch.total_rows)
    throw std::invalid_argument("attention: rows do not match the batch layout");
  if (!batch.adj.empty() && static_cast<int>(batch.adj.size()) != batch.adj_size)
    throw std::invalid_argument("attention: adjacency does not match the batch layout");
  c.x = x;
  c.batch = batch;
  matmul(x, wq_.value, c.q);
  matmul(x, wk_.value, c.k);
  matmul(x, wv_.value, c.v);
  const Kernels& kern = kernels();
  c.attn.resize(heads_, batch.adj_size);
  c.concat.resize(x.rows(), dim_);
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  for (int h = 0; h < heads_; ++h) {
    const int off = h * head_dim_;
    const double bias = edge_bias_.value.at(0, h);
    for (int g = 0; g < batch.graphs; ++g) {
      const int n = batch.nodes[static_cast<std::size_t>(g)];
      const std::size_t base =
          static_cast<std::size_t>(batch.row_offset[static_cast<std::size_t>(g)]) * dim_ + off;
      const int blk = batch.adj_offset[static_cast<std::size_t>(g)];
      double* scores = c.attn.row(h) + blk;
      kern.dgemm_nt(n, head_dim_, n, c.q.data().data() + base, dim_, c.k.data().data() + base,
                    dim_, scores, n);
      for (int e = 0; e < n * n; ++e) scores[e] *= scale;
      if (!batch.adj.empty()) {
        const double* adj = batch.adj.data() + blk;
        for (int e = 0; e < n * n; ++e) scores[e] += bias * adj[e];
      }
      softmax_rows_inplace(n, n, scores);
      kern.dgemm(n, n, head_dim_, scores, n, c.v.data().data() + base, dim_,
                 c.concat.data().data() + base, dim_);
    }
  }
  matmul(c.concat, wo_.value, y);
}

void MultiHeadAttention::forward(const Mat& x, const Mat& adj, Cache& c, Mat& y) const {
  forward(x, GraphBatch::single(adj, x.rows()), c, y);
}

void MultiHeadAttention::backward(const Mat& dy, const Cache& c, Mat& dx) {
  const int rows = dy.rows();
  const GraphBatch& batch = c.batch;
  const double scale = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  const Kernels& kern = kernels();
  // Through Wo.
  matmul_tn(c.concat, dy, tmp_);
  wo_.grad.axpy(1.0, tmp_);
  matmul_dense(dy, wo_.value_t, dconcat_);

  dq_.resize(rows, dim_);
  dk_.resize(rows, dim_);
  dv_.resize(rows, dim_);
  for (int h = 0; h < heads_; ++h) {
    const int off = h * head_dim_;
    for (int g = 0; g < batch.graphs; ++g) {
      const int n = batch.nodes[static_cast<std::size_t>(g)];
      const std::size_t base =
          static_cast<std::size_t>(batch.row_offset[static_cast<std::size_t>(g)]) * dim_ + off;
      const int blk = batch.adj_offset[static_cast<std::size_t>(g)];
      const double* a = c.attn.row(h) + blk;
      const double* doh = dconcat_.data().data() + base;
      da_.resize(n, n);
      dscores_.resize(n, n);
      // O_h = A V_h
      kern.dgemm_nt(n, head_dim_, n, doh, dim_, c.v.data().data() + base, dim_,
                    da_.data().data(), n);
      kern.dgemm_tn(n, n, head_dim_, a, n, doh, dim_, dv_.data().data() + base, dim_);
      // Through softmax.
      softmax_rows_backward(n, n, a, da_.data().data(), dscores_.data().data());
      // Adjacency bias gradient.
      if (!batch.adj.empty()) {
        const double* adj = batch.adj.data() + blk;
        const double* ds = dscores_.data().data();
        double grad = 0.0;
        for (int e = 0; e < n * n; ++e) grad += ds[e] * adj[e];
        edge_bias_.grad.at(0, h) += grad;
      }
      // scores = scale * Q_h K_h^T
      for (double& s : dscores_.data()) s *= scale;
      kern.dgemm(n, n, head_dim_, dscores_.data().data(), n, c.k.data().data() + base, dim_,
                 dq_.data().data() + base, dim_);
      kern.dgemm_tn(n, n, head_dim_, dscores_.data().data(), n, c.q.data().data() + base, dim_,
                    dk_.data().data() + base, dim_);
    }
  }
  matmul_tn(c.x, dq_, tmp_);
  wq_.grad.axpy(1.0, tmp_);
  matmul_tn(c.x, dk_, tmp_);
  wk_.grad.axpy(1.0, tmp_);
  matmul_tn(c.x, dv_, tmp_);
  wv_.grad.axpy(1.0, tmp_);
  matmul_dense(dq_, wq_.value_t, dx);
  matmul_dense(dk_, wk_.value_t, tmp_);
  dx.axpy(1.0, tmp_);
  matmul_dense(dv_, wv_.value_t, tmp_);
  dx.axpy(1.0, tmp_);
}

// ---- FeedForward --------------------------------------------------------------
FeedForward::FeedForward(int in, int hidden, int out, util::Rng& rng)
    : fc1_(in, hidden, rng), fc2_(hidden, out, rng) {}

void FeedForward::forward(const Mat& x, Cache& c, Mat& y) const {
  fc1_.forward(x, c.fc1, c.hidden);
  ReLU::forward(c.hidden, c.act);
  fc2_.forward(c.act, c.fc2, y);
}

void FeedForward::backward(const Mat& dy, const Cache& c, Mat& dx) {
  fc2_.backward(dy, c.fc2, dact_);
  ReLU::backward(dact_, c.act, dhidden_);
  fc1_.backward(dhidden_, c.fc1, dx);
}

std::vector<Param*> FeedForward::params() {
  std::vector<Param*> ps = fc1_.params();
  for (Param* p : fc2_.params()) ps.push_back(p);
  return ps;
}

// ---- Adam ----------------------------------------------------------------------
Adam::Adam(std::vector<Param*> params, double lr, double beta1, double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (Param* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++t_;
  const AdamStep s{lr_,
                   beta1_,
                   beta2_,
                   eps_,
                   1.0 - std::pow(beta1_, static_cast<double>(t_)),
                   1.0 - std::pow(beta2_, static_cast<double>(t_))};
  const Kernels& kern = kernels();
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param* p = params_[i];
    kern.adam(p->value.data().size(), s, p->grad.data().data(), m_[i].data().data(),
              v_[i].data().data(), p->value.data().data());
    p->sync_transpose();
  }
}

}  // namespace gnnmls::ml
