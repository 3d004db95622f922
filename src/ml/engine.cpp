#include "ml/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::ml {

namespace {

std::vector<float> to_f32(const Mat& m) {
  std::vector<float> out;
  out.reserve(m.data().size());
  for (const double v : m.data()) out.push_back(static_cast<float>(v));
  return out;
}

// Fills each row of a [rows x cols] buffer with `bias` (the fused bias-add:
// gemm accumulates on top).
void fill_bias_rows(int rows, int cols, const std::vector<float>& bias, float* out) {
  for (int i = 0; i < rows; ++i) {
    float* row = out + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) row[j] = bias[static_cast<std::size_t>(j)];
  }
}

}  // namespace

InferenceEngine::InferenceEngine(const GraphTransformer& encoder, const MlpHead& head,
                                 const FeatureScaler& scaler)
    : scaler_(scaler) {
  snapshot(encoder, head);
}

void InferenceEngine::snapshot(const GraphTransformer& encoder, const MlpHead& head) {
  const TransformerConfig& cfg = encoder.config();
  w_.features = cfg.input_features;
  w_.dim = cfg.dim;
  w_.heads = cfg.heads;
  w_.head_dim = cfg.dim / cfg.heads;
  w_.ffn = cfg.ffn_hidden;
  w_.max_len = cfg.max_len;
  w_.hidden = head.fc1().weight().cols();

  auto dense = [](const Linear& l, bool with_bias) {
    DenseF d;
    d.in = l.weight().rows();
    d.out = l.weight().cols();
    d.w = to_f32(l.weight());
    if (with_bias) d.b = to_f32(l.bias());
    return d;
  };
  auto norm = [](const LayerNorm& ln) {
    return NormF{to_f32(ln.gamma()), to_f32(ln.beta())};
  };
  auto bare = [](const Mat& m) {
    DenseF d;
    d.in = m.rows();
    d.out = m.cols();
    d.w = to_f32(m);
    return d;
  };

  w_.in_proj = dense(encoder.input_proj(), true);
  w_.pos = to_f32(encoder.pos_table());
  for (const GraphTransformer::BlockView& b : encoder.block_views()) {
    BlockF bf;
    bf.ln1 = norm(*b.ln1);
    bf.ln2 = norm(*b.ln2);
    // Pack wq|wk|wv side by side so q/k/v come out of ONE GEMM pass over the
    // normalized activations; attention reads the slices with row stride 3d.
    const Mat& wq = b.attn->wq();
    const Mat& wk = b.attn->wk();
    const Mat& wv = b.attn->wv();
    bf.qkv.in = wq.rows();
    bf.qkv.out = 3 * wq.cols();
    bf.qkv.w.resize(static_cast<std::size_t>(bf.qkv.in) * bf.qkv.out);
    for (int r = 0; r < bf.qkv.in; ++r) {
      float* row = bf.qkv.w.data() + static_cast<std::size_t>(r) * bf.qkv.out;
      const std::size_t src = static_cast<std::size_t>(r) * wq.cols();
      for (int col = 0; col < wq.cols(); ++col) {
        row[col] = static_cast<float>(wq.data()[src + col]);
        row[wq.cols() + col] = static_cast<float>(wk.data()[src + col]);
        row[2 * wq.cols() + col] = static_cast<float>(wv.data()[src + col]);
      }
    }
    bf.wo = bare(b.attn->wo());
    bf.edge_bias = to_f32(b.attn->edge_bias());
    bf.f1 = dense(b.ffn->fc1(), true);
    bf.f2 = dense(b.ffn->fc2(), true);
    w_.blocks.push_back(std::move(bf));
  }
  w_.final_ln = norm(encoder.final_ln());
  w_.h1 = dense(head.fc1(), true);
  w_.h2 = dense(head.fc2(), true);
}

std::vector<std::vector<float>> InferenceEngine::forward_batch(const PackedBatch& batch) const {
  std::vector<std::vector<float>> out(static_cast<std::size_t>(batch.graphs));
  if (batch.graphs == 0) return out;
  if (batch.max_nodes > w_.max_len)
    throw std::invalid_argument("path longer than positional table");
  if (batch.features != w_.features)
    throw std::invalid_argument("batch/engine feature width mismatch");

  const Kernels& k = kernels();
  const int mn = batch.max_nodes;
  const int rows = batch.total_rows;
  const int d = w_.dim;
  const float scale = 1.0f / std::sqrt(static_cast<float>(w_.head_dim));

  // Workspaces, allocated per call. Uninitialized on purpose — every buffer
  // is fully written before it is read (fill_bias_rows, overwrite-mode
  // GEMMs, layernorm, attention), and a value-initializing vector would
  // memset ~1MB per call for nothing.
  const auto uninit = [](std::size_t count) {
    return std::unique_ptr<float[]>(new float[count]);  // NOLINT(modernize-avoid-c-arrays)
  };
  const auto h_buf = uninit(static_cast<std::size_t>(rows) * d);
  const auto xn_buf = uninit(static_cast<std::size_t>(rows) * d);
  const auto qkv_buf = uninit(static_cast<std::size_t>(rows) * 3 * d);
  const auto concat_buf = uninit(static_cast<std::size_t>(rows) * d);
  const auto ffn_buf = uninit(static_cast<std::size_t>(rows) * w_.ffn);
  const auto scores_buf = uninit(static_cast<std::size_t>(mn) * mn);
  float* const h = h_buf.get();
  float* const xn = xn_buf.get();
  float* const qkv = qkv_buf.get();
  float* const concat = concat_buf.get();
  float* const ffn = ffn_buf.get();
  float* const scores = scores_buf.get();

  // Input projection, then one pass folding in the projection bias and the
  // positional encoding together.
  k.gemm(rows, w_.features, d, batch.x.data(), w_.in_proj.w.data(), h, false);
  const float* in_b = w_.in_proj.b.data();
  for (int g = 0; g < batch.graphs; ++g) {
    const int n = batch.nodes[static_cast<std::size_t>(g)];
    float* rows0 = h +
                   static_cast<std::size_t>(batch.row_offset[static_cast<std::size_t>(g)]) * d;
    for (int i = 0; i < n; ++i) {
      float* row = rows0 + static_cast<std::size_t>(i) * d;
      const float* prow = w_.pos.data() + static_cast<std::size_t>(i) * d;
      for (int j = 0; j < d; ++j) row[j] += in_b[j] + prow[j];
    }
  }

  for (const BlockF& blk : w_.blocks) {
    // h += Attn(LN1(h)); pre-LN residual.
    k.layernorm_rows(rows, d, h, blk.ln1.gamma.data(), blk.ln1.beta.data(), 1e-5f,
                     xn);
    k.gemm(rows, d, 3 * d, xn, blk.qkv.w.data(), qkv, false);
    for (int g = 0; g < batch.graphs; ++g) {
      const int n = batch.nodes[static_cast<std::size_t>(g)];
      const std::size_t base = static_cast<std::size_t>(batch.row_offset[static_cast<std::size_t>(g)]);
      const float* gq = qkv + base * 3 * d;
      k.attention(n, d, w_.heads, gq, gq + d, gq + 2 * d, 3 * d,
                  batch.adj.data() + batch.adj_offset[static_cast<std::size_t>(g)], n,
                  blk.edge_bias.data(), scale, scores, concat + base * d, d);
    }
    k.gemm(rows, d, d, concat, blk.wo.w.data(), h, true);  // residual accumulate

    // h += FFN(LN2(h)).
    k.layernorm_rows(rows, d, h, blk.ln2.gamma.data(), blk.ln2.beta.data(), 1e-5f,
                     xn);
    k.gemm(rows, d, w_.ffn, xn, blk.f1.w.data(), ffn, false);
    k.bias_relu_rows(rows, w_.ffn, blk.f1.b.data(), ffn);
    for (int r = 0; r < rows; ++r) {
      float* row = h + static_cast<std::size_t>(r) * d;
      for (int j = 0; j < d; ++j) row[j] += blk.f2.b[static_cast<std::size_t>(j)];
    }
    k.gemm(rows, w_.ffn, d, ffn, blk.f2.w.data(), h, true);
  }

  k.layernorm_rows(rows, d, h, w_.final_ln.gamma.data(), w_.final_ln.beta.data(), 1e-5f,
                   xn);

  // Decision head: fc2(relu(fc1(h))) -> sigmoid.
  std::vector<float> hid(static_cast<std::size_t>(rows) * w_.hidden);
  k.gemm(rows, d, w_.hidden, xn, w_.h1.w.data(), hid.data(), false);
  k.bias_relu_rows(rows, w_.hidden, w_.h1.b.data(), hid.data());
  std::vector<float> logits(static_cast<std::size_t>(rows));
  fill_bias_rows(rows, 1, w_.h2.b, logits.data());
  k.gemm(rows, w_.hidden, 1, hid.data(), w_.h2.w.data(), logits.data(), true);

  for (int g = 0; g < batch.graphs; ++g) {
    const int n = batch.nodes[static_cast<std::size_t>(g)];
    std::vector<float>& probs = out[static_cast<std::size_t>(g)];
    probs.resize(static_cast<std::size_t>(n));
    const float* lg = logits.data() + batch.row_offset[static_cast<std::size_t>(g)];
    for (int i = 0; i < n; ++i)
      probs[static_cast<std::size_t>(i)] = 1.0f / (1.0f + std::exp(-lg[i]));
  }
  return out;
}

std::vector<std::vector<float>> InferenceEngine::predict(std::span<const PathGraph> graphs) {
  GNNMLS_SPAN("ml.engine.predict");
  obs::Metrics& metrics = obs::Metrics::instance();
  static obs::Histogram& infer_s = metrics.histogram("ml.infer_s");
  static obs::Histogram& batch_size = metrics.histogram("ml.engine.batch_size");
  static obs::Counter& batch_paths = metrics.counter("ml.batch_paths");

  // Length-sorted fixed-size chunks: graphs of similar node count share a
  // batch, which keeps each batch's attention-score workspace (max_nodes^2)
  // tight. The sort key (node count, original index) is a total order that
  // depends only on the input, so the batches are too.
  std::vector<std::size_t> order(graphs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int na = graphs[a].x.rows();
    const int nb = graphs[b].x.rows();
    return na != nb ? na < nb : a < b;
  });
  std::vector<std::vector<float>> results(graphs.size());
  std::size_t batches = 0;
  for (std::size_t begin = 0; begin < order.size(); begin += kBatchPaths, ++batches) {
    const std::size_t end = std::min(begin + kBatchPaths, order.size());
    std::vector<const PathGraph*> ptrs;
    ptrs.reserve(end - begin);
    for (std::size_t m = begin; m < end; ++m) ptrs.push_back(&graphs[order[m]]);
    const auto t0 = std::chrono::steady_clock::now();
    const PackedBatch batch = pack(ptrs, scaler_);
    std::vector<std::vector<float>> probs = forward_batch(batch);
    infer_s.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    batch_size.observe(static_cast<double>(end - begin));
    for (std::size_t m = begin; m < end; ++m) results[order[m]] = std::move(probs[m - begin]);
  }

  stats_.batches += batches;
  stats_.paths += graphs.size();
  batch_paths.add(graphs.size());
  return results;
}

}  // namespace gnnmls::ml
