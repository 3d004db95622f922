// Gradient-correctness tests for every layer: analytic backward passes are
// verified against central finite differences. This is the safety net under
// the hand-written transformer.
#include <gtest/gtest.h>

#include <cstring>

#include "ml/batcher.hpp"
#include "ml/kernels.hpp"
#include "ml/layers.hpp"
#include "ml/transformer.hpp"

namespace {

using namespace gnnmls::ml;
using gnnmls::util::Rng;

// Scalar loss used for gradient checks: L = sum(Y * W) with fixed W.
double probe_loss(const Mat& y, const Mat& probe) {
  double l = 0.0;
  for (std::size_t i = 0; i < y.data().size(); ++i) l += y.data()[i] * probe.data()[i];
  return l;
}

// Generic finite-difference input-gradient check for a forward functor.
template <typename Fwd>
void check_input_grad(Fwd&& fwd, Mat x, const Mat& dx_analytic, const Mat& probe,
                      double tol = 2e-5) {
  const double eps = 1e-6;
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      const double save = x.at(i, j);
      x.at(i, j) = save + eps;
      const double lp = probe_loss(fwd(x), probe);
      x.at(i, j) = save - eps;
      const double lm = probe_loss(fwd(x), probe);
      x.at(i, j) = save;
      EXPECT_NEAR(dx_analytic.at(i, j), (lp - lm) / (2.0 * eps), tol) << "at " << i << "," << j;
    }
  }
}

TEST(Linear, ForwardMatchesManual) {
  Rng rng(1);
  Linear fc(2, 2, rng);
  Mat x(1, 2);
  x.at(0, 0) = 1.0;
  x.at(0, 1) = 2.0;
  Linear::Cache cache;
  Mat y;
  fc.forward(x, cache, y);
  Param* w = fc.params()[0];
  Param* b = fc.params()[1];
  EXPECT_NEAR(y.at(0, 0), w->value.at(0, 0) + 2.0 * w->value.at(1, 0) + b->value.at(0, 0), 1e-12);
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  Linear fc(4, 3, rng);
  const Mat x = Mat::xavier(5, 4, rng);
  const Mat probe = Mat::xavier(5, 3, rng);
  fc.zero_grad();
  Linear::Cache cache;
  Mat y, dx;
  fc.forward(x, cache, y);
  fc.backward(probe, cache, dx);
  check_input_grad([&](const Mat& xi) { fc.forward(xi, cache, y); return y; }, x, dx, probe);
}

TEST(Linear, WeightGradCheck) {
  Rng rng(3);
  Linear fc(3, 2, rng);
  const Mat x = Mat::xavier(4, 3, rng);
  const Mat probe = Mat::xavier(4, 2, rng);
  fc.zero_grad();
  Linear::Cache cache;
  Mat y, dx;
  fc.forward(x, cache, y);
  fc.backward(probe, cache, dx);
  const auto fwd = [&] {
    fc.forward(x, cache, y);
    return y;
  };
  Param* w = fc.params()[0];
  const double eps = 1e-6;
  for (int i = 0; i < w->value.rows(); ++i) {
    for (int j = 0; j < w->value.cols(); ++j) {
      const double save = w->value.at(i, j);
      w->value.at(i, j) = save + eps;
      const double lp = probe_loss(fwd(), probe);
      w->value.at(i, j) = save - eps;
      const double lm = probe_loss(fwd(), probe);
      w->value.at(i, j) = save;
      EXPECT_NEAR(w->grad.at(i, j), (lp - lm) / (2.0 * eps), 2e-5);
    }
  }
}

TEST(ReLU, ForwardAndBackward) {
  Mat x(1, 4);
  double v[] = {-1.0, 0.0, 0.5, 2.0};
  x.data().assign(v, v + 4);
  Mat y;
  ReLU::forward(x, y);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y.at(0, 3), 2.0);
  Mat dy(1, 4);
  dy.fill(1.0);
  Mat dx;
  ReLU::backward(dy, y, dx);
  EXPECT_DOUBLE_EQ(dx.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(dx.at(0, 2), 1.0);
}

TEST(LayerNorm, NormalizesRows) {
  Rng rng(4);
  LayerNorm ln(8);
  const Mat x = Mat::xavier(3, 8, rng);
  LayerNorm::Cache cache;
  Mat y;
  ln.forward(x, cache, y);
  for (int i = 0; i < y.rows(); ++i) {
    double mean = 0.0, var = 0.0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    mean /= 8;
    for (int j = 0; j < 8; ++j) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  Rng rng(5);
  LayerNorm ln(6);
  const Mat x = Mat::xavier(4, 6, rng);
  const Mat probe = Mat::xavier(4, 6, rng);
  ln.zero_grad();
  LayerNorm::Cache cache;
  Mat y, dx;
  ln.forward(x, cache, y);
  ln.backward(probe, cache, dx);
  check_input_grad([&](const Mat& xi) { ln.forward(xi, cache, y); return y; }, x, dx, probe,
                   5e-5);
}

TEST(Attention, OutputShapeAndGradCheck) {
  Rng rng(6);
  MultiHeadAttention attn(12, 3, rng);
  const Mat x = Mat::xavier(5, 12, rng);
  Mat adj(5, 5);
  for (int i = 0; i + 1 < 5; ++i) {
    adj.at(i, i + 1) = 1.0;
    adj.at(i + 1, i) = 1.0;
  }
  const Mat probe = Mat::xavier(5, 12, rng);
  attn.zero_grad();
  MultiHeadAttention::Cache cache;
  Mat y, dx;
  attn.forward(x, adj, cache, y);
  EXPECT_EQ(y.rows(), 5);
  EXPECT_EQ(y.cols(), 12);
  attn.backward(probe, cache, dx);
  check_input_grad([&](const Mat& xi) { attn.forward(xi, adj, cache, y); return y; }, x, dx,
                   probe, 5e-5);
}

TEST(Attention, AdjacencyBiasChangesOutput) {
  Rng rng(7);
  MultiHeadAttention attn(12, 3, rng);
  const Mat x = Mat::xavier(4, 12, rng);
  const Mat none;
  Mat chain(4, 4);
  for (int i = 0; i + 1 < 4; ++i) chain.at(i, i + 1) = chain.at(i + 1, i) = 1.0;
  MultiHeadAttention::Cache cache;
  Mat y0, y1;
  attn.forward(x, none, cache, y0);
  attn.forward(x, chain, cache, y1);
  double diff = 0.0;
  for (std::size_t i = 0; i < y0.data().size(); ++i) diff += std::abs(y0.data()[i] - y1.data()[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(Attention, RejectsIndivisibleHeads) {
  Rng rng(8);
  EXPECT_THROW(MultiHeadAttention(10, 3, rng), std::invalid_argument);
}

TEST(FeedForward, GradCheck) {
  Rng rng(9);
  FeedForward ffn(6, 12, 6, rng);
  const Mat x = Mat::xavier(3, 6, rng);
  const Mat probe = Mat::xavier(3, 6, rng);
  ffn.zero_grad();
  FeedForward::Cache cache;
  Mat y, dx;
  ffn.forward(x, cache, y);
  ffn.backward(probe, cache, dx);
  check_input_grad([&](const Mat& xi) { ffn.forward(xi, cache, y); return y; }, x, dx, probe,
                   5e-5);
}

TEST(Transformer, EndToEndGradCheck) {
  Rng rng(10);
  TransformerConfig cfg;
  cfg.input_features = 5;
  cfg.dim = 12;
  cfg.heads = 3;
  cfg.layers = 2;
  cfg.ffn_hidden = 24;
  GraphTransformer enc(cfg, rng);
  const Mat x = Mat::xavier(4, 5, rng);
  Mat adj(4, 4);
  for (int i = 0; i + 1 < 4; ++i) adj.at(i, i + 1) = adj.at(i + 1, i) = 1.0;
  const Mat probe = Mat::xavier(4, 12, rng);
  enc.zero_grad();
  GraphTransformer::Cache cache;
  Mat h, dx;
  enc.forward(x, adj, cache, h);
  enc.backward(probe, cache, dx);
  check_input_grad([&](const Mat& xi) { return enc.forward(xi, adj); }, x, dx, probe, 2e-4);
}

TEST(Transformer, PositionalEncodingDistinguishesOrder) {
  Rng rng(11);
  TransformerConfig cfg;
  cfg.input_features = 4;
  cfg.dim = 12;
  GraphTransformer enc(cfg, rng);
  Mat x(3, 4);
  x.fill(0.5);  // identical features at every position
  const Mat h = enc.forward(x, Mat());
  double diff = 0.0;
  for (int j = 0; j < h.cols(); ++j) diff += std::abs(h.at(0, j) - h.at(2, j));
  EXPECT_GT(diff, 1e-6);  // embeddings differ only because of position
}

TEST(Transformer, RejectsOverlongPaths) {
  Rng rng(12);
  TransformerConfig cfg;
  cfg.max_len = 8;
  GraphTransformer enc(cfg, rng);
  EXPECT_THROW(enc.forward(Mat(9, cfg.input_features), Mat()), std::invalid_argument);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize ||W - T||^2 for a fixed target T.
  Rng rng(13);
  Param w(Mat::xavier(3, 3, rng));
  const Mat target = Mat::xavier(3, 3, rng);
  Adam opt({&w}, 0.05);
  for (int step = 0; step < 400; ++step) {
    w.zero_grad();
    for (std::size_t i = 0; i < w.value.data().size(); ++i)
      w.grad.data()[i] = 2.0 * (w.value.data()[i] - target.data()[i]);
    opt.step();
  }
  for (std::size_t i = 0; i < w.value.data().size(); ++i)
    EXPECT_NEAR(w.value.data()[i], target.data()[i], 1e-3);
}

// A weight's kept transpose follows every optimizer step exactly, and a
// parameter that keeps none stays without one.
TEST(Adam, StepKeepsWeightTransposes) {
  Rng rng(17);
  Param w(Mat::xavier(3, 5, rng), /*keep_transpose=*/true);
  Param b(Mat(1, 5));
  Adam opt({&w, &b}, 0.05);
  for (int step = 0; step < 3; ++step) {
    for (double& g : w.grad.data()) g = rng.uniform(-1.0, 1.0);
    for (double& g : b.grad.data()) g = rng.uniform(-1.0, 1.0);
    opt.step();
    const Mat want = transpose(w.value);
    ASSERT_EQ(w.value_t.rows(), 5);
    EXPECT_EQ(w.value_t.data(), want.data());
  }
  EXPECT_TRUE(b.value_t.empty());
}

// ---- packed mini-batches -------------------------------------------------------

// Ragged path graphs of the given sizes, each with a chain adjacency except
// the one at index `no_adj`, which has none.
std::vector<PathGraph> ragged_graphs(const std::vector<int>& sizes, int features, Rng& rng,
                                     std::size_t no_adj) {
  std::vector<PathGraph> graphs;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    PathGraph pg;
    pg.x = Mat::xavier(sizes[g], features, rng);
    if (g != no_adj) pg.adj = chain_adjacency(sizes[g]);
    graphs.push_back(std::move(pg));
  }
  return graphs;
}

std::vector<const PathGraph*> pointers(const std::vector<PathGraph>& graphs) {
  std::vector<const PathGraph*> ptrs;
  for (const PathGraph& g : graphs) ptrs.push_back(&g);
  return ptrs;
}

// Every double kernel computes each output row on its own and attention
// reads only its graph's rows, so a graph's embedding rows inside a packed
// batch are memcmp-equal to its lone forward, at every SIMD level.
TEST(PackedForward, RowsAreBitEqualToLoneForwards) {
  Rng rng(18);
  TransformerConfig cfg;
  cfg.max_len = 40;
  GraphTransformer enc(cfg, rng);
  const std::vector<PathGraph> graphs =
      ragged_graphs({3, 1, cfg.max_len, 2, 11, 7}, cfg.input_features, rng, /*no_adj=*/4);
  GraphBatch batch;
  Mat x;
  pack(pointers(graphs), batch, x);
  ASSERT_EQ(batch.max_nodes, cfg.max_len);

  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (cpu_has_avx2()) levels.push_back(SimdLevel::kAvx2);
  if (cpu_has_avx512()) levels.push_back(SimdLevel::kAvx512);
  for (const SimdLevel level : levels) {
    const SimdLevel prev = set_simd_for_test(level);
    GraphTransformer::Cache cache;
    Mat h;
    enc.forward(x, batch, cache, h);
    ASSERT_EQ(h.rows(), batch.total_rows);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const Mat lone = enc.forward(graphs[g].x, graphs[g].adj);
      EXPECT_EQ(std::memcmp(lone.data().data(), h.row(batch.row_offset[g]),
                            lone.data().size() * sizeof(double)),
                0)
          << "graph " << g << " (" << graphs[g].x.rows() << " nodes) at "
          << to_string(level);
    }
    set_simd_for_test(prev);
  }
}

// The packed backward against central finite differences on a ragged batch:
// the input gradient row by row, and every parameter gradient against the
// sum of the graphs' lone backward passes.
TEST(PackedBackward, RaggedBatchGradCheck) {
  Rng rng(19);
  TransformerConfig cfg;
  cfg.input_features = 5;
  cfg.dim = 12;
  cfg.heads = 3;
  cfg.layers = 2;
  cfg.ffn_hidden = 24;
  GraphTransformer enc(cfg, rng);
  const std::vector<PathGraph> graphs = ragged_graphs({1, 4, 3}, cfg.input_features, rng, 9);
  GraphBatch batch;
  Mat x;
  pack(pointers(graphs), batch, x);
  const Mat probe = Mat::xavier(batch.total_rows, cfg.dim, rng);

  enc.zero_grad();
  GraphTransformer::Cache cache;
  Mat h, dx;
  enc.forward(x, batch, cache, h);
  enc.backward(probe, cache, dx);
  const auto fwd = [&](const Mat& xi) {
    GraphTransformer::Cache c;
    Mat out;
    enc.forward(xi, batch, c, out);
    return out;
  };
  check_input_grad(fwd, x, dx, probe, 2e-4);

  std::vector<Mat> packed_grads;
  for (const Param* p : enc.params()) packed_grads.push_back(p->grad);
  enc.zero_grad();
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const int n = batch.nodes[g];
    Mat probe_g(n, cfg.dim);
    std::copy(probe.row(batch.row_offset[g]), probe.row(batch.row_offset[g]) + n * cfg.dim,
              probe_g.data().begin());
    GraphTransformer::Cache c;
    enc.forward(graphs[g].x, graphs[g].adj, c, h);
    enc.backward(probe_g, c, dx);
  }
  const std::vector<Param*> params = enc.params();
  for (std::size_t p = 0; p < params.size(); ++p)
    for (std::size_t i = 0; i < packed_grads[p].data().size(); ++i)
      EXPECT_NEAR(packed_grads[p].data()[i], params[p]->grad.data()[i], 1e-12)
          << "param " << p << " entry " << i;

  // The adjacency-bias gradients against finite differences: the one
  // parameter that only attention reads through the batch's blocks.
  const double eps = 1e-6;
  for (std::size_t p = 0; p < params.size(); ++p) {
    if (params[p]->value.rows() != 1 || params[p]->value.cols() != cfg.heads) continue;
    for (int hd = 0; hd < cfg.heads; ++hd) {
      double& v = params[p]->value.at(0, hd);
      const double save = v;
      v = save + eps;
      const double lp = probe_loss(fwd(x), probe);
      v = save - eps;
      const double lm = probe_loss(fwd(x), probe);
      v = save;
      EXPECT_NEAR(packed_grads[p].at(0, hd), (lp - lm) / (2.0 * eps), 2e-5)
          << "param " << p << " head " << hd;
    }
  }
}

}  // namespace
