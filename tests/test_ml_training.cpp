// Tests for the training machinery: DGI pretraining, MLP fine-tuning, and
// the dataset utilities. Most are learning tests — they check that the
// losses go down and that the model separates a learnable synthetic signal.
// TrainingGolden pins one small real run to its exact bits.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/fingerprint.hpp"
#include "ml/dgi.hpp"
#include "ml/mlp.hpp"
#include "mls/flow.hpp"
#include "netlist/generators.hpp"

namespace {

using namespace gnnmls::ml;
using gnnmls::util::Rng;

TransformerConfig small_config() {
  TransformerConfig cfg;
  cfg.input_features = 4;
  cfg.dim = 12;
  cfg.heads = 3;
  cfg.layers = 2;
  cfg.ffn_hidden = 24;
  return cfg;
}

// Synthetic corpus: node label = 1 iff feature 0 exceeds a threshold, with
// features 1-3 as structured noise. Easily learnable.
std::vector<PathGraph> synthetic_corpus(int graphs, int nodes, Rng& rng, bool labeled) {
  std::vector<PathGraph> out;
  for (int g = 0; g < graphs; ++g) {
    PathGraph pg;
    pg.x = Mat(nodes, 4);
    pg.adj = chain_adjacency(nodes);
    pg.labels.assign(static_cast<std::size_t>(nodes), kLabelUnknown);
    pg.net_ids.assign(static_cast<std::size_t>(nodes), 0);
    for (int i = 0; i < nodes; ++i) {
      const double key = rng.normal();
      pg.x.at(i, 0) = key;
      for (int j = 1; j < 4; ++j) pg.x.at(i, j) = rng.normal() * 0.5;
      if (labeled) pg.labels[static_cast<std::size_t>(i)] = key > 0.3 ? 1 : 0;
    }
    out.push_back(std::move(pg));
  }
  return out;
}

TEST(FeatureScaler, NormalizesToZeroMeanUnitVar) {
  Rng rng(1);
  auto corpus = synthetic_corpus(20, 10, rng, false);
  FeatureScaler scaler;
  scaler.fit(corpus);
  for (auto& g : corpus) scaler.apply(g);
  double sum = 0.0, ss = 0.0;
  std::size_t n = 0;
  for (const auto& g : corpus) {
    for (int i = 0; i < g.x.rows(); ++i) {
      sum += g.x.at(i, 0);
      ss += g.x.at(i, 0) * g.x.at(i, 0);
      ++n;
    }
  }
  EXPECT_NEAR(sum / static_cast<double>(n), 0.0, 1e-9);
  EXPECT_NEAR(ss / static_cast<double>(n - 1), 1.0, 0.05);
}

TEST(FeatureScaler, RejectsMismatchedWidth) {
  Rng rng(2);
  auto corpus = synthetic_corpus(3, 5, rng, false);
  FeatureScaler scaler;
  scaler.fit(corpus);
  PathGraph wrong;
  wrong.x = Mat(2, 7);
  EXPECT_THROW(scaler.apply(wrong), std::invalid_argument);
}

TEST(ChainAdjacency, Structure) {
  const Mat adj = chain_adjacency(4);
  EXPECT_DOUBLE_EQ(adj.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(adj.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(adj.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(adj.at(3, 3), 0.0);
}

TEST(TrainValSplit, PartitionsWithoutOverlap) {
  Rng rng(3);
  std::vector<std::size_t> train, val;
  train_val_split(100, 0.2, rng, train, val);
  EXPECT_EQ(train.size(), 80u);
  EXPECT_EQ(val.size(), 20u);
  std::vector<bool> seen(100, false);
  for (auto i : train) seen[i] = true;
  for (auto i : val) {
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
}

TEST(Dgi, LossDecreasesOverEpochs) {
  Rng rng(4);
  GraphTransformer enc(small_config(), rng);
  DgiTrainer dgi(enc, rng);
  auto corpus = synthetic_corpus(30, 8, rng, false);
  FeatureScaler scaler;
  scaler.fit(corpus);
  for (auto& g : corpus) scaler.apply(g);
  DgiConfig cfg;
  cfg.epochs = 8;
  const auto losses = dgi.pretrain(corpus, cfg, rng);
  ASSERT_EQ(losses.size(), 8u);
  EXPECT_LT(losses.back(), losses.front());
}

TEST(Dgi, DiscriminatorSeparatesRealFromCorrupted) {
  Rng rng(5);
  GraphTransformer enc(small_config(), rng);
  DgiTrainer dgi(enc, rng);
  auto corpus = synthetic_corpus(40, 8, rng, false);
  FeatureScaler scaler;
  scaler.fit(corpus);
  for (auto& g : corpus) scaler.apply(g);
  DgiConfig cfg;
  cfg.epochs = 12;
  dgi.pretrain(corpus, cfg, rng);
  // Score real node embeddings vs corrupted (row-shuffled) ones.
  double real_score = 0.0, fake_score = 0.0;
  int n_nodes = 0;
  for (const auto& g : corpus) {
    const Mat h = enc.forward(g.x, g.adj);
    Mat s(1, h.cols());
    for (int i = 0; i < h.rows(); ++i)
      for (int j = 0; j < h.cols(); ++j) s.at(0, j) += h.at(i, j);
    for (int j = 0; j < h.cols(); ++j)
      s.at(0, j) = sigmoid(s.at(0, j) / static_cast<double>(h.rows()));
    // Corrupt by reversing feature rows.
    Mat xc = g.x;
    for (int i = 0; i < g.x.rows(); ++i)
      for (int j = 0; j < g.x.cols(); ++j) xc.at(i, j) = g.x.at(g.x.rows() - 1 - i, j);
    const Mat hc = enc.forward(xc, g.adj);
    for (int i = 0; i < h.rows(); ++i) {
      Mat row(1, h.cols()), rowc(1, h.cols());
      for (int j = 0; j < h.cols(); ++j) {
        row.at(0, j) = h.at(i, j);
        rowc.at(0, j) = hc.at(i, j);
      }
      real_score += dgi.discriminate(row, s);
      fake_score += dgi.discriminate(rowc, s);
      ++n_nodes;
    }
  }
  EXPECT_GT(real_score / n_nodes, fake_score / n_nodes);
}

TEST(FineTune, LearnsSyntheticRule) {
  Rng rng(6);
  GraphTransformer enc(small_config(), rng);
  MlpHead head(12, 8, rng);
  auto corpus = synthetic_corpus(60, 10, rng, true);
  FeatureScaler scaler;
  scaler.fit(corpus);
  for (auto& g : corpus) scaler.apply(g);
  FineTuneConfig cfg;
  cfg.epochs = 60;
  cfg.lr = 5e-3;
  const auto losses = fine_tune(enc, head, corpus, cfg);
  EXPECT_LT(losses.back(), losses.front() * 0.8);
  const auto metrics = evaluate(enc, head, corpus);
  EXPECT_GT(metrics.accuracy, 0.85);
  EXPECT_GT(metrics.f1, 0.7);
}

TEST(FineTune, SkipsUnlabeledGraphs) {
  Rng rng(7);
  GraphTransformer enc(small_config(), rng);
  MlpHead head(12, 8, rng);
  auto corpus = synthetic_corpus(10, 6, rng, false);  // all unknown
  FineTuneConfig cfg;
  cfg.epochs = 3;
  const auto losses = fine_tune(enc, head, corpus, cfg);
  for (double l : losses) EXPECT_EQ(l, 0.0);
}

TEST(MlpHead, PredictInUnitInterval) {
  Rng rng(8);
  MlpHead head(12, 8, rng);
  const Mat h = Mat::xavier(5, 12, rng);
  const auto probs = head.predict(h);
  ASSERT_EQ(probs.size(), 5u);
  for (double p : probs) {
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
  }
}

TEST(MlpHead, PositiveWeightSkewsGradient) {
  Rng rng(9);
  MlpHead head(12, 8, rng);
  const Mat h = Mat::xavier(1, 12, rng);
  std::vector<int> pos{1}, neg{0};
  Mat dh_pos, dh_neg;
  head.zero_grad();
  const double lp = head.loss_and_grad(h, pos, 3.0, dh_pos);
  head.zero_grad();
  const double ln = head.loss_and_grad(h, neg, 3.0, dh_neg);
  EXPECT_GT(lp, 0.0);
  EXPECT_GT(ln, 0.0);
  // Positive label with weight 3 produces a proportionally larger loss than
  // the same prediction error unweighted. (Sanity of the weighting path.)
}

// The discriminator's closed-form gradients (dL/dW = U^T S, and dL/dS = U W
// folded into dL/dh) against central finite differences of the batch's DGI
// objective on a ragged layout.
TEST(DgiObjective, ClosedFormGradientsMatchFiniteDifferences) {
  Rng rng(10);
  GraphTransformer enc(small_config(), rng);
  DgiTrainer dgi(enc, rng);
  const int dim = enc.config().dim;
  BatchLayout layout;
  for (const int n : {2, 5, 3}) layout.add(n);
  Mat h = Mat::xavier(layout.total_rows, dim, rng);
  Mat h_neg = Mat::xavier(layout.total_rows, dim, rng);
  Param& w = dgi.discriminator();

  w.zero_grad();
  Mat dh, dh_neg;
  dgi.loss_and_grad(h, h_neg, layout, dh, dh_neg);
  const Mat dw = w.grad;
  const auto loss = [&] {
    Mat scratch, scratch_neg;
    return dgi.loss_and_grad(h, h_neg, layout, scratch, scratch_neg);
  };
  const auto check = [&](Mat& m, const Mat& analytic, const char* what) {
    const double eps = 1e-6;
    for (int i = 0; i < m.rows(); ++i) {
      for (int j = 0; j < m.cols(); ++j) {
        const double save = m.at(i, j);
        m.at(i, j) = save + eps;
        const double lp = loss();
        m.at(i, j) = save - eps;
        const double lm = loss();
        m.at(i, j) = save;
        EXPECT_NEAR(analytic.at(i, j), (lp - lm) / (2.0 * eps), 1e-7)
            << what << " at " << i << "," << j;
      }
    }
  };
  check(w.value, dw, "dW");
  check(h, dh, "dh");
  check(h_neg, dh_neg, "dh_neg");
}

// ---- Golden bit-exactness pin ------------------------------------------------
//
// The double-precision training stack is deterministic down to the bit: the
// GEMM and Adam kernels give the same IEEE mul-then-add sequence at every
// SIMD level. This test pins one small end-to-end run (the MAERI-16 labeled
// corpus, 2 DGI epochs, 3 fine-tune epochs) to exact values. A change that
// moves any of them changes what training computes; re-pin it on purpose and
// say so in CHANGES.md.

std::uint64_t hash_params(const std::vector<Param*>& params, std::uint64_t seed) {
  gnnmls::core::Fnv1a f;
  f.mix(seed);
  for (const Param* p : params)
    for (const double v : p->value.data()) f.mix_double(v);
  return f.value();
}

TEST(TrainingGolden, Maeri16RunIsBitIdentical) {
  gnnmls::mls::FlowConfig flow_cfg;
  flow_cfg.heterogeneous = true;
  flow_cfg.run_pdn = false;
  gnnmls::mls::DesignFlow flow(gnnmls::netlist::make_maeri_16pe(), flow_cfg);
  flow.evaluate_no_mls();
  gnnmls::mls::CorpusOptions co;
  co.max_paths = 60;
  co.include_near_critical = true;
  co.attach_labels = true;
  std::vector<PathGraph> corpus = flow.corpus(co).graphs;
  ASSERT_FALSE(corpus.empty());
  FeatureScaler scaler;
  scaler.fit(corpus);
  for (PathGraph& g : corpus) scaler.apply(g);

  Rng rng(42);
  GraphTransformer enc(TransformerConfig{}, rng);
  MlpHead head(enc.config().dim, 24, rng);
  DgiTrainer dgi(enc, rng);
  const std::vector<double> dgi_loss = dgi.pretrain(corpus, DgiConfig{2, 1e-3}, rng);

  std::vector<std::size_t> train_idx, val_idx;
  train_val_split(corpus.size(), 0.2, rng, train_idx, val_idx);
  std::vector<PathGraph> train_set, val_set;
  for (std::size_t i : train_idx) train_set.push_back(corpus[i]);
  for (std::size_t i : val_idx) val_set.push_back(corpus[i]);
  FineTuneConfig ft;
  ft.epochs = 3;
  fine_tune(enc, head, train_set, ft);
  const gnnmls::util::BinaryMetrics val = evaluate(enc, head, val_set);

  std::vector<Param*> all = enc.params();
  all.push_back(&dgi.discriminator());
  for (Param* p : head.params()) all.push_back(p);
  const std::uint64_t weights = hash_params(all, corpus.size());

  std::printf("golden: corpus=%zu dgi_loss=%.17g,%.17g weights=0x%016llx "
              "val=%.17g,%.17g,%.17g,%.17g\n",
              corpus.size(), dgi_loss[0], dgi_loss[1],
              static_cast<unsigned long long>(weights), val.accuracy, val.precision, val.recall,
              val.f1);
  ASSERT_EQ(dgi_loss.size(), 2u);
  EXPECT_EQ(corpus.size(), 60u);
  EXPECT_EQ(dgi_loss[0], 2.0968257137686441);
  EXPECT_EQ(dgi_loss[1], 1.9846504077946778);
  EXPECT_EQ(weights, 0xedbb0b012e49989aULL);
  EXPECT_EQ(val.accuracy, 0.85616438356164382);
  EXPECT_EQ(val.precision, 1.0);
  EXPECT_EQ(val.recall, 0.16);
  EXPECT_EQ(val.f1, 0.27586206896551729);
}

}  // namespace
