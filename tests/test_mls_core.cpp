// Tests for the GNN-MLS core: feature extraction, labeling oracle, SOTA
// baseline, corpus assembly, and the decision engine end to end (small).
#include <gtest/gtest.h>

#include "mls/flow.hpp"
#include "util/log.hpp"

namespace {

using namespace gnnmls;
using namespace gnnmls::mls;

struct FlowFixture : ::testing::Test {
  void SetUp() override {
    util::set_log_level(util::LogLevel::kWarn);
    FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;  // keep unit tests fast
    flow = std::make_unique<DesignFlow>(netlist::make_maeri_16pe(), cfg);
    baseline = flow->evaluate_no_mls();
  }
  std::unique_ptr<DesignFlow> flow;
  FlowMetrics baseline;
};

TEST_F(FlowFixture, FeatureExtractionMatchesTableII) {
  CorpusOptions co;
  co.max_paths = 20;
  co.include_near_critical = true;
  co.margin_ps = 300.0;
  const Corpus corpus = flow->corpus(co);
  ASSERT_FALSE(corpus.graphs.empty());
  for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
    const auto& g = corpus.graphs[gi];
    const auto& p = corpus.paths[gi];
    ASSERT_EQ(static_cast<std::size_t>(g.x.rows()), p.stages.size());
    EXPECT_EQ(g.x.cols(), kNumFeatures);
    for (int i = 0; i < g.x.rows(); ++i) {
      const auto& cell = flow->design().nl.cell(p.stages[static_cast<std::size_t>(i)].cell);
      EXPECT_DOUBLE_EQ(g.x.at(i, 0), cell.x_um);  // cell location x
      EXPECT_DOUBLE_EQ(g.x.at(i, 1), cell.y_um);  // cell location y
      EXPECT_GE(g.x.at(i, 2), 0.0);               // cell delay
      if (p.stages[static_cast<std::size_t>(i)].net != netlist::kNullId) {
        const auto& r = flow->router().net_route(p.stages[static_cast<std::size_t>(i)].net);
        EXPECT_FLOAT_EQ(static_cast<float>(g.x.at(i, 4)), r.wl_um);
        EXPECT_FLOAT_EQ(static_cast<float>(g.x.at(i, 5)), r.cap_ff);
        EXPECT_FLOAT_EQ(static_cast<float>(g.x.at(i, 6)), r.res_ohm);
      }
    }
  }
}

TEST_F(FlowFixture, PathGraphHasChainAdjacency) {
  CorpusOptions co;
  co.max_paths = 5;
  co.include_near_critical = true;
  co.margin_ps = 300.0;
  const Corpus corpus = flow->corpus(co);
  ASSERT_FALSE(corpus.graphs.empty());
  const auto& g = corpus.graphs.front();
  for (int i = 0; i + 1 < g.adj.rows(); ++i) {
    EXPECT_DOUBLE_EQ(g.adj.at(i, i + 1), 1.0);
    EXPECT_DOUBLE_EQ(g.adj.at(i + 1, i), 1.0);
  }
}

TEST_F(FlowFixture, LabelerProducesBothClasses) {
  CorpusOptions co;
  co.max_paths = 200;
  co.include_near_critical = true;
  co.margin_ps = 200.0;
  co.attach_labels = true;
  const Corpus corpus = flow->corpus(co);
  EXPECT_GT(corpus.label_stats.labeled, 50u);
  EXPECT_GT(corpus.label_stats.positive, 0u);
  EXPECT_LT(corpus.label_stats.positive, corpus.label_stats.labeled);
}

TEST_F(FlowFixture, OracleGainMatchesTrialRoutes) {
  // mls_gain must equal the arc-delay difference of the two trials.
  const auto& nl = flow->design().nl;
  for (netlist::Id n = 0; n < nl.num_nets(); ++n) {
    const auto& net = nl.net(n);
    if (net.driver == netlist::kNullId || net.sinks.empty()) continue;
    if (nl.is_3d_net(n) || nl.net_hpwl_um(n) < 100.0) continue;
    if (nl.cell(nl.pin(net.driver).cell).tier != 0) continue;
    const netlist::Id next_cell = nl.pin(net.sinks[0]).cell;
    const double gain = mls_gain_ps(flow->design(), flow->tech(), flow->router(), n, next_cell);
    const auto base = flow->router().trial_route(n, false);
    const auto shared = flow->router().trial_route(n, true);
    ASSERT_TRUE(shared.mls_applied);
    const auto& drv_cell = nl.cell(nl.pin(net.driver).cell);
    const auto& drv = flow->tech().bottom.cell(drv_cell.kind);
    const double expect = (drv.drive_res_kohm * base.load_ff + base.sink_elmore_ps[0]) -
                          (drv.drive_res_kohm * shared.load_ff + shared.sink_elmore_ps[0]);
    EXPECT_NEAR(gain, expect, 1e-6);
    return;
  }
  GTEST_SKIP() << "no long bottom-tier net";
}

TEST_F(FlowFixture, SotaSelectsLongBottomNets) {
  SotaOptions opt;
  const auto flags = sota_select(flow->design(), opt);
  const std::size_t count = count_flags(flags);
  EXPECT_GT(count, 0u);
  const auto& nl = flow->design().nl;
  for (netlist::Id n = 0; n < nl.num_nets(); ++n) {
    if (!flags[n]) continue;
    EXPECT_GE(nl.net_hpwl_um(n), opt.min_wl_um);
    EXPECT_LE(nl.net(n).sinks.size(), opt.max_fanout);
    EXPECT_FALSE(nl.is_3d_net(n));
    EXPECT_EQ(nl.cell(nl.pin(nl.net(n).driver).cell).tier, 0);
  }
}

TEST_F(FlowFixture, SotaThresholdMonotone) {
  SotaOptions loose;
  loose.min_wl_um = 60.0;
  SotaOptions tight;
  tight.min_wl_um = 200.0;
  EXPECT_GE(count_flags(sota_select(flow->design(), loose)),
            count_flags(sota_select(flow->design(), tight)));
}

TEST_F(FlowFixture, EngineTrainsAndDecides) {
  GnnMlsConfig cfg;
  cfg.transformer.dim = 24;
  cfg.transformer.ffn_hidden = 48;
  cfg.dgi.epochs = 2;
  cfg.fine_tune.epochs = 15;
  GnnMlsEngine engine(cfg);

  CorpusOptions co;
  co.max_paths = 150;
  co.include_near_critical = true;
  co.margin_ps = 200.0;
  co.attach_labels = true;
  Corpus corpus = flow->corpus(co);
  ASSERT_GT(corpus.graphs.size(), 20u);
  engine.pretrain(corpus.graphs);
  EXPECT_TRUE(engine.pretrained());
  const TrainReport report = engine.fine_tune(corpus.graphs);
  EXPECT_GT(report.train_metrics.accuracy, 0.6);

  const auto flags = engine.decide(flow->design(), flow->tech(), flow->router(), flow->sta());
  EXPECT_EQ(flags.size(), flow->design().nl.num_nets());
  // With the trial guard on, every flagged net has nonneg oracle gain.
  for (netlist::Id n = 0; n < flags.size(); ++n) {
    if (!flags[n]) continue;
    const auto& net = flow->design().nl.net(n);
    const double gain = mls_gain_ps(flow->design(), flow->tech(), flow->router(), n,
                                    flow->design().nl.pin(net.sinks[0]).cell);
    EXPECT_GE(gain, cfg.fine_tune.positive_weight >= 0 ? 1.0 : 0.0) << "net " << n;
  }
}

// The reported training time covers DGI pretraining, not just fine-tuning.
TEST_F(FlowFixture, TrainSecondsIncludePretraining) {
  GnnMlsConfig cfg;
  cfg.transformer.dim = 24;
  cfg.dgi.epochs = 1;
  cfg.fine_tune.epochs = 2;
  const TrainedEngine trained = train_engine_on({flow.get()}, cfg, 40);
  ASSERT_GT(trained.corpus_paths, 0u);
  EXPECT_GT(trained.report.pretrain_seconds, 0.0);
  EXPECT_GE(trained.report.train_seconds, trained.report.pretrain_seconds);
}

TEST_F(FlowFixture, PredictionsAreProbabilities) {
  GnnMlsConfig cfg;
  cfg.transformer.dim = 24;
  cfg.dgi.epochs = 1;
  GnnMlsEngine engine(cfg);
  CorpusOptions co;
  co.max_paths = 30;
  co.include_near_critical = true;
  co.margin_ps = 300.0;
  Corpus corpus = flow->corpus(co);
  engine.pretrain(corpus.graphs);
  for (const auto& g : corpus.graphs) {
    const auto probs = engine.predict(g);
    ASSERT_EQ(probs.size(), static_cast<std::size_t>(g.x.rows()));
    for (double p : probs) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

}  // namespace
