// Tests for the GNN-MLS core: feature extraction, labeling oracle, SOTA
// baseline, corpus assembly, and the decision engine end to end (small).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

#include "mls/flow.hpp"
#include "obs/metrics.hpp"
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

// A small engine that still trains in well under a second on MAERI-16.
GnnMlsConfig small_engine_config() {
  GnnMlsConfig cfg;
  cfg.transformer.dim = 24;
  cfg.transformer.ffn_hidden = 48;
  cfg.dgi.epochs = 2;
  cfg.fine_tune.epochs = 15;
  return cfg;
}

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
  const GnnMlsConfig cfg = small_engine_config();
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

  // The guard turns off through the options: a -infinity gain floor vetoes
  // nothing, and when the shared-capacity budget admits every candidate,
  // every net the guarded run flagged is flagged without the guard too.
  obs::Counter& vetoed = obs::Metrics::instance().counter("decide.vetoed");
  obs::Counter& capped = obs::Metrics::instance().counter("decide.capped");
  const std::uint64_t vetoed_before = vetoed.value();
  const std::uint64_t capped_before = capped.value();
  CorpusOptions unguarded;
  unguarded.labeler.min_gain_ps = -std::numeric_limits<double>::infinity();
  const auto all =
      engine.decide(flow->design(), flow->tech(), flow->router(), flow->sta(), unguarded);
  EXPECT_EQ(vetoed.value(), vetoed_before);
  if (capped.value() == capped_before) {
    for (netlist::Id n = 0; n < flags.size(); ++n) {
      if (flags[n]) {
        EXPECT_TRUE(all[n]) << "net " << n << " flagged only with the guard";
      }
    }
  }
}

// The decide pass must re-run when only its options change. A first GNN
// evaluate whose gain floor vetoes every net flags nothing, so it touches no
// route and the baseline stays fresh; the second evaluate, with the guard
// off, must still run inference instead of reusing the empty decision.
TEST_F(FlowFixture, DecideRerunsWhenOnlyTheOptionsChange) {
  const GnnMlsConfig cfg = small_engine_config();
  const TrainedEngine trained = train_engine_on({flow.get()}, cfg, 150);
  ASSERT_GT(trained.corpus_paths, 20u);

  CorpusOptions veto_all;
  veto_all.labeler.min_gain_ps = std::numeric_limits<double>::infinity();
  const FlowMetrics none_flagged = flow->evaluate_gnn(*trained.engine, veto_all);
  EXPECT_EQ(none_flagged.mls_nets, 0u);

  CorpusOptions unguarded;
  unguarded.labeler.min_gain_ps = -std::numeric_limits<double>::infinity();
  const FlowMetrics flagged = flow->evaluate_gnn(*trained.engine, unguarded);
  std::size_t count = 0;
  for (const std::uint8_t f : flow->decide_flags()) count += f;
  EXPECT_GT(count, 0u);
  EXPECT_GT(flagged.mls_nets, 0u);
}

// The decide pass must re-run for a new engine over an unchanged baseline,
// even one built at the address of the engine it replaces.
TEST_F(FlowFixture, DecideRerunsForANewEngineAtTheSameAddress) {
  CorpusOptions co;
  co.max_paths = 150;
  co.include_near_critical = true;
  co.margin_ps = 200.0;
  co.attach_labels = true;
  const Corpus corpus = flow->corpus(co);
  const GnnMlsConfig cfg = small_engine_config();
  GnnMlsConfig mute = cfg;
  mute.decision_threshold = 2.0;  // no probability exceeds it

  std::optional<GnnMlsEngine> slot;
  slot.emplace(mute);
  slot->pretrain(corpus.graphs);
  slot->fine_tune(corpus.graphs);
  const GnnMlsEngine* first = &*slot;
  // Flags nothing, so the baseline routes stay fresh.
  EXPECT_EQ(flow->evaluate_gnn(*slot).mls_nets, 0u);

  slot.emplace(cfg);
  ASSERT_EQ(&*slot, first);
  slot->pretrain(corpus.graphs);
  slot->fine_tune(corpus.graphs);
  const CorpusOptions eval_options{4000, true, 60.0, false, {}};
  const auto expected =
      slot->decide(flow->design(), flow->tech(), flow->router(), flow->sta(), eval_options);
  ASSERT_GT(std::count(expected.begin(), expected.end(), 1), 0);
  flow->evaluate_gnn(*slot, eval_options);
  EXPECT_EQ(flow->decide_flags(), expected);
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
