#include "mls/gnnmls.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::mls {

const char* to_string(MlEnginePath path) {
  switch (path) {
    case MlEnginePath::kScalar: return "scalar";
    case MlEnginePath::kBatched: return "batched";
  }
  return "unknown";
}

namespace {

std::uint64_t next_weights_version() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

GnnMlsEngine::GnnMlsEngine(const GnnMlsConfig& config)
    : config_(config), rng_(config.seed) {
  encoder_ = std::make_unique<ml::GraphTransformer>(config_.transformer, rng_);
  head_ = std::make_unique<ml::MlpHead>(config_.transformer.dim, config_.mlp_hidden, rng_);
  dgi_ = std::make_unique<ml::DgiTrainer>(*encoder_, rng_);
  weights_moved();
}

void GnnMlsEngine::weights_moved() {
  weights_version_ = next_weights_version();
  infer_ = std::make_unique<ml::InferenceEngine>(*encoder_, *head_, scaler_);
}

ml::PathGraph GnnMlsEngine::normalized(const ml::PathGraph& raw) const {
  ml::PathGraph g = raw;
  scaler_.apply(g);
  return g;
}

std::vector<double> GnnMlsEngine::pretrain(std::span<const ml::PathGraph> unlabeled) {
  GNNMLS_SPAN("ml.dgi.pretrain");  // the scaler fit and normalization too
  scaler_.fit(unlabeled);
  std::vector<ml::PathGraph> normed;
  normed.reserve(unlabeled.size());
  for (const ml::PathGraph& g : unlabeled) normed.push_back(normalized(g));
  const std::vector<double> loss = dgi_->pretrain(normed, config_.dgi, rng_);
  pretrained_ = true;
  weights_moved();  // scaler refit + encoder weights moved
  if (!loss.empty())
    util::log_info("gnn-mls: DGI pretrained on ", normed.size(), " paths, loss ",
                   loss.front(), " -> ", loss.back());
  return loss;
}

TrainReport GnnMlsEngine::fine_tune(std::span<const ml::PathGraph> labeled,
                                    double val_fraction) {
  const auto t0 = std::chrono::steady_clock::now();
  GNNMLS_SPAN("ml.fine_tune");  // normalization and evaluation too
  TrainReport report;
  std::vector<ml::PathGraph> normed;
  normed.reserve(labeled.size());
  for (const ml::PathGraph& g : labeled) normed.push_back(normalized(g));

  std::vector<std::size_t> train_idx, val_idx;
  ml::train_val_split(normed.size(), val_fraction, rng_, train_idx, val_idx);
  std::vector<ml::PathGraph> train_set, val_set;
  for (std::size_t i : train_idx) train_set.push_back(normed[i]);
  for (std::size_t i : val_idx) val_set.push_back(normed[i]);

  report.fine_tune_loss =
      ml::fine_tune(*encoder_, *head_, train_set, config_.fine_tune);
  weights_moved();
  // Metrics at the canonical 0.5 threshold; the decision stage separately
  // applies its own (more aggressive) threshold plus the trial guard.
  report.train_metrics = ml::evaluate(*encoder_, *head_, train_set, 0.5);
  report.val_metrics = ml::evaluate(*encoder_, *head_, val_set, 0.5);
  report.train_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  util::log_info("gnn-mls: fine-tuned on ", train_set.size(), " paths; val acc ",
                 report.val_metrics.accuracy, " f1 ", report.val_metrics.f1);
  return report;
}

std::vector<double> GnnMlsEngine::predict(const ml::PathGraph& raw_graph) {
  // Normalize into a reusable scratch matrix: the hot path used to copy the
  // whole PathGraph (features, adjacency, labels, net ids) per call.
  scaler_.apply_into(raw_graph.x, predict_scratch_);
  encoder_->forward(predict_scratch_, raw_graph.adj, predict_cache_, predict_h_);
  return head_->predict(predict_h_);
}

std::vector<std::uint8_t> GnnMlsEngine::decide(const netlist::Design& design,
                                               const tech::Tech3D& tech,
                                               const route::Router& router,
                                               const sta::TimingGraph& sta_graph,
                                               const CorpusOptions& options) {
  CorpusOptions opts = options;
  opts.attach_labels = false;
  const Corpus corpus = build_corpus(design, tech, router, sta_graph, /*design_tag=*/0, opts);

  std::vector<std::uint8_t> flags(design.nl.num_nets(), 0);
  std::vector<float> best(design.nl.num_nets(), 0.0f);
  {
    GNNMLS_SPAN("mls.decide.inference");
    if (config_.ml_engine == MlEnginePath::kBatched) {
      // Batched float32 path: pack/forward inside the engine, which also
      // owns the ml.infer_s / ml.batch_paths metrics.
      const std::vector<std::vector<float>> probs = inference().predict(corpus.graphs);
      for (std::size_t gi = 0; gi < corpus.graphs.size(); ++gi) {
        const ml::PathGraph& g = corpus.graphs[gi];
        const std::vector<float>& p = probs[gi];
        for (std::size_t i = 0; i < p.size(); ++i) {
          const std::uint32_t net = g.net_ids[i];
          if (net == netlist::kNullId) continue;
          best[net] = std::max(best[net], p[i]);
        }
      }
    } else {
      // Reference double path (the A/B baseline). ml.infer_s is per batch,
      // and one graph is a batch of one here.
      static obs::Histogram& infer_s = obs::Metrics::instance().histogram("ml.infer_s");
      for (const ml::PathGraph& g : corpus.graphs) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<double> probs = predict(g);
        const double dt =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        infer_s.observe(dt);
        for (std::size_t i = 0; i < probs.size(); ++i) {
          const std::uint32_t net = g.net_ids[i];
          if (net == netlist::kNullId) continue;
          best[net] = std::max(best[net], static_cast<float>(probs[i]));
        }
      }
    }
  }
  // Candidates above threshold, verified by the router's O(1) what-if trial,
  // then admitted best-first under the shared-capacity budget. The trial
  // guards the targeted routing against model false positives (forcing MLS
  // onto a losing net costs real slack, Table I): a net whose measured gain
  // is below options.labeler.min_gain_ps is vetoed, so a floor of -infinity
  // turns the guard off.
  struct Candidate {
    netlist::Id net;
    float score;
    double demand;  // gcell-tracks this net would claim on the shared pair
    int shared_tier;
  };
  std::vector<Candidate> candidates;
  std::size_t vetoed = 0;
  const double gcell = router.grid().gcell_um();
  for (std::size_t n = 0; n < flags.size(); ++n) {
    if (best[n] <= config_.decision_threshold) continue;
    const netlist::Net& net = design.nl.net(static_cast<netlist::Id>(n));
    if (net.driver == netlist::kNullId || net.sinks.empty()) continue;
    const netlist::Id next_cell = design.nl.pin(net.sinks[0]).cell;
    const double gain = mls_gain_ps(design, tech, router, static_cast<netlist::Id>(n), next_cell);
    if (gain < opts.labeler.min_gain_ps) {
      ++vetoed;
      continue;
    }
    Candidate c;
    c.net = static_cast<netlist::Id>(n);
    c.score = best[n];
    c.demand = std::max(1.0, design.nl.net_hpwl_um(c.net) / gcell);
    c.shared_tier = design.nl.cell(design.nl.pin(net.driver).cell).tier == 0 ? 1 : 0;
    candidates.push_back(c);
  }
  // Net id breaks score ties so admission order — and therefore the flag
  // vector — is deterministic regardless of engine path.
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.score != b.score ? a.score > b.score : a.net < b.net;
  });

  // Shared-pair budget per tier: leftover tracks on the top two layers.
  const route::RoutingGrid& grid = router.grid();
  double budget[2] = {0.0, 0.0};
  for (int tier = 0; tier < 2; ++tier) {
    const int top = grid.num_layers(tier) - 1;
    for (int layer = top - 1; layer <= top; ++layer)
      for (int y = 0; y < grid.ny(); ++y)
        for (int x = 0; x < grid.nx(); ++x) budget[tier] += grid.capacity(tier, layer, x, y);
    budget[tier] *= config_.shared_capacity_fraction;
  }
  std::size_t count = 0, capped = 0;
  for (const Candidate& c : candidates) {
    if (budget[c.shared_tier] < c.demand) {
      ++capped;
      continue;
    }
    budget[c.shared_tier] -= c.demand;
    flags[c.net] = 1;
    ++count;
  }
  obs::Metrics::instance().counter("decide.flagged").add(count);
  obs::Metrics::instance().counter("decide.vetoed").add(vetoed);
  obs::Metrics::instance().counter("decide.capped").add(capped);
  util::log_info("gnn-mls: flagged ", count, " nets (", vetoed, " vetoed, ", capped,
                 " over budget) from ", corpus.graphs.size(), " paths");
  return flags;
}

}  // namespace gnnmls::mls
