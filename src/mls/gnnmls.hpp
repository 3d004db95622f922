// The GNN-MLS decision engine (the paper's primary contribution).
//
// Pipeline (Figure 5 / Algorithm 1):
//   1. pretrain():  DGI self-supervised pretraining of the graph transformer
//                   on unlabeled timing-path graphs pooled from several
//                   design configurations;
//   2. fine_tune(): supervised training of the 2-layer MLP head on the
//                   STA-labeled subset;
//   3. decide():    for a placed-and-routed design, extract critical paths,
//                   run inference, and emit per-net binary MLS decisions
//                   delta(n) — a net is flagged when its predicted
//                   probability of benefiting exceeds the threshold on any
//                   path it appears in.
#pragma once

#include <memory>

#include "ml/dgi.hpp"
#include "ml/engine.hpp"
#include "ml/mlp.hpp"
#include "mls/pathset.hpp"

namespace gnnmls::mls {

// Which inference path decide() runs: the double-precision per-graph stack
// (reference) or the batched float32 SIMD engine (default; ml/engine.hpp).
enum class MlEnginePath { kScalar, kBatched };

const char* to_string(MlEnginePath path);

struct GnnMlsConfig {
  ml::TransformerConfig transformer;  // defaults: 3 layers, 3 heads, dim 48
  ml::DgiConfig dgi{10, 1e-3};
  ml::FineTuneConfig fine_tune;
  double decision_threshold = 0.15;
  // Fraction of the shared (other-tier top-pair) track capacity MLS nets may
  // claim. Indiscriminate sharing collapses into overflow detours — this is
  // the flow-level budget the paper's targeted routing respects.
  double shared_capacity_fraction = 0.5;
  int mlp_hidden = 24;
  std::uint64_t seed = 42;
  MlEnginePath ml_engine = MlEnginePath::kBatched;
};

struct TrainReport {
  std::vector<double> dgi_loss;        // per epoch
  std::vector<double> fine_tune_loss;  // per epoch
  util::BinaryMetrics train_metrics;
  util::BinaryMetrics val_metrics;
  // fine_tune() times fine-tuning plus evaluation; train_engine_on() adds
  // DGI pretraining, so there train_seconds = pretrain_seconds + fine-tune.
  double pretrain_seconds = 0.0;
  double train_seconds = 0.0;
};

class GnnMlsEngine {
 public:
  explicit GnnMlsEngine(const GnnMlsConfig& config = {});

  // Fits the feature scaler and runs DGI pretraining on the pooled
  // unlabeled corpus (graphs are normalized internally; inputs stay raw).
  std::vector<double> pretrain(std::span<const ml::PathGraph> unlabeled);

  // Supervised fine-tuning on labeled graphs; holds out `val_fraction` for
  // the returned validation metrics.
  TrainReport fine_tune(std::span<const ml::PathGraph> labeled, double val_fraction = 0.2);

  // Per-node probabilities for one raw (unnormalized) path graph.
  std::vector<double> predict(const ml::PathGraph& raw_graph);

  // Per-net MLS decisions for a routed design: extracts paths, runs
  // inference, aggregates per net (max probability over appearances), and
  // vetoes nets whose what-if trial gain is below options.labeler.min_gain_ps
  // (-infinity turns that guard off).
  std::vector<std::uint8_t> decide(const netlist::Design& design, const tech::Tech3D& tech,
                                   const route::Router& router,
                                   const sta::TimingGraph& sta_graph,
                                   const CorpusOptions& options = {});

  const GnnMlsConfig& config() const { return config_; }
  bool pretrained() const { return pretrained_; }
  // Names the current weights: a process-wide counter stamps construction
  // and every pretrain()/fine_tune(), so no two weight states share a value,
  // not even two engines at one address. The decide pass keys its skip on it.
  std::uint64_t weights_version() const { return weights_version_; }

  // The batched float32 engine: a snapshot of the current weights, retaken
  // whenever weights_version() moves, so it is never stale.
  ml::InferenceEngine& inference() { return *infer_; }
  // No-op: the engine keeps nothing between predicts. Its one caller is
  // perfbench's PaperFlow::iterate, which still asks for a cold start.
  void clear_inference_cache() {}

 private:
  ml::PathGraph normalized(const ml::PathGraph& raw) const;

  // Stamps a new weights_version() and re-snapshots the float32 engine.
  void weights_moved();

  GnnMlsConfig config_;
  util::Rng rng_;
  std::unique_ptr<ml::GraphTransformer> encoder_;
  std::unique_ptr<ml::MlpHead> head_;
  std::unique_ptr<ml::DgiTrainer> dgi_;
  ml::FeatureScaler scaler_;
  bool pretrained_ = false;
  std::uint64_t weights_version_ = 0;  // set by weights_moved()
  // Scalar-path buffers, reused across predict() calls: the normalized
  // features, the encoder's activations and its embeddings.
  ml::Mat predict_scratch_;
  ml::GraphTransformer::Cache predict_cache_;
  ml::Mat predict_h_;
  std::unique_ptr<ml::InferenceEngine> infer_;
};

}  // namespace gnnmls::mls
