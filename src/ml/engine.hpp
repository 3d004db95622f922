// Batched float32 inference engine.
//
// Training runs the double-precision Mat stack on the kernel table's double
// entries, which are bit-equal across SIMD levels. This engine snapshots the
// trained weights into flat float32 buffers, whose kernels may differ across
// levels in the last ulps, and serves decide-time inference two ways faster
// than the per-graph double path (GnnMlsEngine::predict, the reference):
//
//   1. SIMD kernels — GEMM/softmax/layernorm from ml/kernels.hpp, runtime
//      dispatched (AVX2 or portable scalar) once per process;
//   2. Batching — graphs are packed [batch x max_nodes x features] so the
//      projections, feed-forward and head amortize one GEMM across the whole
//      corpus (attention stays per-graph inside the batch: path graphs must
//      not attend across each other). Batch formation is fixed-size
//      chunking of the graphs sorted by (node count, original index) — a
//      total order — and the batches run one after another, each writing
//      its own result slots.
//
// predict() is a pure function of the snapshot and its input: the engine
// keeps no results between calls. Reuse lives one level up, in the decide
// pass, which skips a re-decide while the design and weights_version() are
// unchanged.
//
// Observability: per-batch latency lands in ml.infer_s, batch sizes in
// ml.engine.batch_size, and the ml.batch_paths counter feeds the perf
// ledger.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/batcher.hpp"
#include "ml/kernels.hpp"
#include "ml/mlp.hpp"

namespace gnnmls::ml {

struct EngineStats {
  std::uint64_t batches = 0;
  std::uint64_t paths = 0;  // graphs that went through a batched forward
};

class InferenceEngine {
 public:
  // Snapshots weights + scaler; the training-side objects are not retained.
  // The owner builds a new engine after every (re)training.
  InferenceEngine(const GraphTransformer& encoder, const MlpHead& head,
                  const FeatureScaler& scaler);

  // Per-node probabilities per raw (unnormalized) graph, order-preserving.
  std::vector<std::vector<float>> predict(std::span<const PathGraph> graphs);

  const EngineStats& stats() const { return stats_; }

 private:
  struct DenseF {
    int in = 0, out = 0;
    std::vector<float> w;  // in x out, row-major
    std::vector<float> b;  // out, empty = no bias
  };
  struct NormF {
    std::vector<float> gamma, beta;
  };
  struct BlockF {
    NormF ln1, ln2;
    DenseF qkv;  // wq|wk|wv packed side by side (dim x 3*dim): one GEMM pass
    DenseF wo;
    std::vector<float> edge_bias;  // per head
    DenseF f1, f2;
  };
  struct WeightsF {
    int features = 0, dim = 0, heads = 0, head_dim = 0, ffn = 0, hidden = 0, max_len = 0;
    DenseF in_proj;
    std::vector<float> pos;  // max_len x dim
    std::vector<BlockF> blocks;
    NormF final_ln;
    DenseF h1, h2;  // decision head
  };
  // Graphs per packed batch: fixed-size chunks of the length-sorted input.
  static constexpr std::size_t kBatchPaths = 32;

  void snapshot(const GraphTransformer& encoder, const MlpHead& head);
  // One packed batch through the float32 forward; per-graph node probs.
  std::vector<std::vector<float>> forward_batch(const PackedBatch& batch) const;

  WeightsF w_;
  FeatureScaler scaler_;
  EngineStats stats_;
};

}  // namespace gnnmls::ml
