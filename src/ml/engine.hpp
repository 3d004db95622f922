// Batched float32 inference engine (ROADMAP item 2).
//
// Training stays on the double-precision Mat stack; this engine snapshots
// the trained weights into flat float32 buffers and serves decide-time
// inference three ways faster than the per-graph scalar path:
//
//   1. SIMD kernels — GEMM/softmax/layernorm from ml/kernels.hpp, runtime
//      dispatched (AVX2 or portable scalar) once per process;
//   2. Batching — graphs are packed [batch x max_nodes x features] so the
//      projections, feed-forward and head amortize one GEMM across the whole
//      corpus (attention stays per-graph inside the batch: path graphs must
//      not attend across each other). Multiple batches run concurrently on
//      flow::Executor; batch formation is fixed-size chunking of the miss
//      list sorted by (node count, original index) — a total order that never
//      depends on thread count — and every batch writes disjoint result
//      slots, so results are bit-identical across GNNMLS_THREADS.
//   3. Embedding cache — per-graph probabilities keyed by (graph content
//      fingerprint, scaler epoch, weights epoch). The fingerprint hashes
//      every feature and net id, so after an ECO exactly the graphs whose
//      content changed miss; a stale entry is unreachable and ages out with
//      the capacity eviction.
//
// Observability: per-batch latency lands in ml.infer_s, a per-graph
// equivalent in ml.infer_graph_s (comparable with the pre-batching records),
// batch sizes in ml.engine.batch_size, and ml.cache_hits / ml.cache_misses /
// ml.batch_paths counters feed the perf ledger.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "ml/batcher.hpp"
#include "ml/kernels.hpp"
#include "ml/mlp.hpp"

namespace gnnmls::ml {

struct EngineOptions {
  // Graphs per packed batch: the determinism unit. Batches are fixed-size
  // chunks of the length-sorted miss list regardless of thread count.
  int batch_paths = 32;
  // Cached graphs before the cache is wholesale-evicted (bounds memory for
  // long-running flows; one entry is ~path_len floats).
  std::size_t cache_capacity = 1 << 15;
  bool cache_enabled = true;
};

struct EngineStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;
  std::uint64_t paths = 0;       // graphs that went through a batched forward
  std::uint64_t evictions = 0;   // entries dropped (capacity or re-sync)
};

class InferenceEngine {
 public:
  // Snapshots weights + scaler; the training-side objects are not retained.
  InferenceEngine(const GraphTransformer& encoder, const MlpHead& head,
                  const FeatureScaler& scaler, const EngineOptions& options = {});

  // Re-snapshots after (re)training. Bumps the weights epoch — and the
  // scaler epoch when the normalization actually changed — and drops the
  // cache, so stale embeddings can never be served.
  void sync(const GraphTransformer& encoder, const MlpHead& head, const FeatureScaler& scaler);

  // Per-node probabilities per raw (unnormalized) graph, order-preserving.
  // Cache hits skip the forward entirely.
  std::vector<std::vector<float>> predict(std::span<const PathGraph> graphs);

  void clear_cache();

  std::size_t cache_size() const { return cache_.size(); }
  const EngineStats& stats() const { return stats_; }
  std::uint64_t weights_epoch() const { return weights_epoch_; }
  std::uint64_t scaler_epoch() const { return scaler_epoch_; }
  const EngineOptions& options() const { return opts_; }

  // One packed batch through the float32 forward (no cache, no executor):
  // the micro-bench / parity-test entry point. Returns per-graph node probs.
  std::vector<std::vector<float>> forward_batch(const PackedBatch& batch) const;

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
  void snapshot(const GraphTransformer& encoder, const MlpHead& head);
  std::uint64_t cache_key(std::uint64_t graph_fp) const;

  EngineOptions opts_;
  WeightsF w_;
  FeatureScaler scaler_;
  std::uint64_t weights_epoch_ = 0;
  std::uint64_t scaler_epoch_ = 0;
  std::unordered_map<std::uint64_t, std::vector<float>> cache_;  // key -> node probs
  EngineStats stats_;
};

}  // namespace gnnmls::ml
