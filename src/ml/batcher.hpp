// Batcher: packs many path graphs into one ragged batch.
//
// A batch stacks the graphs' node rows back to back as one
// [total_rows x features] matrix (no padding — every row is a real node),
// plus their n x n adjacency blocks concatenated. BatchLayout records where
// each graph sits; both the float32 inference engine (PackedBatch) and the
// double-precision training stack (GraphBatch, read by GraphTransformer)
// address graphs through it.
//
// Row-wise stages (projection, layernorm, FFN, head) run once over all
// packed rows with zero wasted work, and attention / read-outs address each
// graph through its offsets, so graphs can never leak into each other.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace gnnmls::ml {

struct BatchLayout {
  int graphs = 0;
  int max_nodes = 0;   // longest graph in the batch (positional-table bound)
  int total_rows = 0;  // sum of node counts — the packed row dimension
  int adj_size = 0;    // sum of n*n — the concatenated adjacency length
  std::vector<int> nodes;       // real node count per graph
  std::vector<int> row_offset;  // graph g's rows start at row_offset[g]
  std::vector<int> adj_offset;  // graph g's n*n adjacency block start

  // Appends a graph of n nodes after the current last one.
  void add(int n);
  // Empties the layout, keeping the vectors' storage.
  void clear();
};

// Float32 batch for the inference engine. pack() applies the feature scaler
// during the copy (in double, then rounded once to float), so the hot path
// never materializes a normalized PathGraph copy.
struct PackedBatch : BatchLayout {
  int features = 0;
  // [total_rows x features] row-major, normalized; no padding rows.
  std::vector<float> x;
  // Concatenated per-graph n x n row-major adjacency blocks.
  std::vector<float> adj;
};

PackedBatch pack(std::span<const PathGraph* const> graphs, const FeatureScaler& scaler);

// Double-precision batch structure for the training stack. The node
// features stay outside it (DGI runs a clean and a corrupted feature matrix
// through one structure).
struct GraphBatch : BatchLayout {
  // Concatenated per-graph n x n adjacency blocks; a graph without an
  // adjacency gets a zero block. Empty when no graph has one: no adjacency
  // bias at all.
  std::vector<double> adj;

  // A batch of one n-node graph with adjacency adj (n x n, or empty).
  static GraphBatch single(const Mat& adj, int n);
};

// Packs the graphs (features used verbatim: the trainers normalize once up
// front) into batch and their stacked feature rows into x, reusing both
// buffers' storage.
void pack(std::span<const PathGraph* const> graphs, GraphBatch& batch, Mat& x);

}  // namespace gnnmls::ml
