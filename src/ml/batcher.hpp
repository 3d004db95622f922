// Batcher: packs many raw path graphs into one contiguous float32 tensor.
//
// The batched inference engine amortizes one GEMM across a whole corpus by
// stacking graph node rows back to back as one ragged [total_rows, features]
// tensor (no padding — every row is a real node), plus concatenated
// per-graph adjacency blocks. The feature scaler is applied during the copy
// (in double, then rounded to float), so the hot path never materializes a
// normalized PathGraph copy.
//
// pack() leaves the per-graph node counts and row offsets behind: row-wise
// stages (projection, layernorm, FFN, head) run over the packed rows with
// zero wasted work, and attention / probability read-out address each graph
// through its offset, so graphs can never leak into each other.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.hpp"

namespace gnnmls::ml {

struct PackedBatch {
  int graphs = 0;
  int max_nodes = 0;   // longest graph in the batch (positional-table bound)
  int features = 0;
  int total_rows = 0;  // sum of node counts — the packed row dimension
  std::vector<int> nodes;       // real node count per graph
  std::vector<int> row_offset;  // graph g's rows start at row_offset[g] in x
  std::vector<int> adj_offset;  // graph g's n*n adjacency block start in adj
  // [total_rows x features] row-major, normalized; no padding rows.
  std::vector<float> x;
  // Concatenated per-graph n x n row-major adjacency blocks.
  std::vector<float> adj;
};

PackedBatch pack(std::span<const PathGraph* const> graphs, const FeatureScaler& scaler);

}  // namespace gnnmls::ml
