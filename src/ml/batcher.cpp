#include "ml/batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace gnnmls::ml {

void BatchLayout::add(int n) {
  nodes.push_back(n);
  row_offset.push_back(total_rows);
  adj_offset.push_back(adj_size);
  ++graphs;
  max_nodes = std::max(max_nodes, n);
  total_rows += n;
  adj_size += n * n;
}

void BatchLayout::clear() {
  graphs = max_nodes = total_rows = adj_size = 0;
  nodes.clear();
  row_offset.clear();
  adj_offset.clear();
}

PackedBatch pack(std::span<const PathGraph* const> graphs, const FeatureScaler& scaler) {
  PackedBatch batch;
  if (graphs.empty()) return batch;
  batch.features = graphs.front()->x.cols();
  for (const PathGraph* g : graphs) {
    if (g->x.cols() != batch.features)
      throw std::invalid_argument("pack: mixed feature widths in one batch");
    batch.add(g->x.rows());
  }
  const int f = batch.features;
  batch.x.resize(static_cast<std::size_t>(batch.total_rows) * f);
  batch.adj.assign(static_cast<std::size_t>(batch.adj_size), 0.0f);

  const std::vector<double>& mean = scaler.mean();
  const std::vector<double>& stddev = scaler.stddev();
  if (static_cast<int>(mean.size()) != f)
    throw std::invalid_argument("pack: scaler/feature width mismatch");

  for (int g = 0; g < batch.graphs; ++g) {
    const PathGraph& src = *graphs[static_cast<std::size_t>(g)];
    const int n = batch.nodes[static_cast<std::size_t>(g)];
    float* xg = batch.x.data() +
                static_cast<std::size_t>(batch.row_offset[static_cast<std::size_t>(g)]) * f;
    for (int i = 0; i < n; ++i) {
      const double* row = src.x.row(i);
      float* out = xg + static_cast<std::size_t>(i) * f;
      for (int j = 0; j < f; ++j) {
        const double s = stddev[static_cast<std::size_t>(j)];
        // Normalize in double then round once, so the batched path sees the
        // same values as FeatureScaler::apply up to one float rounding.
        out[j] = static_cast<float>((row[j] - mean[static_cast<std::size_t>(j)]) /
                                    (s > 1e-12 ? s : 1.0));
      }
    }
    if (!src.adj.empty()) {
      float* ag = batch.adj.data() + batch.adj_offset[static_cast<std::size_t>(g)];
      for (int i = 0; i < n; ++i) {
        const double* row = src.adj.row(i);
        for (int j = 0; j < n; ++j)
          ag[static_cast<std::size_t>(i) * n + j] = static_cast<float>(row[j]);
      }
    }
  }
  return batch;
}

GraphBatch GraphBatch::single(const Mat& adj, int n) {
  GraphBatch batch;
  batch.add(n);
  batch.adj = adj.data();
  return batch;
}

void pack(std::span<const PathGraph* const> graphs, GraphBatch& batch, Mat& x) {
  batch.clear();
  bool any_adj = false;
  for (const PathGraph* g : graphs) {
    const int n = g->x.rows();
    if (g->x.cols() != graphs.front()->x.cols())
      throw std::invalid_argument("pack: mixed feature widths in one batch");
    if (!g->adj.empty() && (g->adj.rows() != n || g->adj.cols() != n))
      throw std::invalid_argument("pack: adjacency is not n x n");
    batch.add(n);
    any_adj = any_adj || !g->adj.empty();
  }
  const int f = graphs.empty() ? 0 : graphs.front()->x.cols();
  x.resize(batch.total_rows, f);
  batch.adj.assign(any_adj ? static_cast<std::size_t>(batch.adj_size) : 0, 0.0);
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    const PathGraph& src = *graphs[g];
    std::copy(src.x.data().begin(), src.x.data().end(), x.row(batch.row_offset[g]));
    if (any_adj && !src.adj.empty())
      std::copy(src.adj.data().begin(), src.adj.data().end(),
                batch.adj.begin() + batch.adj_offset[g]);
  }
}

}  // namespace gnnmls::ml
