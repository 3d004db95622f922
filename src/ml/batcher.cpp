#include "ml/batcher.hpp"

#include <algorithm>
#include <stdexcept>

namespace gnnmls::ml {

PackedBatch pack(std::span<const PathGraph* const> graphs, const FeatureScaler& scaler) {
  PackedBatch batch;
  batch.graphs = static_cast<int>(graphs.size());
  if (graphs.empty()) return batch;
  batch.features = graphs.front()->x.cols();
  for (const PathGraph* g : graphs) {
    if (g->x.cols() != batch.features)
      throw std::invalid_argument("pack: mixed feature widths in one batch");
    batch.max_nodes = std::max(batch.max_nodes, g->x.rows());
  }
  const int f = batch.features;
  batch.nodes.reserve(graphs.size());
  batch.row_offset.reserve(graphs.size());
  batch.adj_offset.reserve(graphs.size());
  std::size_t adj_total = 0;
  for (const PathGraph* g : graphs) {
    const int n = g->x.rows();
    batch.nodes.push_back(n);
    batch.row_offset.push_back(batch.total_rows);
    batch.adj_offset.push_back(static_cast<int>(adj_total));
    batch.total_rows += n;
    adj_total += static_cast<std::size_t>(n) * n;
  }
  batch.x.resize(static_cast<std::size_t>(batch.total_rows) * f);
  batch.adj.assign(adj_total, 0.0f);

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

}  // namespace gnnmls::ml
