#include "pdn/irdrop.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::pdn {

namespace {

// DST-I matrix S[j][k] = sin(π(j+1)(k+1)/(size+1)), row-major and symmetric,
// with S·S = (size+1)/2·I. Entries come from one table of sin(πt/(size+1))
// indexed mod 2(size+1), so equal arguments give bit-equal entries.
std::vector<double> sine_matrix(int size) {
  const int period = 2 * (size + 1);
  std::vector<double> table(static_cast<std::size_t>(period));
  for (int t = 0; t < period; ++t) table[t] = std::sin(std::numbers::pi * t / (size + 1));
  std::vector<double> s(static_cast<std::size_t>(size) * size);
  for (int j = 0; j < size; ++j)
    for (int k = 0; k < size; ++k)
      s[static_cast<std::size_t>(j) * size + k] = table[((j + 1) * (k + 1)) % period];
  return s;
}

// Eigenvalues 2 - 2cos(π(k+1)/(size+1)) of the size-point second difference
// with zero ends; column k of sine_matrix(size) is the eigenvector of mode k.
std::vector<double> laplacian_eigenvalues(int size) {
  std::vector<double> lambda(static_cast<std::size_t>(size));
  for (int k = 0; k < size; ++k)
    lambda[k] = 2.0 - 2.0 * std::cos(std::numbers::pi * (k + 1) / (size + 1));
  return lambda;
}

// S_y·f·S_x for a row-major n x m field f: the unnormalized 2-D DST-I, which
// is its own inverse up to the factor 4/((m+1)(n+1)).
std::vector<double> sine_transform(const std::vector<double>& f, const std::vector<double>& s_x,
                                   const std::vector<double>& s_y, int m, int n) {
  std::vector<double> rows(f.size(), 0.0);  // f·S_x
  for (int y = 0; y < n; ++y) {
    double* out = &rows[static_cast<std::size_t>(y) * m];
    for (int x = 0; x < m; ++x) {
      const double a = f[static_cast<std::size_t>(y) * m + x];
      if (a == 0.0) continue;  // injections are sparse: one per power-map cell
      const double* s = &s_x[static_cast<std::size_t>(x) * m];
      for (int k = 0; k < m; ++k) out[k] += a * s[k];
    }
  }
  std::vector<double> out(f.size(), 0.0);  // S_y·(f·S_x)
  for (int l = 0; l < n; ++l) {
    double* o = &out[static_cast<std::size_t>(l) * m];
    for (int y = 0; y < n; ++y) {
      const double a = s_y[static_cast<std::size_t>(l) * n + y];
      const double* r = &rows[static_cast<std::size_t>(y) * m];
      for (int k = 0; k < m; ++k) o[k] += a * r[k];
    }
  }
  return out;
}

}  // namespace

IrDropResult solve_ir_drop(const PdnGridSpec& spec, const std::vector<double>& power_map_mw,
                           int map_nx, int map_ny) {
  GNNMLS_SPAN("pdn.ir_solve");
  IrDropResult result;
  // PDN node grid: one node per strap crossing, capped for solver cost.
  int nx = std::max(2, static_cast<int>(spec.die_w_um / spec.strap_pitch_um));
  int ny = std::max(2, static_cast<int>(spec.die_h_um / spec.strap_pitch_um));
  nx = std::min(nx, 96);
  ny = std::min(ny, 96);
  result.grid_nx = nx;
  result.grid_ny = ny;

  // Conductance of one strap segment between adjacent crossings.
  const double seg_len_x = spec.die_w_um / nx;
  const double seg_len_y = spec.die_h_um / ny;
  const double g_x = spec.strap_width_um / (spec.sheet_r_ohm * seg_len_x);  // 1/Ohm
  const double g_y = spec.strap_width_um / (spec.sheet_r_ohm * seg_len_y);

  // Boundary nodes are ideal VDD sources, so only the m x n interior carries
  // unknowns; load landing on a boundary node flows straight into its source.
  const int m = nx - 2, n = ny - 2;
  auto interior = [m](int x, int y) { return static_cast<std::size_t>(y - 1) * m + (x - 1); };

  // Current injection per interior node: resample the power map, I = P / VDD.
  std::vector<double> inj_a(static_cast<std::size_t>(m) * n, 0.0);
  if (!power_map_mw.empty() && map_nx > 0 && map_ny > 0) {
    for (int my = 0; my < map_ny; ++my) {
      for (int mx = 0; mx < map_nx; ++mx) {
        const double p_mw = power_map_mw[static_cast<std::size_t>(my) * map_nx + mx];
        if (p_mw <= 0.0) continue;
        const int x = std::min(nx - 1, mx * nx / map_nx);
        const int y = std::min(ny - 1, my * ny / map_ny);
        if (x < 1 || x > m || y < 1 || y > n) continue;
        inj_a[interior(x, y)] += p_mw * 1e-3 / spec.vdd;
      }
    }
  }

  // The interior drop d solves g_x·(2d - d_W - d_E) + g_y·(2d - d_S - d_N) = I
  // with zero drop on the boundary. Sine vectors diagonalize both second
  // differences, so one transform, a per-mode divide and a second transform
  // give d exactly: d = S_y·[(S_y·I·S_x) / (g_x·λ_k + g_y·μ_l)]·S_x·4/((m+1)(n+1)).
  result.node_drop_mv.assign(static_cast<std::size_t>(nx) * ny, 0.0);
  if (m > 0 && n > 0) {
    const std::vector<double> s_x = sine_matrix(m), s_y = sine_matrix(n);
    const std::vector<double> lambda = laplacian_eigenvalues(m), mu = laplacian_eigenvalues(n);
    std::vector<double> modes = sine_transform(inj_a, s_x, s_y, m, n);
    for (int l = 0; l < n; ++l)
      for (int k = 0; k < m; ++k)
        modes[static_cast<std::size_t>(l) * m + k] /= g_x * lambda[k] + g_y * mu[l];
    const std::vector<double> drop_v = sine_transform(modes, s_x, s_y, m, n);
    const double norm_mv = 4.0 / ((m + 1.0) * (n + 1.0)) * 1e3;
    for (int y = 1; y <= n; ++y)
      for (int x = 1; x <= m; ++x)
        result.node_drop_mv[static_cast<std::size_t>(y) * nx + x] = drop_v[interior(x, y)] * norm_mv;
  }

  double sum = 0.0;
  for (const double drop : result.node_drop_mv) {
    result.max_drop_mv = std::max(result.max_drop_mv, drop);
    sum += drop;
  }
  result.mean_drop_mv = sum / static_cast<double>(result.node_drop_mv.size());
  result.drop_pct_of_vdd = result.max_drop_mv / (spec.vdd * 1e3) * 100.0;
  obs::Metrics::instance().gauge("pdn.max_drop_mv").set(result.max_drop_mv);
  return result;
}

std::string render_drop_map(const IrDropResult& result, int target_cols) {
  static const char kShades[] = " .:-=+*#%@";
  const int nx = result.grid_nx, ny = result.grid_ny;
  if (nx == 0 || ny == 0) return "";
  const int cols = std::min(target_cols, nx);
  const int rows = std::max(1, cols * ny / nx / 2);  // terminal cells are ~2:1
  std::string out;
  const double scale = result.max_drop_mv > 0.0 ? result.max_drop_mv : 1.0;
  for (int r = 0; r < rows; ++r) {
    out += "    ";
    for (int c = 0; c < cols; ++c) {
      const int x = c * nx / cols;
      const int y = r * ny / rows;
      const double d = result.node_drop_mv[static_cast<std::size_t>(y) * nx + x] / scale;
      const int shade = std::clamp(static_cast<int>(d * 9.0), 0, 9);
      out += kShades[shade];
    }
    out += '\n';
  }
  return out;
}

}  // namespace gnnmls::pdn
