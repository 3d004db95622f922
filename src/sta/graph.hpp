// Graph-based static timing analysis.
//
// Builds a pin-level timing graph from the netlist plus the router's
// electrical results, propagates arrival times forward and required times
// backward, and reports the paper's metrics: WNS, TNS, and the number of
// violating endpoints ("timing violation points" — registers with violated
// setup, paper Figure 2).
//
// Timing model (single global clock, zero skew — clock-tree synthesis is
// abstracted, as the paper's comparisons hold it constant across flows):
//   * sequential outputs launch at clk-to-Q;
//   * combinational arcs add cell delay (load-dependent) per sta/delay.hpp;
//   * net arcs add the router's per-sink Elmore delay;
//   * sequential data inputs must arrive by (T - setup); primary outputs
//     by T.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/generators.hpp"
#include "route/router.hpp"
#include "tech/tech.hpp"

namespace gnnmls::sta {

struct StaResult {
  double wns_ps = 0.0;               // most negative endpoint slack (0 if met)
  double tns_ns = 0.0;               // sum of negative endpoint slacks
  std::size_t violating_endpoints = 0;
  std::size_t endpoints = 0;
  // Effective frequency in MHz: the fastest clock this design would meet,
  // 1e6 / (T - WNS). (Paper Tables IV-VI "Eff. Freq.")
  double effective_freq_mhz = 0.0;
};

class TimingGraph {
 public:
  // `routes` must be parallel to design.nl nets (router output).
  TimingGraph(const netlist::Design& design, const tech::Tech3D& tech,
              const std::vector<route::NetRoute>& routes);

  // Full forward/backward propagation. Call again after routes change: the
  // graph reads the router's routes vector in place, so a re-route under a
  // live graph is re-timed by run() alone (the graph itself is rebuilt only
  // when the netlist changes).
  // `clock_uncertainty_ps` is the signoff guard band subtracted from every
  // endpoint's required time (jitter + skew margin).
  StaResult run(double clock_ps, double clock_uncertainty_ps = 0.0);

  // --- per-object queries (valid after run()) -----------------------------
  double arrival_ps(netlist::Id pin) const { return arrival_[pin]; }
  double slack_ps(netlist::Id pin) const { return slack_[pin]; }
  bool is_endpoint(netlist::Id pin) const { return endpoint_[pin] != 0; }
  // The predecessor pin realizing this pin's worst arrival (kNullId at
  // sources); backtracing it yields the critical path into any endpoint.
  netlist::Id worst_prev(netlist::Id pin) const { return worst_prev_[pin]; }

  // Load-dependent delay of the cell arc into `out_pin`, as used in the last
  // run (exposed for the labeler's O(1) what-if deltas).
  double cell_arc_delay_ps(netlist::Id out_pin) const { return out_delay_[out_pin]; }

  const netlist::Design& design() const { return design_; }
  const tech::Tech3D& tech() const { return tech_; }
  const std::vector<route::NetRoute>& routes() const { return *routes_; }
  double clock_ps() const { return clock_ps_; }

  // Endpoint pins with negative slack, worst first.
  std::vector<netlist::Id> violating_endpoints() const;

 private:
  void build_topology();
  // Per-pin gather recomputation for run()'s forward and backward sweeps.
  void forward_eval(netlist::Id p);
  void backward_eval(netlist::Id p);
  StaResult finalize_result() const;

  const netlist::Design& design_;
  const tech::Tech3D& tech_;
  const std::vector<route::NetRoute>* routes_;
  double clock_ps_ = 0.0;
  double uncertainty_ps_ = 0.0;

  // Per-pin state.
  std::vector<double> arrival_;
  std::vector<double> required_;
  std::vector<double> slack_;
  std::vector<double> out_delay_;     // cell arc delay into each output pin
  std::vector<netlist::Id> worst_prev_;
  std::vector<std::uint8_t> endpoint_;
  std::vector<netlist::Id> topo_;     // pins in topological order
};

}  // namespace gnnmls::sta
