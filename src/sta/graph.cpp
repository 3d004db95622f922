#include "sta/graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sta/delay.hpp"
#include "util/log.hpp"

namespace gnnmls::sta {

namespace {
using netlist::Id;
using netlist::kNullId;
using netlist::PinDir;

const tech::Library& lib_of(const tech::Tech3D& tech, const netlist::CellInst& c) {
  return c.tier == 0 ? tech.bottom : tech.top;
}

struct StaCounters {
  obs::Counter& full_runs = obs::Metrics::instance().counter("sta.full_runs");
  obs::Counter& pin_evals = obs::Metrics::instance().counter("sta.pin_evals");
  static StaCounters& get() {
    static StaCounters c;
    return c;
  }
};
}  // namespace

TimingGraph::TimingGraph(const netlist::Design& design, const tech::Tech3D& tech,
                         const std::vector<route::NetRoute>& routes)
    : design_(design), tech_(tech), routes_(&routes) {
  if (routes.size() != design.nl.num_nets())
    throw std::invalid_argument("routes not parallel to nets");
  build_topology();
}

void TimingGraph::build_topology() {
  const netlist::Netlist& nl = design_.nl;
  const std::size_t np = nl.num_pins();
  arrival_.assign(np, 0.0);
  required_.assign(np, 0.0);
  slack_.assign(np, 0.0);
  out_delay_.assign(np, 0.0);
  worst_prev_.assign(np, kNullId);
  endpoint_.assign(np, 0);

  // Kahn's algorithm over the pin graph. Arc sources:
  //   input pin  -> output pins of the same combinational cell
  //   output pin -> sink pins of its net
  std::vector<std::uint32_t> indeg(np, 0);
  for (Id c = 0; c < nl.num_cells(); ++c) {
    const netlist::CellInst& cell = nl.cell(c);
    const bool comb = tech::is_combinational(cell.kind) ||
                      cell.kind == tech::CellKind::kOutput;
    if (comb && cell.num_out > 0) {
      for (int o = 0; o < cell.num_out; ++o)
        indeg[nl.output_pin(c, o)] += cell.num_in;
    }
  }
  for (Id n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (net.driver == kNullId) continue;
    for (Id s : net.sinks) indeg[s] += 1;
  }

  topo_.clear();
  topo_.reserve(np);
  for (Id p = 0; p < np; ++p)
    if (indeg[p] == 0) topo_.push_back(p);
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const Id p = topo_[head];
    const netlist::Pin& pin = nl.pin(p);
    const netlist::CellInst& cell = nl.cell(pin.cell);
    if (pin.dir == PinDir::kIn) {
      if (tech::is_combinational(cell.kind)) {
        for (int o = 0; o < cell.num_out; ++o) {
          const Id q = nl.output_pin(pin.cell, o);
          if (--indeg[q] == 0) topo_.push_back(q);
        }
      }
    } else if (pin.net != kNullId) {
      for (Id s : nl.net(pin.net).sinks)
        if (--indeg[s] == 0) topo_.push_back(s);
    }
  }
  if (topo_.size() != np) {
    // A combinational cycle would stall Kahn; the generators build DAGs, so
    // treat this as a structural bug.
    throw std::logic_error("timing graph is not acyclic: " + std::to_string(topo_.size()) +
                           " of " + std::to_string(np) + " pins ordered");
  }

  // Endpoints: sequential data inputs and primary-output pins.
  for (Id p = 0; p < np; ++p) {
    const netlist::Pin& pin = nl.pin(p);
    if (pin.dir != PinDir::kIn) continue;
    const netlist::CellInst& cell = nl.cell(pin.cell);
    const bool seq_data =
        (tech::is_sequential(cell.kind) || cell.kind == tech::CellKind::kSramMacro);
    if (seq_data || cell.kind == tech::CellKind::kOutput) endpoint_[p] = 1;
  }
}

namespace {
constexpr double kNegInf = -1e18;
}

// Recomputes arrival/out_delay/worst_prev of one pin from its predecessors'
// current values (a pure gather, no dependence on the pin's own old state).
void TimingGraph::forward_eval(Id p) {
  const netlist::Netlist& nl = design_.nl;
  const std::vector<route::NetRoute>& routes = *routes_;
  const netlist::Pin& pin = nl.pin(p);
  const netlist::CellInst& cell = nl.cell(pin.cell);
  const tech::CellType& type = lib_of(tech_, cell).cell(cell.kind);

  if (pin.dir == PinDir::kOut) {
    worst_prev_[p] = kNullId;
    if (tech::is_sequential(cell.kind) || cell.kind == tech::CellKind::kSramMacro) {
      arrival_[p] = launch_ps(type);
    } else if (cell.kind == tech::CellKind::kInput) {
      arrival_[p] = 0.0;
    } else {
      // Combinational: max over input pins + load-dependent cell delay.
      const double load =
          (pin.net != kNullId) ? routes[pin.net].load_ff : type.output_cap_ff;
      const double d = cell_delay_ps(type, load + type.output_cap_ff);
      out_delay_[p] = d;
      double best = kNegInf;
      Id best_prev = kNullId;
      for (int i = 0; i < cell.num_in; ++i) {
        const Id ip = nl.input_pin(pin.cell, i);
        if (arrival_[ip] > best) {
          best = arrival_[ip];
          best_prev = ip;
        }
      }
      if (best > kNegInf / 2) {
        arrival_[p] = best + d;
        worst_prev_[p] = best_prev;
      } else {
        arrival_[p] = d;  // no driven inputs (degenerate)
      }
    }
    return;
  }
  // Input pin: net arc from driver.
  if (pin.net == kNullId) {
    arrival_[p] = 0.0;
    worst_prev_[p] = kNullId;
    return;
  }
  const netlist::Net& net = nl.net(pin.net);
  const route::NetRoute& r = routes[pin.net];
  double wire = 0.0;
  for (std::size_t s = 0; s < net.sinks.size(); ++s) {
    if (net.sinks[s] == p) {
      wire = (s < r.sink_elmore_ps.size()) ? r.sink_elmore_ps[s] : 0.0;
      break;
    }
  }
  const double drv_at = (net.driver != kNullId) ? arrival_[net.driver] : 0.0;
  arrival_[p] = (drv_at > kNegInf / 2 ? drv_at : 0.0) + wire;
  worst_prev_[p] = net.driver;
}

// Recomputes required of one pin by gathering from its successors: the
// endpoint term, the cell arcs into the outputs (input pins), and the net
// arcs into the sinks (output pins). Gather-min over the same terms run()'s
// historical scatter produced, so the fixpoint is identical; processing in
// reverse topological order makes one pass sufficient.
void TimingGraph::backward_eval(Id p) {
  const netlist::Netlist& nl = design_.nl;
  const netlist::Pin& pin = nl.pin(p);
  const netlist::CellInst& cell = nl.cell(pin.cell);
  const tech::CellType& type = lib_of(tech_, cell).cell(cell.kind);

  double req = 1e18;
  if (endpoint_[p]) {
    req = std::min(req, ((cell.kind == tech::CellKind::kOutput)
                             ? clock_ps_
                             : required_ps(clock_ps_, type)) -
                            uncertainty_ps_);
  }
  if (pin.dir == PinDir::kIn) {
    if (tech::is_combinational(cell.kind)) {
      for (int o = 0; o < cell.num_out; ++o) {
        const Id q = nl.output_pin(pin.cell, o);
        req = std::min(req, required_[q] - out_delay_[q]);
      }
    }
  } else if (pin.net != kNullId) {
    const double drv_at = (arrival_[p] > kNegInf / 2) ? arrival_[p] : 0.0;
    for (const Id s : nl.net(pin.net).sinks) {
      const double wire = arrival_[s] - drv_at;
      req = std::min(req, required_[s] - wire);
    }
  }
  required_[p] = req;
}

StaResult TimingGraph::finalize_result() const {
  const netlist::Netlist& nl = design_.nl;
  StaResult result;
  for (Id p = 0; p < nl.num_pins(); ++p) {
    if (!endpoint_[p]) continue;
    ++result.endpoints;
    if (slack_[p] < 0.0) {
      ++result.violating_endpoints;
      result.tns_ns += slack_[p] * 1e-3;
      result.wns_ps = std::min(result.wns_ps, slack_[p]);
    }
  }
  result.effective_freq_mhz = 1e6 / (clock_ps_ - result.wns_ps);
  return result;
}

StaResult TimingGraph::run(double clock_ps, double clock_uncertainty_ps) {
  GNNMLS_SPAN("sta.run");
  clock_ps_ = clock_ps;
  uncertainty_ps_ = clock_uncertainty_ps;
  const netlist::Netlist& nl = design_.nl;

  std::fill(arrival_.begin(), arrival_.end(), kNegInf);
  std::fill(worst_prev_.begin(), worst_prev_.end(), kNullId);

  // Forward propagation in topological order.
  for (const Id p : topo_) forward_eval(p);

  // Required times backward (reverse topological order).
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) backward_eval(*it);

  for (Id p = 0; p < nl.num_pins(); ++p)
    slack_[p] = required_[p] - (arrival_[p] > kNegInf / 2 ? arrival_[p] : 0.0);

  const StaResult result = finalize_result();
  {
    StaCounters& sc = StaCounters::get();
    sc.full_runs.add(1);
    sc.pin_evals.add(2 * topo_.size());  // one forward + one backward sweep
  }
  util::log_debug("sta: WNS ", result.wns_ps, " ps, TNS ", result.tns_ns, " ns, #vio ",
                  result.violating_endpoints, "/", result.endpoints);
  return result;
}

std::vector<netlist::Id> TimingGraph::violating_endpoints() const {
  std::vector<Id> eps;
  for (Id p = 0; p < design_.nl.num_pins(); ++p)
    if (endpoint_[p] && slack_[p] < 0.0) eps.push_back(p);
  std::sort(eps.begin(), eps.end(),
            [&](Id a, Id b) { return slack_[a] < slack_[b]; });
  return eps;
}

}  // namespace gnnmls::sta
