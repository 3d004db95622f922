// StaPass: static timing as a schedulable flow pass.
//
// Reads {netlist, routes}, writes {timing}. When the previous route was
// incremental (the DB holds a valid RouteDelta) and the timing graph still
// matches the netlist, the pass repairs timing with TimingGraph::update()
// over exactly the changed nets — bit-identical to a full run() at the same
// clock. Any other staleness (netlist moved, first run) takes the full
// rebuild-and-run path. The result lands in the DB's StaResult cache so a
// later all-skipped evaluate can still report WNS/TNS.
#pragma once

#include "flow/pass.hpp"

namespace gnnmls::sta {

class StaPass : public flow::Pass {
 public:
  const char* name() const override { return "sta"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes};
  }
  std::vector<core::Stage> writes() const override { return {core::Stage::kTiming}; }
  void run(flow::PassContext& ctx) override;
};

}  // namespace gnnmls::sta
