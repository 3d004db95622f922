// StaPass: static timing as a schedulable flow pass.
//
// Reads {netlist, routes}, writes {timing}. Every run is one full
// TimingGraph::run() at the design clock: on the live graph when the
// netlist is unchanged since it was built (a flag flip re-routed under it),
// on a rebuilt graph otherwise (an ECO moved the netlist). The result lands
// in the DB's StaResult cache so a later all-skipped evaluate can still
// report WNS/TNS.
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
