// RoutePass: the routing stage as a schedulable flow pass.
//
// Reads {netlist, placement}, writes {routes, placement}. The incremental-
// ECO story lives entirely in run()'s dispatch: a never-routed design gets
// route_all, a netlist that moved since the last route gets a minimal-
// rip-up ECO over the dirty set, and a same-netlist change (an MLS flag
// flip, a touched pin) gets route_all. Callers never pick a path.
// The kPlacement write is absorb_journal()'s placement re-commit when
// an external ECO left journal entries pending (mutators place their own
// cells); the contract audit flagged the old {routes}-only declaration.
#pragma once

#include "flow/pass.hpp"

namespace gnnmls::route {

class RoutePass : public flow::Pass {
 public:
  const char* name() const override { return "route"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kPlacement};
  }
  std::vector<core::Stage> writes() const override {
    return {core::Stage::kRoutes, core::Stage::kPlacement};
  }
  void run(flow::PassContext& ctx) override;
};

}  // namespace gnnmls::route
