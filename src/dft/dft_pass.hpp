// DftPass: scan + MLS-DFT insertion (and its routing repair) as a flow pass.
//
// Reads {routes}; writes {test, routes, placement, netlist}. Insertion is
// post-routing (paper Figure 4), mutates the netlist, and places its own
// cells — so the pass owns the whole repair: it absorbs the mutation
// journal into the dirty set, commits the test model, and ECO-reroutes the
// cut nets before returning. Declaring kRoutes/kPlacement/kNetlist as
// writes makes downstream passes (STA, power, PDN) reschedule after it and
// puts the design value in the wave snapshot (a rolled-back insertion must
// restore the pre-scan netlist — the contract audit flagged the old
// declaration that omitted kNetlist); needs_run keys on kTest alone so
// those side-effect writes can never re-trigger a second insertion on an
// already-testable design.
#pragma once

#include "flow/pass.hpp"

namespace gnnmls::dft {

class DftPass : public flow::Pass {
 public:
  const char* name() const override { return "dft"; }
  std::vector<core::Stage> reads() const override { return {core::Stage::kRoutes}; }
  std::vector<core::Stage> writes() const override {
    return {core::Stage::kTest, core::Stage::kRoutes, core::Stage::kPlacement,
            core::Stage::kNetlist};
  }
  bool needs_run(const core::DesignDB& db) const override {
    return !db.fresh(core::Stage::kTest);
  }
  void run(flow::PassContext& ctx) override;
};

}  // namespace gnnmls::dft
