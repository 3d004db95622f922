// CheckPass: the design-integrity audit as a pure-read flow pass.
//
// Reads every stage the registered check passes can look at and writes
// nothing, so the scheduler skips it via its read-revision fingerprint: the
// audit re-runs exactly when some audited artifact changed. When strict
// checks are on (the only pipeline that includes this pass), an unclean
// report throws out of the evaluate.
#pragma once

#include "check/registry.hpp"
#include "flow/pass.hpp"

namespace gnnmls::check {

// Assembles the checker snapshot from the DB's artifacts and runs every
// registered integrity pass. A timing graph the netlist has moved past is
// withheld (it indexes a stale pin space), while stale routes are handed
// over on purpose — RT-005's revision comparison exists to catch exactly
// that. `passes` is the flow's canonical pass list, which the "audit" group
// analyzes. Shared by CheckPass and DesignFlow::run_checks().
Report run_flow_checks(const core::DesignDB& db, const flow::FlowConfig& config,
                       std::span<flow::Pass* const> passes);

class CheckPass : public flow::Pass {
 public:
  const char* name() const override { return "check"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes,  core::Stage::kTiming,
            core::Stage::kPower,   core::Stage::kPdn,     core::Stage::kTest};
  }
  std::vector<core::Stage> writes() const override { return {}; }
  // Missing inputs skip their rule group (mark_pass_skipped) instead of
  // failing, so an undriven read is an info, not an error, to the static
  // schedule analyzer.
  bool tolerates_missing_reads() const override { return true; }
  void run(flow::PassContext& ctx) override;
};

}  // namespace gnnmls::check
