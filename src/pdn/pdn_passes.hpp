// PowerPass / PdnPass: power estimation and PDN synthesis as flow passes.
//
// Both read {netlist, routes} and write their own stage ({power} / {pdn}),
// so they never conflict with each other or with STA — the scheduler runs
// sta ∥ power ∥ pdn in one wave when more than one is stale. The underlying
// estimate_power / synthesize_pdn functions are pure over their inputs,
// which is what makes the wave safe without locks.
#pragma once

#include "flow/pass.hpp"

namespace gnnmls::pdn {

class PowerPass : public flow::Pass {
 public:
  const char* name() const override { return "power"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes};
  }
  std::vector<core::Stage> writes() const override { return {core::Stage::kPower}; }
  void run(flow::PassContext& ctx) override;
};

class PdnPass : public flow::Pass {
 public:
  const char* name() const override { return "pdn"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes};
  }
  std::vector<core::Stage> writes() const override { return {core::Stage::kPdn}; }
  void run(flow::PassContext& ctx) override;
};

}  // namespace gnnmls::pdn
