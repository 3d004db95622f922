#include "sta/sta_pass.hpp"

#include "ft/fault_plan.hpp"
#include "obs/trace.hpp"

namespace gnnmls::sta {

void StaPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.sta");
  core::DesignDB& db = ctx.db;
  // timing() rebuilds the graph when the netlist revision moved since the
  // last build; otherwise the live graph re-times the current routes.
  GNNMLS_FAULT_POINT("sta.run");
  TimingGraph& g = db.timing();
  const StaResult sr = g.run(db.design().info.clock_ps, ctx.config.clock_uncertainty_ps);
  db.set_sta_result(sr);
  db.commit(core::Stage::kTiming);
  ctx.metrics.sta_s += span.seconds();
}

}  // namespace gnnmls::sta
