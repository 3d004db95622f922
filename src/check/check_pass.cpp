#include "check/check_pass.hpp"

#include <stdexcept>
#include <string>

#include "ft/fault_plan.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::check {

Report run_flow_checks(const core::DesignDB& db, const flow::FlowConfig& config,
                       std::span<flow::Pass* const> passes) {
  Snapshot snapshot;
  snapshot.design = &db.design();
  snapshot.tech = &db.tech();
  snapshot.router = db.router_if_built();
  snapshot.sta = db.timing_if_fresh();
  snapshot.pdn = db.pdn();
  snapshot.mls_flags = &db.mls_flags();
  snapshot.test_model = db.test_model();
  snapshot.db = &db;
  snapshot.passes = passes;
  snapshot.options = config.checks;
  snapshot.options.ir_budget_pct = config.pdn.ir_budget_pct;
  return CheckRegistry::with_default_passes().run(snapshot);
}

void CheckPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.checks");
  GNNMLS_FAULT_POINT("check.run");
  const Report report = run_flow_checks(ctx.db, ctx.config, ctx.passes);
  ctx.metrics.check_s += span.seconds();
  const std::string& design = ctx.db.design().info.name;
  if (!report.clean()) {
    util::log_error("flow[", design, "/", ctx.metrics.strategy, "]: strict checks failed\n",
                    report.render());
    throw std::runtime_error("design-integrity checks failed at stage boundary (" +
                             ctx.metrics.strategy + "): " + std::to_string(report.errors()) +
                             " error(s)");
  }
  util::log_debug("flow[", design, "/", ctx.metrics.strategy, "]: checks clean (",
                  report.warnings(), " warning(s))");
}

}  // namespace gnnmls::check
