#include "pdn/pdn_passes.hpp"

#include <stdexcept>

#include "ft/fault_plan.hpp"
#include "obs/trace.hpp"

namespace gnnmls::pdn {

namespace {

const route::Router& routed(const core::DesignDB& db, const char* who) {
  const route::Router* router = db.router_if_built();
  if (router == nullptr)
    throw std::logic_error(std::string(who) + " pass needs routes; run the route pass first");
  return *router;
}

}  // namespace

void PowerPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.power");
  core::DesignDB& db = ctx.db;
  const route::Router& router = routed(db, "power");
  GNNMLS_FAULT_POINT("power.estimate");
  const PowerReport pr =
      estimate_power(db.design(), db.tech(), router.routes(), ctx.config.power);
  db.set_power(pr);
  db.commit(core::Stage::kPower);
  ctx.metrics.power_s += span.seconds();
}

void PdnPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.pdn");
  core::DesignDB& db = ctx.db;
  const route::Router& router = routed(db, "pdn");
  GNNMLS_FAULT_POINT("pdn.synthesize");
  db.set_pdn(synthesize_pdn(db.design(), db.tech(), router.routes(), ctx.config.pdn));
  db.commit(core::Stage::kPdn);
  ctx.metrics.pdn_s += span.seconds();
}

}  // namespace gnnmls::pdn
