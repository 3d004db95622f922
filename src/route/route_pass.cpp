#include "route/route_pass.hpp"

#include <exception>

#include "ft/blackbox.hpp"
#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::route {

void RoutePass::run(flow::PassContext& ctx) {
  obs::Span span("flow.route");
  core::DesignDB& db = ctx.db;
  // Pull any unconsumed netlist mutations into the dirty set (and re-declare
  // placement, which the mutators maintain themselves) before dispatching.
  db.absorb_journal();
  Router& router = db.router(ctx.config.router);
  const std::vector<std::uint8_t>& flags = db.mls_flags();

  RouteSummary rs;
  if (router.routed_revision() == 0) {
    rs = router.route_all(flags);
  } else if (db.design().nl.revision() != router.routed_revision()) {
    // The netlist moved (ECO): minimal rip-up of the dirty nets, keeping the
    // surviving grid state. Nets added since the last route are implicitly
    // dirty inside reroute_nets. Degradation policy: if the ECO repair dies
    // (resource trouble mid-rip-up, injected fault), fall back to a full
    // route_all — always well-defined, just slower — and flag the row.
    const std::vector<netlist::Id> dirty = db.take_dirty_nets();
    try {
      GNNMLS_FAULT_POINT("route.eco");
      rs = router.reroute_nets(dirty, flags);
    } catch (const std::exception& e) {
      util::log_warn("route pass: ECO reroute failed (", e.what(),
                     "); degrading to full route_all");
      static obs::Counter& degraded = obs::Metrics::instance().counter("ft.degraded");
      degraded.add(1);
      ctx.metrics.degraded = true;
      obs::FlightRecorder::instance().record(obs::EventKind::kDegrade, "route.full_reroute");
      ft::dump_black_box({}, 0, 0, std::string("route ECO degraded to full route: ") + e.what());
      rs = router.route_all(flags);
    }
  } else {
    // Same netlist: local changes (flag flips, touched pins) or a stage
    // invalidated outright. A flip re-negotiates the whole grid anyway, so
    // the dirty set is consumed and everything is routed afresh.
    db.take_dirty_nets();
    rs = router.route_all(flags);
  }
  GNNMLS_FAULT_POINT("route.commit");
  db.set_route_summary(rs);
  db.commit(core::Stage::kRoutes);
  ctx.metrics.route_s += span.seconds();
}

}  // namespace gnnmls::route
