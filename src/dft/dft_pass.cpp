#include "dft/dft_pass.hpp"

#include "dft/scan.hpp"
#include "ft/fault_plan.hpp"
#include "netlist/buffering.hpp"
#include "obs/trace.hpp"

namespace gnnmls::dft {

void DftPass::run(flow::PassContext& ctx) {
  core::DesignDB& db = ctx.db;
  route::Router& router = db.router(ctx.config.router);
  netlist::Netlist& nl = db.design().nl;

  MlsDftReport dft_report;
  {
    obs::Span span("flow.dft.insert");
    const ScanReport scan = insert_full_scan(nl);
    ctx.scan_flops = scan.flops_replaced;
    dft_report = insert_mls_dft(nl, router.routes(), ctx.dft_style);
    ctx.dft_cells = dft_report.cells_added;
    // Mid-mutation site: scan flops are swapped and DFT cells inserted, but
    // the test model is not yet committed — exactly the partial netlist the
    // transactional rollback has to undo whole.
    GNNMLS_FAULT_POINT("dft.insert");
    // Post-routing ECO (paper Section III-D: "Post-routing ECO adjustments
    // ensure that the timing impact of these solutions remains minimal"):
    // re-buffer the nets the DFT cells now drive.
    netlist::insert_repeaters_only(nl, ctx.config.buffering.max_unbuffered_um);
    db.set_test_model(dft_report.test_model);
    // The insertions place their own cells and journal every net they cut;
    // absorbing the journal dirties those nets and re-declares placement.
    db.absorb_journal();
    db.commit(core::Stage::kTest);
    ctx.metrics.dft_s += span.seconds();
  }

  // Rip up and re-route only the touched nets (nets added since the last
  // route are implicitly dirty); the surviving grid state is kept. The
  // netlist revision moved, so the STA pass rebuilds its timing graph.
  {
    obs::Span span("flow.route.eco");
    GNNMLS_FAULT_POINT("dft.eco");
    const std::vector<netlist::Id> dirty = db.take_dirty_nets();
    const route::RouteSummary rs = router.reroute_nets(dirty, db.mls_flags());
    db.set_route_summary(rs);
    db.commit(core::Stage::kRoutes);
    ctx.metrics.route_s += span.seconds();
  }
}

}  // namespace gnnmls::dft
