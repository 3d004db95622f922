#include "sta/sta_pass.hpp"

#include <stdexcept>

#include "ft/blackbox.hpp"
#include "ft/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::sta {

void StaPass::run(flow::PassContext& ctx) {
  obs::Span span("flow.sta");
  core::DesignDB& db = ctx.db;
  const core::DesignDB::RouteDelta& delta = db.route_delta();
  TimingGraph* graph = db.timing_if_fresh();

  StaResult sr;
  bool need_full = true;
  if (graph != nullptr && graph->clock_ps() > 0.0 && delta.valid) {
    // Incremental repair: the route pass left the exact changed-net list and
    // the graph's pin space still matches the netlist. update() is
    // bit-identical to run() at the last clock. A logic_error here means the
    // graph's view of the netlist was stale after all (an invariant the
    // freshness guards should make impossible, and fault injection makes
    // reachable) — update() touched nothing yet, so instead of aborting the
    // flow we degrade to the full rebuild, which is bit-identical anyway.
    try {
      GNNMLS_FAULT_POINT("sta.update");
      sr = graph->update(delta.changed);
      need_full = false;
    } catch (const std::logic_error& e) {
      util::log_warn("sta pass: incremental update rejected (", e.what(),
                     "); rebuilding the timing graph");
      static obs::Counter& rebuilds = obs::Metrics::instance().counter("ft.sta_rebuilds");
      rebuilds.add(1);
      obs::FlightRecorder::instance().record(obs::EventKind::kDegrade, "sta.full_rebuild");
      ft::dump_black_box({}, 0, 0,
                         std::string("sta incremental update degraded to rebuild: ") + e.what());
    }
  }
  if (need_full) {
    // timing() rebuilds the graph when the netlist revision moved since the
    // last build — the full-rebuild fallback of the incremental ECO story.
    GNNMLS_FAULT_POINT("sta.run");
    TimingGraph& g = db.timing();
    sr = g.run(db.design().info.clock_ps, ctx.config.clock_uncertainty_ps);
  }
  db.set_sta_result(sr);  // also consumes the route delta
  db.commit(core::Stage::kTiming);
  ctx.metrics.sta_s += span.seconds();
}

}  // namespace gnnmls::sta
