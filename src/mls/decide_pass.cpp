#include "mls/decide_pass.hpp"

#include <stdexcept>

#include "ft/blackbox.hpp"
#include "ft/fault_plan.hpp"
#include "mls/sota.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::mls {

void DecidePass::run(flow::PassContext& ctx) {
  if (engine_ == nullptr)
    throw std::logic_error(
        "decide pass: no engine configured (DesignFlow::evaluate_gnn wires one up)");
  obs::Span span("flow.decide");
  core::DesignDB& db = ctx.db;
  // Degradation policy: GNN inference is an optimization, not a correctness
  // dependency — if it dies (missing weights, injected fault), the flow
  // falls back to the SOTA selection heuristic and flags the row degraded
  // rather than failing the run.
  try {
    GNNMLS_FAULT_POINT("decide.infer");
    flags_ = engine_->decide(db.design(), db.tech(), db.router(ctx.config.router), db.timing(),
                             corpus_);
  } catch (const std::exception& e) {
    util::log_warn("decide pass: GNN inference failed (", e.what(),
                   "); degrading to the SOTA heuristic");
    static obs::Counter& degraded = obs::Metrics::instance().counter("ft.degraded");
    degraded.add(1);
    ctx.metrics.degraded = true;
    obs::FlightRecorder::instance().record(obs::EventKind::kDegrade, "decide.sota");
    ft::dump_black_box({}, 0, 0, std::string("decide degraded to SOTA heuristic: ") + e.what());
    flags_ = sota_select(db.design(), ctx.config.sota);
  }
  span.end();
  ctx.metrics.decide_s += span.seconds();
}

}  // namespace gnnmls::mls
