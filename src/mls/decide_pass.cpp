#include "mls/decide_pass.hpp"

#include <stdexcept>

#include "core/fingerprint.hpp"
#include "ft/blackbox.hpp"
#include "ft/fault_plan.hpp"
#include "mls/sota.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace gnnmls::mls {

std::uint64_t DecidePass::fingerprint() const {
  core::Fnv1a h;
  h.mix(engine_ ? engine_->weights_version() : 0);
  h.mix(static_cast<std::uint64_t>(corpus_.max_paths));
  h.mix(corpus_.include_near_critical ? 1 : 0);
  h.mix_double(corpus_.margin_ps);
  h.mix(corpus_.attach_labels ? 1 : 0);
  h.mix_double(corpus_.labeler.min_gain_ps);
  return h.value();
}

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
    flags_ = engine_->decide(db.design(), db.tech(), db.router(), db.timing(), corpus_);
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
