#include "check/registry.hpp"

#include <algorithm>

#include "audit/schedule_analyzer.hpp"
#include "check/checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gnnmls::check {

namespace {
// Registry-level diagnostic tallies: how many errors/warnings each full run
// contributed, severity-split so dashboards can alert on errors alone.
void count_diagnostics(const Report& report) {
  if (report.errors())
    obs::Metrics::instance().counter("check.diag_errors").add(report.errors());
  if (report.warnings())
    obs::Metrics::instance().counter("check.diag_warnings").add(report.warnings());
}
}  // namespace

void CheckRegistry::add(std::string name, PassFn fn) {
  passes_.push_back(Pass{std::move(name), std::move(fn)});
}

std::vector<std::string> CheckRegistry::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const Pass& p : passes_) names.push_back(p.name);
  return names;
}

Report CheckRegistry::run(const Snapshot& snapshot) const {
  GNNMLS_SPAN("check.run");
  Report report;
  for (const Pass& p : passes_) {
    // The tracer copies the name while the temporary is alive.
    obs::Span span(("check." + p.name).c_str());
    p.fn(snapshot, report);
  }
  count_diagnostics(report);
  return report;
}

Report CheckRegistry::run(const Snapshot& snapshot, std::span<const std::string> subset) const {
  Report report;
  for (const std::string& name : subset) {
    const auto it = std::find_if(passes_.begin(), passes_.end(),
                                 [&](const Pass& p) { return p.name == name; });
    if (it == passes_.end()) {
      report.mark_pass_skipped(name, "unknown pass");
      continue;
    }
    it->fn(snapshot, report);
  }
  return report;
}

CheckRegistry CheckRegistry::with_default_passes() {
  CheckRegistry registry;
  registry.add("netlist", [](const Snapshot& s, Report& r) {
    if (!s.design) {
      r.mark_pass_skipped("netlist", "no design");
      return;
    }
    check_netlist(s.design->nl, r);
    r.mark_pass_run("netlist");
  });
  registry.add("sta", [](const Snapshot& s, Report& r) {
    if (!s.design) {
      r.mark_pass_skipped("sta", "no design");
      return;
    }
    check_sta_structure(s.design->nl, r);
    if (s.sta)
      check_sta_results(*s.sta, s.options, r);
    else
      r.mark_pass_skipped("sta-results", "no timing graph");
    r.mark_pass_run("sta");
  });
  registry.add("route", [](const Snapshot& s, Report& r) {
    if (!s.design || !s.router) {
      r.mark_pass_skipped("route", "no routing state");
      return;
    }
    check_grid_capacity(s.router->grid(), r);
    check_f2f_capacity(s.router->grid(), r);
    check_routes(*s.design, *s.router, r);
    r.mark_pass_run("route");
  });
  registry.add("mls", [](const Snapshot& s, Report& r) {
    if (!s.design || !s.router) {
      r.mark_pass_skipped("mls", "no routing state");
      return;
    }
    check_mls_decisions(*s.design, *s.router, s.mls_flags, r);
    if (s.tech && s.sta)
      check_feature_agreement(*s.design, *s.tech, *s.router, *s.sta, s.options, r);
    else
      r.mark_pass_skipped("mls-features", "no timing graph");
    r.mark_pass_run("mls");
  });
  registry.add("dft", [](const Snapshot& s, Report& r) {
    if (!s.design || !s.test_model) {
      r.mark_pass_skipped("dft", "no test model");
      return;
    }
    check_dft_coverage(s.design->nl, *s.test_model, r);
    r.mark_pass_run("dft");
  });
  registry.add("ft", [](const Snapshot& s, Report& r) {
    if (!s.db) {
      r.mark_pass_skipped("ft", "no design DB");
      return;
    }
    check_ft_state(*s.db, r);
    r.mark_pass_run("ft");
  });
  registry.add("audit", [](const Snapshot& s, Report& r) {
    // Static schedule analysis (AU-00x) of the flow's pass list: the
    // declarations, not the artifacts, are the subject.
    if (s.passes.empty()) {
      r.mark_pass_skipped("audit", "no pipeline");
      return;
    }
    r.merge(audit::analyze(audit::model_of(s.passes)).report);
    r.mark_pass_run("audit");
  });
  registry.add("pdn", [](const Snapshot& s, Report& r) {
    if (!s.design || !s.tech) {
      r.mark_pass_skipped("pdn", "no design");
      return;
    }
    check_level_shifters(s.design->nl, *s.tech, r);
    if (s.pdn)
      check_ir_budget(*s.pdn, s.options, r);
    else
      r.mark_pass_skipped("pdn-ir", "no PDN design");
    r.mark_pass_run("pdn");
  });
  return registry;
}

}  // namespace gnnmls::check
