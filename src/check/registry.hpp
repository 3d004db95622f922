// CheckRegistry: runs named rule passes over a design snapshot.
//
// A Snapshot is a read-only view of whatever flow state exists at a stage
// boundary — the netlist always, router/STA/PDN/DFT state when the flow has
// produced them. Each pass validates the invariants its layer is supposed to
// uphold and is individually robust to missing inputs (it records itself as
// skipped rather than failing), so the registry can run at any point of the
// pipeline: after generation (netlist lint only), after evaluate() (routing,
// timing, PDN), or after evaluate_with_dft() (everything).
//
// The pass bodies live in *_checks.cpp next to this file; checks.hpp exposes
// the fine-grained entry points for unit tests and the rule table for the
// CLI and DESIGN.md.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "check/diagnostic.hpp"
#include "dft/faults.hpp"
#include "netlist/generators.hpp"
#include "pdn/pdn.hpp"
#include "route/router.hpp"
#include "sta/graph.hpp"
#include "tech/tech.hpp"

namespace gnnmls::core {
class DesignDB;
}
namespace gnnmls::flow {
class Pass;
}

namespace gnnmls::check {

struct CheckOptions {
  // PDN-001 budget as % of the lowest VDD (paper Table IV: 10%).
  double ir_budget_pct = 10.0;
  // STA-002 tolerance: arrivals may regress by up to this along worst_prev
  // chains before they count as non-monotone (float accumulation slop).
  double arrival_eps_ps = 1e-6;
  // MLS-002 samples this many critical paths for the feature-agreement check.
  int feature_check_paths = 8;
  // MLS-002 relative tolerance when comparing recomputed stage features
  // against the PathGraph rows.
  double feature_rel_tol = 1e-9;
};

struct Snapshot {
  const netlist::Design* design = nullptr;  // required by every pass
  const tech::Tech3D* tech = nullptr;       // required by every pass
  const route::Router* router = nullptr;    // after route_all()
  const sta::TimingGraph* sta = nullptr;    // after run()
  const pdn::PdnDesign* pdn = nullptr;      // after synthesize_pdn()
  // Per-net MLS decision flags used for the last routing (may be null or
  // empty: no sharing requested anywhere).
  const std::vector<std::uint8_t>* mls_flags = nullptr;
  const dft::TestModel* test_model = nullptr;  // after insert_mls_dft()
  // The owning DB, when checking flow state (null for hand-built snapshots).
  // Enables the "ft" pass: stage-tag consistency and mid-write markers after
  // a recovered run (FT-001).
  const core::DesignDB* db = nullptr;
  // The flow's canonical pass list (empty for hand-built snapshots). Enables
  // the "audit" pass: static schedule analysis of the declared contracts.
  std::span<flow::Pass* const> passes;
  CheckOptions options;
};

class CheckRegistry {
 public:
  using PassFn = std::function<void(const Snapshot&, Report&)>;

  void add(std::string name, PassFn fn);
  std::vector<std::string> pass_names() const;

  // Runs every registered pass (or the named subset) and returns the merged
  // report. Unknown names in `subset` are reported as skipped.
  Report run(const Snapshot& snapshot) const;
  Report run(const Snapshot& snapshot, std::span<const std::string> subset) const;

  // All built-in passes: netlist, sta, route, mls, dft, ft, audit, pdn.
  static CheckRegistry with_default_passes();

 private:
  struct Pass {
    std::string name;
    PassFn fn;
  };
  std::vector<Pass> passes_;
};

}  // namespace gnnmls::check
