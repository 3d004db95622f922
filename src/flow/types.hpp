// Flow-level configuration and the PPA metrics row shared by every pass.
//
// These used to live inside mls::DesignFlow; they moved here so the pass
// layer (src/flow/pass.hpp and the Pass subclasses next to each subsystem)
// can consume them without depending on the flow driver. mls/flow.hpp
// aliases them back into gnnmls::mls, so existing call sites are unchanged.
#pragma once

#include <cstddef>
#include <string>

#include "check/registry.hpp"
#include "ft/policy.hpp"
#include "mls/sota.hpp"
#include "netlist/buffering.hpp"
#include "pdn/pdn.hpp"
#include "pdn/power.hpp"
#include "place/placer.hpp"
#include "route/router.hpp"

namespace gnnmls::flow {

struct FlowConfig {
  bool heterogeneous = true;
  double clock_uncertainty_ps = 40.0;
  route::RouterOptions router;
  netlist::BufferingOptions buffering;
  place::PlacerOptions placer;
  pdn::PdnOptions pdn;
  pdn::PowerOptions power;
  mls::SotaOptions sota;
  bool run_pdn = true;  // PDN synthesis + IR analysis (Tables IV, Fig 9)
  // Run the design-integrity checker (src/check/) at every evaluate()
  // boundary and fail fast (throw) on error-severity diagnostics. Off by
  // default: benches measure the flow, not the auditor.
  bool strict_checks = false;
  check::CheckOptions checks;
  // Fault-tolerance policy (src/ft/): retry budget of the transactional wave
  // recovery.
  ft::FtOptions ft;
  // Contract audit (src/audit/ layer 2): record each pass's actual DesignDB
  // stage accesses on a per-thread recorder and diff them against the
  // declared reads()/writes() after every wave. Violations land on the
  // RunReport and the ft.audit.* counters; results stay bit-identical
  // (test-enforced). GNNMLS_AUDIT=1/off overrides at run() time. Off by
  // default: BM_AuditOverhead tracks the recording cost.
  bool audit = false;
};

// One row of the paper's PPA tables.
struct FlowMetrics {
  std::string design;
  std::string strategy;
  double wl_m = 0.0;
  double wns_ps = 0.0;
  double tns_ns = 0.0;
  std::size_t violating = 0;
  std::size_t endpoints = 0;
  std::size_t mls_nets = 0;
  std::size_t f2f_vias = 0;
  double power_mw = 0.0;
  double ls_power_mw = 0.0;
  double ir_drop_pct = 0.0;
  double eff_freq_mhz = 0.0;
  double pdn_width_um = 0.0;   // top-layer strap width (memory die)
  double pdn_pitch_um = 0.0;
  double pdn_util = 0.0;
  double runtime_s = 0.0;      // flow wall-clock: whatever passes the manager
                               // actually scheduled (0-pass re-runs are ~free)
  // Span-derived per-stage breakdown of runtime_s (seconds). Each field is
  // written by exactly one pass from its own obs::Span, so a stage can be
  // neither double-counted nor dropped; the stages sum to runtime_s up to
  // the between-stage glue (test-enforced to within 5%). A skipped pass
  // contributes 0. dft_s covers scan/DFT insertion in evaluate_with_dft
  // (fault simulation is reported separately and is not part of runtime_s,
  // matching the paper's runtime columns).
  double route_s = 0.0;
  double sta_s = 0.0;
  double power_s = 0.0;
  double pdn_s = 0.0;
  double check_s = 0.0;
  double decide_s = 0.0;
  double dft_s = 0.0;
  // Transactional overhead the PassManager spends outside any pass: the
  // per-wave write-set snapshot, its release after the wave, and the
  // pre-wave leak-detection fingerprint (plus rollback/restore work on a
  // failed wave). Accounted under the flow.tx span so the stage breakdown
  // stays within tolerance of runtime_s even as the snapshotted state grows.
  double tx_s = 0.0;
  // Sum of the stage fields above — the audited part of runtime_s.
  double stage_sum_s() const {
    return route_s + sta_s + power_s + pdn_s + check_s + decide_s + dft_s + tx_s;
  }
  std::size_t overflow_gcells = 0;
  // ---- fault-tolerance outcome (src/ft/) ---------------------------------
  // degraded: some pass completed via its fallback path (GNN inference fell
  // back to the SOTA heuristic, or an ECO reroute fell back to a full
  // route_all) — the row is valid but not the first-choice algorithm's.
  // retries: waves re-dispatched after a retryable failure + rollback.
  // A clean run reports degraded=false, retries=0 (CI gates on it).
  bool degraded = false;
  std::size_t retries = 0;
  // Unique contract violations the GNNMLS_AUDIT=1 recorder attributed to
  // this run's passes (0 when audit is off — or when every declaration is
  // honest, which CI gates on).
  std::size_t contract_violations = 0;
};

}  // namespace gnnmls::flow
