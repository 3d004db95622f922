// PassManager: revision-aware wave scheduler over a pass pipeline.
//
// Given a pipeline (a vector of passes in canonical order), the manager
// repeatedly dispatches "waves" by flow::next_wave: every pass that
// currently wants to run and has no wanting predecessor it conflicts with
// (flow::conflicts over the declared read/write sets) goes into the wave,
// the wave's passes run in pipeline order under one snapshot, and freshness
// is re-evaluated. Conflicting passes therefore land in successive waves,
// and a failed wave rolls back whole. A pass wants to run when its written stages are stale
// under the DesignDB's revision tags (Pass::needs_run); pure-read passes are
// skipped when the revisions of everything they read match the ledger entry
// from their last execution. A re-run on an unmutated DB therefore schedules
// zero passes, and after a local mutation only the dependent suffix
// re-executes — the incremental-ECO story is the scheduler's default
// behavior, not a special code path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "flow/pass.hpp"
#include "ft/error.hpp"

namespace gnnmls::flow {

struct PassExecution {
  std::string name;
  double seconds = 0.0;
  std::size_t wave = 0;  // 0-based dispatch wave
};

// One pass failure that survived the retry budget (the run threw an
// ft::AggregateFlowError carrying the same information as exceptions).
struct FailureRecord {
  std::string pass;
  std::string code;   // ft::to_string(ErrorCode)
  std::string error;  // what()
  bool retryable = false;
};

// One transactional rollback of a failed wave. pre_fp was digested before
// the wave dispatched, post_fp after restore(); the crash-consistency
// property tests assert they are equal (the rollback left no trace).
struct RollbackRecord {
  std::size_t wave = 0;
  std::vector<std::string> failed;  // names of the passes that threw
  std::uint64_t pre_fp = 0;
  std::uint64_t post_fp = 0;
  std::size_t attempt = 0;  // 0-based attempt that failed
};

struct RunReport {
  std::vector<PassExecution> executed;  // dispatch order (wave-major)
  std::vector<std::string> skipped;     // pipeline order
  std::size_t waves = 0;
  std::vector<FailureRecord> failed;      // failures the run gave up on
  std::vector<RollbackRecord> rollbacks;  // every rollback, incl. retried ones
  std::size_t retries = 0;                // waves re-dispatched after rollback
  // ---- contract audit (GNNMLS_AUDIT=1) -----------------------------------
  // Unique (kind, pass, stage) violations observed by the access recorder,
  // diffed after every wave attempt — including rolled-back ones, so a
  // finding from a faulted wave survives its rollback. audited counts pass
  // executions the recorder covered (attempts, not just successes).
  std::vector<ft::AuditViolation> audit;
  std::size_t audited = 0;

  bool ran(std::string_view name) const;
  const PassExecution* find(std::string_view name) const;
};

class PassManager {
 public:
  // Schedules and runs the pipeline against ctx.db. Returns the report for
  // this invocation (also retained as last_report()). The fingerprint ledger
  // for pure-read passes persists across invocations, keyed by pass name.
  //
  // Failure semantics (ctx.config.ft sets the retry budget): before each
  // wave the union of its write stages is snapshotted; if any pass throws,
  // every failure is wrapped into an ft::FlowError, the snapshot is restored
  // (DB bit-identical to pre-wave by state_fingerprint), and — when every
  // failure is retryable and the retry budget allows — the wave
  // re-dispatches. Exhausted budgets throw
  // ft::AggregateFlowError carrying ALL wave failures; last_report() keeps
  // the FailureRecords and RollbackRecords either way.
  const RunReport& run(const std::vector<Pass*>& pipeline, PassContext& ctx);

  const RunReport& last_report() const { return report_; }

  // Effective audit-mode switch for a run: config.audit, overridden by
  // GNNMLS_AUDIT=1/on (enable) or =0/off (disable). Exposed so the lint CLI
  // prints the audit summary exactly when the manager recorded one.
  static bool audit_enabled(const FlowConfig& config);

 private:
  std::uint64_t fingerprint_of(const Pass& pass, const core::DesignDB& db) const;
  bool wants_run(const Pass& pass, const core::DesignDB& db) const;

  std::map<std::string, std::uint64_t, std::less<>> ledger_;
  RunReport report_;
};

}  // namespace gnnmls::flow
