// Pass: one flow stage as a schedulable unit.
//
// A Pass declares which DesignDB stages it reads and writes; the PassManager
// derives ordering edges from those sets (writer before reader, conflicting
// writers in pipeline order), skips passes whose outputs are already fresh
// under the DB's revision tags, and runs independent passes concurrently on
// the Executor. Pass bodies therefore contain only the stage work itself —
// no hand-threaded ordering, timing, or staleness logic.
//
// Contract for run():
//   * read flow state only through ctx.db (plus ctx.config);
//   * commit every declared write stage before returning, and store the
//     stage's result artifact in the DB so a later skipped run can still
//     assemble FlowMetrics from cache;
//   * time yourself with one obs::Span and add its seconds to your
//     FlowMetrics stage field (ctx.metrics);
//   * touch only your own DB artifacts and metrics fields — passes in the
//     same wave run on different threads with no locks between them.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/design_db.hpp"
#include "dft/dft_mls.hpp"
#include "flow/types.hpp"

namespace gnnmls::flow {

class Pass;

// Everything a pass may look at while running. The referenced objects
// outlive the run; metrics fields are disjoint per pass, so concurrent
// passes never write the same member.
struct PassContext {
  core::DesignDB& db;
  const FlowConfig& config;
  FlowMetrics& metrics;
  // The flow's canonical pass list (empty outside a DesignFlow); the check
  // pass's "audit" group proves its schedule.
  std::span<Pass* const> passes = {};
  // DFT-pipeline inputs/outputs (used by the "dft" pass only).
  dft::MlsDftStyle dft_style = dft::MlsDftStyle::kWireBased;
  std::size_t scan_flops = 0;  // filled by the dft pass
  std::size_t dft_cells = 0;   // filled by the dft pass
};

class Pass {
 public:
  virtual ~Pass();

  virtual const char* name() const = 0;
  // DesignDB stages this pass consumes / produces. The sets are the whole
  // scheduling interface: ordering, skipping, and parallelism all derive
  // from them (plus needs_run / fingerprint below).
  virtual std::vector<core::Stage> reads() const = 0;
  virtual std::vector<core::Stage> writes() const = 0;

  // Should this pass execute against the current DB state? Default: run
  // when any written stage is not fresh(); pure-read passes (empty writes)
  // always volunteer and leave the decision to the manager's read-revision
  // fingerprint ledger. Override when freshness of one specific stage
  // governs (e.g. the DFT pass keys on kTest alone so its route/placement
  // side-effect writes cannot re-trigger a second insertion).
  virtual bool needs_run(const core::DesignDB& db) const;

  // Extra state mixed into the manager's skip fingerprint for pure-read
  // passes (e.g. the decide pass hashes its engine identity so swapping
  // engines forces a re-run).
  virtual std::uint64_t fingerprint() const { return 0; }

  // True for consumers that degrade gracefully when a declared read stage
  // was never built (the check pass skips rule groups instead of failing).
  // The static schedule analyzer (src/audit/) then reports an undriven read
  // at info severity instead of error (AU-002).
  virtual bool tolerates_missing_reads() const { return false; }

  virtual void run(PassContext& ctx) = 0;
};

// A pass's declared stage sets, as the scheduler sees them.
struct Contract {
  std::vector<core::Stage> reads;
  std::vector<core::Stage> writes;
};

Contract contract_of(const Pass& pass);

// The one ordering rule: true when `earlier` and `later` touch a common
// stage in a way that forces pipeline order (read-after-write,
// write-after-read, or write-after-write).
bool conflicts(const Contract& earlier, const Contract& later);

// The next dispatch wave over a pipeline in canonical order: every index i
// with wants[i] and no j < i with wants[j] that conflicts with it.
// PassManager::run feeds `wants` from stage freshness; the static schedule
// analyzer (src/audit/) marks every unfinished pass.
std::vector<std::size_t> next_wave(const std::vector<Contract>& pipeline,
                                   const std::vector<char>& wants);

// The members of `passes` named in `names`, in `passes` order (the order of
// `names` does not matter). Throws std::invalid_argument on a name that is
// not in `passes`.
std::vector<Pass*> select_passes(std::span<Pass* const> passes,
                                 const std::vector<std::string>& names);

}  // namespace gnnmls::flow
