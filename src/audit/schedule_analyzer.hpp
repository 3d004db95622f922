// Schedule analyzer (layer 1 of src/audit/): static proofs over declared
// pass contracts.
//
// Consumes only the declared read/write sets (a ScheduleModel — built by
// hand for tests, or lifted from the flow's canonical pass list)
// and, without running anything, proves or refutes the properties every
// PassManager guarantee rests on:
//
//   AU-001 wave-conflict          two passes in one wave (snapshot unit) conflict
//   AU-002 undriven-read          a read no earlier pass writes, no seed provides
//   AU-003 unused-write           a written stage nothing downstream consumes
//   AU-004 rollback-hole          a wave can modify a stage its snapshot misses
//   AU-005 duplicate-declaration  a stage listed twice in one set
//
// Findings flow through the standard check::Report machinery, so the lint
// CLI renders them like any other rule family, and analyze() also returns a
// machine-readable count per rule plus the one-line summary the CI gate
// greps (`schedule-analysis: passes=7 waves=4 conflicts=0 ...`).
//
// The waves come from the PassManager's own rule (flow::next_wave over
// flow::conflicts), which never co-schedules conflicting passes, so on the
// self-computed partition AU-001 is a regression guard for future scheduler
// changes; the analyze(model, waves) overload accepts an explicit partition
// so callers (and the CI negative test) can also verify schedules produced
// elsewhere — or deliberately broken ones.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "check/diagnostic.hpp"
#include "core/stage.hpp"

namespace gnnmls::flow {
class Pass;
}

namespace gnnmls::audit {

// One pass's declared contract, decoupled from the flow::Pass object so
// tests can model hypothetical (or deliberately broken) pipelines.
struct PassSpec {
  std::string name;
  std::vector<core::Stage> reads;
  std::vector<core::Stage> writes;
  // Known out-of-contract footprint (e.g. surfaced by the dynamic auditor):
  // analyzed like writes for rollback coverage but NOT part of the wave's
  // snapshot union — that asymmetry is exactly what AU-004 reports.
  std::vector<core::Stage> side_writes;
  // Mirrors Pass::tolerates_missing_reads(): an undriven read demotes from
  // error to info (the pass skips the rule group instead of failing).
  bool tolerates_missing_reads = false;
};

struct ScheduleModel {
  std::vector<PassSpec> passes;  // pipeline order
  // Stages available before the first wave. The DesignFlow constructor
  // prepares and places the design, so the real pipeline seeds both.
  std::vector<core::Stage> seeds = {core::Stage::kNetlist, core::Stage::kPlacement};
  // Stages consumed after the run (metrics assembly reads every artifact
  // cache), exempt from AU-003. Narrow this to find dead stages.
  std::vector<core::Stage> outputs = {
      core::Stage::kNetlist, core::Stage::kPlacement, core::Stage::kRoutes,
      core::Stage::kTiming,  core::Stage::kPower,     core::Stage::kPdn,
      core::Stage::kTest};
};

// The wave partition PassManager::run derives on a cold DB: flow::next_wave
// with every unfinished pass wanting to run. Indices into model.passes,
// wave-major.
std::vector<std::vector<std::size_t>> compute_waves(const ScheduleModel& model);

struct ScheduleAnalysis {
  std::vector<std::vector<std::size_t>> waves;
  check::Report report;
  std::size_t passes = 0;
  std::size_t conflicts = 0;       // AU-001 hits
  std::size_t undriven = 0;        // AU-002
  std::size_t unused = 0;          // AU-003
  std::size_t rollback_holes = 0;  // AU-004
  std::size_t duplicates = 0;      // AU-005

  bool clean() const { return report.clean(); }  // no error-severity finding
  // "schedule-analysis: passes=7 waves=4 conflicts=0 undriven=0 unused=0
  //  rollback_holes=0 duplicates=0" — the greppable CI line.
  std::string summary_line() const;
  // Human-readable wave table with each member's contract.
  std::string render_waves(const ScheduleModel& model) const;
};

// Analyze the model against its own computed wave partition.
ScheduleAnalysis analyze(const ScheduleModel& model);
// Analyze against an explicitly supplied partition (must cover every pass
// index exactly once; throws std::invalid_argument otherwise).
ScheduleAnalysis analyze(const ScheduleModel& model,
                         const std::vector<std::vector<std::size_t>>& waves);

// Contract of a live pass object.
PassSpec spec_of(const flow::Pass& pass);
// Model of a pass list in its own (canonical) order — every pass, or the
// subset named in `only` (flow::select_passes: the order of `only` does not
// matter, unknown names throw std::invalid_argument) — with the real flow's
// seeds and outputs.
ScheduleModel model_of(std::span<flow::Pass* const> passes,
                       const std::vector<std::string>& only = {});

}  // namespace gnnmls::audit
