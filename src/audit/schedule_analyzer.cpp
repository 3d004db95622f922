#include "audit/schedule_analyzer.hpp"

#include <array>
#include <sstream>
#include <stdexcept>

#include "check/checks.hpp"
#include "flow/pass.hpp"

namespace gnnmls::audit {

namespace {

constexpr std::size_t idx(core::Stage s) { return static_cast<std::size_t>(s); }

bool contains(const std::vector<core::Stage>& stages, core::Stage s) {
  for (const core::Stage x : stages)
    if (x == s) return true;
  return false;
}

std::string join(const std::vector<core::Stage>& stages) {
  std::string out;
  for (const core::Stage s : stages) {
    if (!out.empty()) out += ",";
    out += core::to_string(s);
  }
  return out.empty() ? "-" : out;
}

const check::RuleInfo& rule(const char* id) {
  const check::RuleInfo* r = check::find_rule(id);
  if (r == nullptr) throw std::logic_error(std::string("audit rule missing from table: ") + id);
  return *r;
}

// The stages a wave snapshot over `wave_writes` can restore. Mirrors
// DesignDB::snapshot: capturing any of {kNetlist, kPlacement, kTest} copies
// the whole design value, which restores the netlist and the placement
// (cell coordinates live in the design) as a side effect.
std::array<bool, core::kNumStages> snapshot_cover(const std::vector<core::Stage>& wave_writes) {
  std::array<bool, core::kNumStages> covered{};
  for (const core::Stage s : wave_writes) covered[idx(s)] = true;
  if (covered[idx(core::Stage::kNetlist)] || covered[idx(core::Stage::kPlacement)] ||
      covered[idx(core::Stage::kTest)]) {
    covered[idx(core::Stage::kNetlist)] = true;
    covered[idx(core::Stage::kPlacement)] = true;
  }
  return covered;
}

void check_duplicates(const PassSpec& spec, const char* set_name,
                      const std::vector<core::Stage>& set, check::Report& report) {
  for (std::size_t i = 0; i < set.size(); ++i)
    for (std::size_t j = i + 1; j < set.size(); ++j)
      if (set[i] == set[j])
        report.add(rule("AU-005"), "pass " + spec.name,
                   std::string("stage ") + core::to_string(set[i]) + " listed twice in " +
                       set_name + "()");
}

ScheduleAnalysis verify(const ScheduleModel& model,
                        std::vector<std::vector<std::size_t>> waves) {
  ScheduleAnalysis out;
  out.waves = std::move(waves);
  out.passes = model.passes.size();
  check::Report& report = out.report;

  // AU-005: malformed declarations first — the remaining rules assume sets.
  for (const PassSpec& spec : model.passes) {
    check_duplicates(spec, "reads", spec.reads, report);
    check_duplicates(spec, "writes", spec.writes, report);
  }

  // AU-001: intra-wave conflicts. The PassManager's own derivation cannot
  // produce one (a conflicting predecessor blocks), so on computed waves
  // this guards the scheduler; on supplied waves it verifies the supplier.
  for (std::size_t w = 0; w < out.waves.size(); ++w) {
    const std::vector<std::size_t>& wave = out.waves[w];
    for (std::size_t a = 0; a < wave.size(); ++a)
      for (std::size_t b = a + 1; b < wave.size(); ++b) {
        const PassSpec& pa = model.passes[wave[a]];
        const PassSpec& pb = model.passes[wave[b]];
        if (!flow::conflicts({pa.reads, pa.writes}, {pb.reads, pb.writes})) continue;
        std::vector<core::Stage> overlap;
        for (std::size_t s = 0; s < core::kNumStages; ++s) {
          const core::Stage stage = static_cast<core::Stage>(s);
          const bool a_touches_w = contains(pa.writes, stage);
          const bool b_touches_w = contains(pb.writes, stage);
          if ((a_touches_w && (b_touches_w || contains(pb.reads, stage))) ||
              (b_touches_w && contains(pa.reads, stage)))
            overlap.push_back(stage);
        }
        report.add(rule("AU-001"), "wave " + std::to_string(w),
                   "passes " + pa.name + " and " + pb.name +
                       " dispatch concurrently but conflict on {" + join(overlap) + "}");
      }
  }

  // AU-002: every read satisfied by a seed or an earlier wave's writer.
  // A same-wave writer does not count: nothing orders the two (and AU-001
  // already fired on the conflict).
  {
    std::array<bool, core::kNumStages> avail{};
    for (const core::Stage s : model.seeds) avail[idx(s)] = true;
    for (const std::vector<std::size_t>& wave : out.waves) {
      for (const std::size_t i : wave) {
        const PassSpec& spec = model.passes[i];
        for (const core::Stage s : spec.reads) {
          if (avail[idx(s)]) continue;
          if (spec.tolerates_missing_reads)
            report.add(rule("AU-002"), check::Severity::kInfo, "pass " + spec.name,
                       std::string("reads ") + core::to_string(s) +
                           " which no earlier pass writes and no seed provides "
                           "(tolerated: the pass degrades gracefully)");
          else
            report.add(rule("AU-002"), "pass " + spec.name,
                       std::string("reads ") + core::to_string(s) +
                           " which no earlier pass writes and no seed provides");
        }
      }
      for (const std::size_t i : wave)
        for (const core::Stage s : model.passes[i].writes) avail[idx(s)] = true;
    }
  }

  // AU-003: a written stage someone must consume — another pass (order-
  // independent: fixed-point re-dispatch lets earlier readers re-run) or the
  // pipeline outputs.
  for (std::size_t i = 0; i < model.passes.size(); ++i) {
    for (const core::Stage s : model.passes[i].writes) {
      if (contains(model.outputs, s)) continue;
      bool used = false;
      for (std::size_t j = 0; j < model.passes.size() && !used; ++j)
        used = j != i && contains(model.passes[j].reads, s);
      if (!used)
        report.add(rule("AU-003"), "pass " + model.passes[i].name,
                   std::string("writes ") + core::to_string(s) +
                       " but no other pass reads it and it is not a pipeline output");
    }
  }

  // AU-004: the wave's snapshot (union of declared writes) must cover every
  // stage any member can modify, including known side_writes.
  for (std::size_t w = 0; w < out.waves.size(); ++w) {
    std::vector<core::Stage> wave_writes;
    for (const std::size_t i : out.waves[w])
      for (const core::Stage s : model.passes[i].writes)
        if (!contains(wave_writes, s)) wave_writes.push_back(s);
    const std::array<bool, core::kNumStages> covered = snapshot_cover(wave_writes);
    for (const std::size_t i : out.waves[w]) {
      const PassSpec& spec = model.passes[i];
      for (const std::vector<core::Stage>* set : {&spec.writes, &spec.side_writes})
        for (const core::Stage s : *set)
          if (!covered[idx(s)])
            report.add(rule("AU-004"), "wave " + std::to_string(w),
                       "pass " + spec.name + " can modify " + core::to_string(s) +
                           " but the wave snapshot covers only {" + join(wave_writes) + "}");
    }
  }

  out.conflicts = report.rule_count("AU-001");
  out.undriven = report.rule_count("AU-002");
  out.unused = report.rule_count("AU-003");
  out.rollback_holes = report.rule_count("AU-004");
  out.duplicates = report.rule_count("AU-005");
  return out;
}

}  // namespace

std::vector<std::vector<std::size_t>> compute_waves(const ScheduleModel& model) {
  std::vector<flow::Contract> contracts;
  for (const PassSpec& spec : model.passes) contracts.push_back({spec.reads, spec.writes});
  std::vector<char> unfinished(contracts.size(), 1);
  std::vector<std::vector<std::size_t>> waves;
  for (;;) {
    std::vector<std::size_t> wave = flow::next_wave(contracts, unfinished);
    if (wave.empty()) break;
    for (const std::size_t i : wave) unfinished[i] = 0;
    waves.push_back(std::move(wave));
  }
  return waves;
}

ScheduleAnalysis analyze(const ScheduleModel& model) {
  return verify(model, compute_waves(model));
}

ScheduleAnalysis analyze(const ScheduleModel& model,
                         const std::vector<std::vector<std::size_t>>& waves) {
  std::vector<char> seen(model.passes.size(), 0);
  for (const std::vector<std::size_t>& wave : waves)
    for (const std::size_t i : wave) {
      if (i >= model.passes.size())
        throw std::invalid_argument("analyze: wave index out of range");
      if (seen[i]) throw std::invalid_argument("analyze: pass appears in two waves");
      seen[i] = 1;
    }
  for (std::size_t i = 0; i < seen.size(); ++i)
    if (!seen[i])
      throw std::invalid_argument("analyze: pass " + model.passes[i].name + " not in any wave");
  return verify(model, waves);
}

std::string ScheduleAnalysis::summary_line() const {
  std::ostringstream os;
  os << "schedule-analysis: passes=" << passes << " waves=" << waves.size()
     << " conflicts=" << conflicts << " undriven=" << undriven << " unused=" << unused
     << " rollback_holes=" << rollback_holes << " duplicates=" << duplicates;
  return os.str();
}

std::string ScheduleAnalysis::render_waves(const ScheduleModel& model) const {
  std::ostringstream os;
  for (std::size_t w = 0; w < waves.size(); ++w) {
    os << "wave " << w << ":";
    for (const std::size_t i : waves[w]) {
      const PassSpec& spec = model.passes[i];
      os << " " << spec.name << "[r:" << join(spec.reads) << " w:" << join(spec.writes) << "]";
    }
    os << "\n";
  }
  return os.str();
}

PassSpec spec_of(const flow::Pass& pass) {
  PassSpec spec;
  spec.name = pass.name();
  spec.reads = pass.reads();
  spec.writes = pass.writes();
  spec.tolerates_missing_reads = pass.tolerates_missing_reads();
  return spec;
}

ScheduleModel model_of(std::span<flow::Pass* const> passes,
                       const std::vector<std::string>& only) {
  ScheduleModel model;
  std::vector<flow::Pass*> chosen(passes.begin(), passes.end());
  if (!only.empty()) chosen = flow::select_passes(passes, only);
  for (const flow::Pass* pass : chosen) model.passes.push_back(spec_of(*pass));
  return model;
}

}  // namespace gnnmls::audit
