// Contract audit (layer 2 of src/audit/): declared-vs-observed diffing.
//
// The PassManager, in GNNMLS_AUDIT=1 mode, binds one core::AccessRecorder
// per pass execution; after the wave ends (success or failure — findings
// must survive a rolled-back wave) it calls diff_contract() to turn the
// recorder's observation into structured ft::AuditViolation records.
//
// Rules:
//   * undeclared write — observed write to a stage missing from writes().
//     Breaks scheduling AND rollback coverage: no reader is ordered after
//     the write or re-run on it, and the stage is not in the wave's
//     snapshot union, so a failed wave cannot restore it.
//   * undeclared read — observed read of a stage missing from reads() and
//     from writes(). A declared write subsumes the read (read-modify-write
//     of your own stage is the normal commit pattern).
//   * netlist mutations are invisible to the DB hooks (they go through the
//     netlist reference), so the caller passes the wave's netlist revision
//     delta; a pass that took a mutable design reference in a wave where the
//     netlist moved is charged with a kNetlist write.
//
// The static counterpart (declaration-level schedule proofs) lives in
// schedule_analyzer.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_audit.hpp"
#include "core/stage.hpp"
#include "ft/error.hpp"

namespace gnnmls::audit {

std::vector<ft::AuditViolation> diff_contract(const std::string& pass_name,
                                              const std::vector<core::Stage>& declared_reads,
                                              const std::vector<core::Stage>& declared_writes,
                                              const core::AccessRecorder& observed,
                                              bool netlist_moved, std::uint64_t db_revision);

}  // namespace gnnmls::audit
