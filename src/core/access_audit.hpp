// Access audit: a TSan-for-DesignDB stage-access recorder.
//
// Every DesignDB accessor and mutator calls one of the audit_note_*()
// hooks below. The hooks are fully inline and bind to a thread_local
// recorder pointer, so when no recorder is in scope — the default — each
// hook is a thread-local load, a test, and a fall-through branch: the
// non-audit flow pays essentially nothing (BM_AuditOverhead tracks the
// actual cost).
//
// In GNNMLS_AUDIT=1 mode the PassManager binds one AccessRecorder per pass
// execution (AuditScope, around the pass body) and, after the wave ends,
// diffs what each pass actually touched against its declared
// reads()/writes() sets. Each pass execution has its own recorder, so one
// pass's trace never mixes with another's.
//
// Netlist mutations are the one access the hooks cannot see (passes mutate
// through the netlist reference returned by design(), not through DesignDB
// methods). The recorder instead notes that a mutable design reference was
// taken; the PassManager pairs that with the netlist revision delta across
// the wave to conclude "this pass wrote kNetlist".
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/stage.hpp"

namespace gnnmls::core {

class AccessRecorder {
 public:
  void on_read(Stage s) { reads_[idx(s)] = 1; }
  void on_write(Stage s) { writes_[idx(s)] = 1; }
  void on_mutable_design() { mutable_design_ = 1; }

  bool read(Stage s) const { return reads_[idx(s)] != 0; }
  bool wrote(Stage s) const { return writes_[idx(s)] != 0; }
  bool took_mutable_design() const { return mutable_design_ != 0; }

  std::vector<Stage> reads() const { return collect(reads_); }
  std::vector<Stage> writes() const { return collect(writes_); }

  void reset() { *this = AccessRecorder{}; }

 private:
  static constexpr std::size_t idx(Stage s) { return static_cast<std::size_t>(s); }
  static std::vector<Stage> collect(const std::array<std::uint8_t, kNumStages>& bits) {
    std::vector<Stage> out;
    for (std::size_t i = 0; i < kNumStages; ++i)
      if (bits[i] != 0) out.push_back(static_cast<Stage>(i));
    return out;
  }

  std::array<std::uint8_t, kNumStages> reads_{};
  std::array<std::uint8_t, kNumStages> writes_{};
  std::uint8_t mutable_design_ = 0;
};

namespace audit_detail {
// The recorder the hooks feed, or null (audit off / no pass running).
// inline thread_local: one instance per thread across all TUs, and the hooks
// below stay header-inline.
inline thread_local AccessRecorder* tl_recorder = nullptr;
}  // namespace audit_detail

// RAII binding of a recorder to the current thread. Nests (the previous
// binding is restored on destruction) and unbinds on exceptions, so a
// throwing pass still leaves its partial access trace in the recorder.
class AuditScope {
 public:
  explicit AuditScope(AccessRecorder* recorder) : prev_(audit_detail::tl_recorder) {
    audit_detail::tl_recorder = recorder;
  }
  ~AuditScope() { audit_detail::tl_recorder = prev_; }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;

 private:
  AccessRecorder* prev_;
};

inline void audit_note_read(Stage s) {
  if (AccessRecorder* r = audit_detail::tl_recorder) r->on_read(s);
}
inline void audit_note_write(Stage s) {
  if (AccessRecorder* r = audit_detail::tl_recorder) r->on_write(s);
}
inline void audit_note_mutable_design() {
  if (AccessRecorder* r = audit_detail::tl_recorder) r->on_mutable_design();
}

}  // namespace gnnmls::core
