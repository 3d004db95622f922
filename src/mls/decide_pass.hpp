// DecidePass: GNN-MLS inference as a pure-read flow pass.
//
// Reads {netlist, routes, timing}, writes nothing — the decision vector is
// per-strategy input, not a DB stage, so the pass parks it in flags() and
// the flow driver feeds it to the next pipeline via set_mls_flags. The
// skip fingerprint mixes in the engine identity: re-running with the same
// engine over an unchanged baseline is skipped (flags() still holds the
// previous answer), while swapping engines forces a fresh inference.
#pragma once

#include "flow/pass.hpp"
#include "mls/gnnmls.hpp"

namespace gnnmls::mls {

class DecidePass : public flow::Pass {
 public:
  // The engine must outlive the pass's next run(). `corpus` controls path
  // extraction for inference (same knobs as corpus building).
  void configure(GnnMlsEngine* engine, CorpusOptions corpus) {
    engine_ = engine;
    corpus_ = corpus;
  }
  // The decision vector from the last non-skipped run().
  const std::vector<std::uint8_t>& flags() const { return flags_; }

  const char* name() const override { return "decide"; }
  std::vector<core::Stage> reads() const override {
    return {core::Stage::kNetlist, core::Stage::kRoutes, core::Stage::kTiming};
  }
  std::vector<core::Stage> writes() const override { return {}; }
  std::uint64_t fingerprint() const override {
    return reinterpret_cast<std::uint64_t>(engine_);
  }
  void run(flow::PassContext& ctx) override;

 private:
  GnnMlsEngine* engine_ = nullptr;
  CorpusOptions corpus_{};
  std::vector<std::uint8_t> flags_;
};

}  // namespace gnnmls::mls
