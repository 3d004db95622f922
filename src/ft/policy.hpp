// Recovery policy for transactional pass execution.
//
// The PassManager snapshots each wave's write-set stages and rolls them back
// when a pass throws. FtOptions sets how many times an all-retryable wave
// failure is retried and the per-pass wall-clock budget the watchdog
// converts into retryable timeouts. The struct lives here (not in
// flow/types.hpp) so low-level layers can reason about policies without
// pulling in the flow configuration; FlowConfig embeds one, and the service
// layer (src/svc/) swaps it per request.
#pragma once

namespace gnnmls::ft {

struct FtOptions {
  // How many times a wave whose every failure is retryable re-runs before
  // the AggregateFlowError propagates.
  int max_retries = 2;
  // Per-pass wall-clock budget in seconds; a pass exceeding it fails with a
  // retryable kTimeout after it returns (cooperative watchdog — passes are
  // not killed mid-flight). 0 disables.
  double pass_budget_s = 0.0;
};

}  // namespace gnnmls::ft
