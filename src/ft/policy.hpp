// Recovery policy for transactional pass execution.
//
// The PassManager snapshots each wave's write-set stages and rolls them back
// when a pass throws. FtOptions sets how many times an all-retryable wave
// failure is retried. The struct lives here (not in flow/types.hpp) so
// low-level layers can reason about policies without pulling in the flow
// configuration; FlowConfig embeds one.
#pragma once

namespace gnnmls::ft {

struct FtOptions {
  // How many times a wave whose every failure is retryable re-runs before
  // the AggregateFlowError propagates.
  int max_retries = 2;
};

}  // namespace gnnmls::ft
