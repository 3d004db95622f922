// Deterministic fault-injection harness for the flow pipeline.
//
// The flow's failure paths are unreachable from clean inputs, so they rot
// unless something exercises them on purpose. FaultPlan plants named
// injection sites at the points where a pass mutates flow state (see
// known_sites() for the catalogue); arming a site makes its n-th visit
// throw, one-shot, so a retried pass succeeds and the recovery machinery —
// rollback, retry, degradation — runs its full cycle deterministically.
//
// Arming is by "site:n" spec (n-th hit trips; n defaults to 1), from code
// (tests), from the GNNMLS_FAULT env var (comma-separated specs, armed on
// the first instance() touch so chaos works in any binary), or from
// gnnmls_lint --inject-flow. Hit counting is atomic: sites fire from
// executor threads.
//
// A tripped site throws ft::FlowError{kInjectedFault, retryable}.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gnnmls::ft {

struct FaultSite {
  const char* name;         // "route.net", "sta.run", ...
  const char* description;  // what partial state exists when it trips
};

class FaultPlan {
 public:
  static FaultPlan& instance();

  // The canonical site catalogue (the chaos sweep iterates it). A site not
  // in this table cannot be armed.
  static std::vector<FaultSite> known_sites();
  static const FaultSite* find_site(std::string_view name);

  // Arms `site` to throw on its `nth` visit from now (nth >= 1), one-shot.
  // Throws std::invalid_argument for an unknown site.
  void arm(std::string_view site, std::uint64_t nth = 1);
  // "site" or "site:n" spec; throws std::invalid_argument on bad specs.
  void arm_spec(std::string_view spec);
  // Disarms everything and zeroes the hit counters.
  void reset();

  // Number of faults tripped since the last reset().
  std::uint64_t tripped() const { return tripped_.load(std::memory_order_relaxed); }
  bool armed() const;

  // Called at each injection site (via GNNMLS_FAULT_POINT). Counts the hit;
  // throws when the site's armed countdown reaches zero.
  void visit(const char* site);

  // Returns whether GNNMLS_FAULT ("site:n[,site:n...]") was present. The
  // arming itself happens on the first instance() touch (bad specs abort
  // with a clear message there); CLIs call this to learn whether the run is
  // a chaos run and must fail on an unrecovered flow.
  static bool init_from_env();

 private:
  FaultPlan();

  struct SiteState {
    const FaultSite* info = nullptr;
    std::atomic<std::uint64_t> hits{0};
    // 0 = disarmed; otherwise the hit ordinal (1-based) that trips.
    std::atomic<std::uint64_t> trip_at{0};
  };

  SiteState* state_of(std::string_view site);

  std::vector<SiteState> states_;  // parallel to known_sites()
  std::atomic<std::uint64_t> tripped_{0};
};

// Zero-cost-when-disarmed injection hook; reads one relaxed atomic per hit.
#define GNNMLS_FAULT_POINT(site) ::gnnmls::ft::FaultPlan::instance().visit(site)

}  // namespace gnnmls::ft
