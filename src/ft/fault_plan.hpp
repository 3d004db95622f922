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
// gnnmls_lint --inject-flow. Hit counts are relaxed atomics, so the
// process-wide plan stays safe to visit from any thread.
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

  // Hit counter and trip ordinal of one catalogued site. Its address is
  // stable for the process lifetime (reset() zeroes it in place).
  struct SiteState {
    const FaultSite* info = nullptr;
    std::atomic<std::uint64_t> hits{0};
    // 0 = disarmed; otherwise the hit ordinal (1-based) that trips.
    std::atomic<std::uint64_t> trip_at{0};
  };
  // The state of `site`, or null when it is not in the catalogue.
  SiteState* resolve(std::string_view site);

  // Counts one hit of a resolved site (null: no-op); throws when the site's
  // armed countdown reaches zero. GNNMLS_FAULT_POINT resolves its site once
  // and calls this.
  static void visit(SiteState* s) {
    if (s == nullptr) return;
    const std::uint64_t hit = s->hits.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t trip = s->trip_at.load(std::memory_order_relaxed);
    if (trip != 0 && hit == trip) instance().trip(*s, hit);
  }
  // The same by name: looks the site up first.
  void visit(const char* site) { visit(resolve(site)); }

  // Returns whether GNNMLS_FAULT ("site:n[,site:n...]") was present. The
  // arming itself happens on the first instance() touch (bad specs abort
  // with a clear message there); CLIs call this to learn whether the run is
  // a chaos run and must fail on an unrecovered flow.
  static bool init_from_env();

 private:
  FaultPlan();

  // Disarms `s` (one-shot), records the trip and throws.
  [[noreturn]] void trip(SiteState& s, std::uint64_t hit);

  std::vector<SiteState> states_;  // parallel to known_sites()
  std::atomic<std::uint64_t> tripped_{0};
};

// Injection hook. The site name is looked up once per call site, on its
// first visit (a function-local static); after that a visit costs the
// static's initialization check, one relaxed fetch_add on the site's hit
// counter and one relaxed load of its trip ordinal, armed or not.
#define GNNMLS_FAULT_POINT(site)                                            \
  do {                                                                      \
    static ::gnnmls::ft::FaultPlan::SiteState* const gnnmls_fault_site_ =   \
        ::gnnmls::ft::FaultPlan::instance().resolve(site);                  \
    ::gnnmls::ft::FaultPlan::visit(gnnmls_fault_site_);                     \
  } while (false)

}  // namespace gnnmls::ft
