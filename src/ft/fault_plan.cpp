#include "ft/fault_plan.hpp"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "ft/error.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/log.hpp"
#include "util/parse.hpp"

namespace gnnmls::ft {

namespace {

// The site catalogue. Names are <pass-ish>.<point>; every entry is visited
// by exactly one place in the codebase. Keep DESIGN.md §3f in sync.
constexpr FaultSite kSites[] = {
    {"route.net", "mid-route: partial grid usage + a prefix of committed nets"},
    {"route.commit", "route summary stored, kRoutes not yet committed"},
    {"route.eco", "ECO repair dispatched; RoutePass degrades to a full reroute"},
    {"dft.insert", "scan flops replaced, netlist mid-mutation, kTest uncommitted"},
    {"dft.eco", "DFT cells inserted + journal absorbed, routing repair pending"},
    {"sta.run", "full STA evaluated, result not yet stored"},
    {"power.estimate", "power report computed, kPower not yet committed"},
    {"pdn.synthesize", "PDN synthesis dispatched, kPdn not yet committed"},
    {"check.run", "integrity audit dispatched (pure-read wave member)"},
    {"decide.infer", "GNN inference dispatched; DecidePass degrades to SOTA"},
};

}  // namespace

FaultPlan::FaultPlan() : states_(std::size(kSites)) {
  for (std::size_t i = 0; i < std::size(kSites); ++i) states_[i].info = &kSites[i];
}

namespace {

// Arms `plan` from GNNMLS_FAULT ("site:n[,site:n...]"); returns whether the
// variable was present. Bad specs abort with a clear message (a typo'd chaos
// run silently testing nothing is worse than a crash).
bool arm_from_env(FaultPlan& plan) {
  const char* env = std::getenv("GNNMLS_FAULT");  // NOLINT(concurrency-mt-unsafe): read once, on first touch
  if (env == nullptr || *env == '\0') return false;
  std::string_view specs(env);
  while (!specs.empty()) {
    const std::size_t comma = specs.find(',');
    const std::string_view spec = specs.substr(0, comma);
    if (!spec.empty()) {
      try {
        plan.arm_spec(spec);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "GNNMLS_FAULT: %s\n", e.what());
        std::exit(2);
      }
    }
    if (comma == std::string_view::npos) break;
    specs.remove_prefix(comma + 1);
  }
  return true;
}

}  // namespace

FaultPlan& FaultPlan::instance() {
  static FaultPlan plan;
  // First touch arms from the environment, so GNNMLS_FAULT chaos works in
  // any binary — examples and benches included, not just the CLIs that call
  // init_from_env for the boolean.
  static const bool env_armed = arm_from_env(plan);
  (void)env_armed;
  return plan;
}

std::vector<FaultSite> FaultPlan::known_sites() {
  return std::vector<FaultSite>(std::begin(kSites), std::end(kSites));
}

const FaultSite* FaultPlan::find_site(std::string_view name) {
  for (const FaultSite& s : kSites)
    if (name == s.name) return &s;
  return nullptr;
}

FaultPlan::SiteState* FaultPlan::resolve(std::string_view site) {
  for (SiteState& s : states_)
    if (site == s.info->name) return &s;
  return nullptr;
}

void FaultPlan::arm(std::string_view site, std::uint64_t nth) {
  SiteState* s = resolve(site);
  if (s == nullptr) {
    // List the catalogue: a typo'd site name must not read like "maybe the
    // site exists but can't be armed" — show exactly what is spellable.
    std::string msg = "unknown fault site: " + std::string(site) + " (valid sites:";
    for (const FaultSite& k : kSites) {
      msg += ' ';
      msg += k.name;
    }
    msg += ')';
    throw std::invalid_argument(msg);
  }
  if (nth == 0) throw std::invalid_argument("fault site ordinal must be >= 1");
  // Trip relative to the hits already seen, so re-arming mid-run works.
  s->trip_at.store(s->hits.load(std::memory_order_relaxed) + nth,
                   std::memory_order_relaxed);
  obs::FlightRecorder::instance().record(obs::EventKind::kFaultArm, site, nth);
}

void FaultPlan::arm_spec(std::string_view spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos) {
    arm(spec, 1);
    return;
  }
  const std::optional<std::uint64_t> nth = util::parse_u64(spec.substr(colon + 1));
  if (!nth) throw std::invalid_argument("bad fault spec (want site[:n]): " + std::string(spec));
  arm(spec.substr(0, colon), *nth);
}

void FaultPlan::reset() {
  for (SiteState& s : states_) {
    s.hits.store(0, std::memory_order_relaxed);
    s.trip_at.store(0, std::memory_order_relaxed);
  }
  tripped_.store(0, std::memory_order_relaxed);
}

bool FaultPlan::armed() const {
  for (const SiteState& s : states_)
    if (s.trip_at.load(std::memory_order_relaxed) != 0) return true;
  return false;
}

void FaultPlan::trip(SiteState& s, std::uint64_t hit) {
  // One-shot: disarm before throwing so the retried pass runs clean.
  s.trip_at.store(0, std::memory_order_relaxed);
  tripped_.fetch_add(1, std::memory_order_relaxed);
  const char* site = s.info->name;
  obs::Metrics::instance().counter("ft.faults_injected").add(1);
  obs::FlightRecorder::instance().record(obs::EventKind::kFaultTrip, site, hit);
  util::log_warn("ft: injected fault at site ", site, " (hit ", hit, ")");
  throw FlowError(ErrorCode::kInjectedFault, /*pass=*/"", /*stage=*/"", 0,
                  /*retryable=*/true, std::string("injected fault at ") + site);
}

bool FaultPlan::init_from_env() {
  instance();  // first touch already armed from the environment
  const char* env = std::getenv("GNNMLS_FAULT");  // NOLINT(concurrency-mt-unsafe)
  return env != nullptr && *env != '\0';
}

}  // namespace gnnmls::ft
