// gnnmls_stress: deterministic multi-session stress driver for src/svc/.
//
// Replays seeded randomized mutation streams (flag flips, buffer-splice
// ECOs, re-evaluates, optional poison requests) against N concurrent
// sessions of a SessionManager — with fault injection armed if requested —
// then proves per-session isolation the hard way: every session's journal is
// replayed into a freshly forked solo twin and the state fingerprints must
// be bit-identical. Any mismatch is cross-session contamination and the
// driver exits non-zero (ci.sh gates on the summary line).
//
//   $ gnnmls_stress --sessions 4 --requests 5 --seed 7 --workers 4
//   $ gnnmls_stress --poison-session 0 --poison-count 3      # quarantine path
//   $ GNNMLS_FAULT=route.net:3 gnnmls_stress ...             # chaos
//   $ gnnmls_stress --bench-out BENCH_svc.json               # perf smoke
//
// Greppable output:
//   svc-session: name=s0 state=active executed=5 failed=0 fp=0x... twin=0x... match=1
//   stress: sessions=4 submitted=20 executed=20 shed=0 rejected=0
//           quarantined=0 faults_injected=0 contaminated=0 leaked=0
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ft/fault_plan.hpp"
#include "netlist/generators.hpp"
#include "svc/service.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

using namespace gnnmls;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: gnnmls_stress [options]\n"
               "  --design NAME        maeri16 | maeri128 | a7-single  (default maeri16)\n"
               "  --sessions N         concurrent sessions (default 4)\n"
               "  --requests M         requests per session (default 5)\n"
               "  --seed S             mutation-stream seed (default 1)\n"
               "  --workers N          worker pool size (default 4)\n"
               "  --queue N            admission queue limit\n"
               "  --inflight N         in-flight budget\n"
               "  --quarantine-after N failures tolerated before quarantine (default 2)\n"
               "  --budget-s X         per-session pass deadline budget (default off)\n"
               "  --poison-session I   session index fed always-failing requests (default none)\n"
               "  --poison-count K     how many poison requests it gets (default 3)\n"
               "  --inject-flow=S[:n]  arm a fault site (repeatable; chaos must trip)\n"
               "  --bench-out F        write a google-benchmark JSON perf row\n"
               "  --verbose            progress on stderr\n"
               "env: GNNMLS_SVC_* override service options (see svc/service.hpp);\n"
               "     GNNMLS_FAULT=S[:n][,...] arms fault sites like --inject-flow;\n"
               "     GNNMLS_THREADS sets the per-evaluate executor width\n");
}

netlist::Design make_design(const std::string& name, std::uint64_t seed) {
  if (name == "maeri16") return netlist::make_maeri_16pe(seed ? seed : 11);
  if (name == "maeri128") return netlist::make_maeri_128pe(seed ? seed : 12);
  if (name == "a7-single") return netlist::make_a7_single_core(seed ? seed : 14);
  std::fprintf(stderr, "gnnmls_stress: unknown design '%s'\n", name.c_str());
  std::exit(2);
}

// Stable per-(stream, session, request) seed: the stream is a pure function
// of --seed, so reruns and twins see identical mutations.
std::uint64_t mix(std::uint64_t seed, std::uint64_t s, std::uint64_t r) {
  util::Rng rng(seed ^ (s * 0x9E3779B97F4A7C15ULL) ^ (r << 32));
  return rng.next_u64();
}

}  // namespace

int main(int argc, char** argv) {
  std::string design_name = "maeri16";
  int sessions = 4;
  int requests = 5;
  std::uint64_t seed = 1;
  int poison_session = -1;
  int poison_count = 3;
  std::string bench_out;
  bool verbose = false;
  svc::ServiceOptions opts;
  opts.workers = 4;

  const std::vector<std::string> args(argv + 1, argv + argc);
  auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      usage(stderr);
      std::exit(2);
    }
    return args[++i];
  };
  bool chaos_cli = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--design") design_name = value(i);
    else if (arg == "--sessions") sessions = std::atoi(value(i).c_str());
    else if (arg == "--requests") requests = std::atoi(value(i).c_str());
    else if (arg == "--seed") seed = std::strtoull(value(i).c_str(), nullptr, 10);
    else if (arg == "--workers") opts.workers = std::atoi(value(i).c_str());
    else if (arg == "--queue") opts.queue_limit = static_cast<std::size_t>(std::atoi(value(i).c_str()));
    else if (arg == "--inflight") opts.inflight_limit = static_cast<std::size_t>(std::atoi(value(i).c_str()));
    else if (arg == "--quarantine-after") opts.quarantine_after = static_cast<std::size_t>(std::atoi(value(i).c_str()));
    else if (arg == "--budget-s") opts.session_budget_s = std::atof(value(i).c_str());
    else if (arg == "--poison-session") poison_session = std::atoi(value(i).c_str());
    else if (arg == "--poison-count") poison_count = std::atoi(value(i).c_str());
    else if (arg.rfind("--inject-flow=", 0) == 0) {
      try {
        ft::FaultPlan::instance().arm_spec(arg.substr(14));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "gnnmls_stress: %s\n", e.what());
        return 2;
      }
      chaos_cli = true;
    } else if (arg == "--bench-out") bench_out = value(i);
    else if (arg == "--verbose") verbose = true;
    else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "gnnmls_stress: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (sessions < 1 || requests < 0) {
    usage(stderr);
    return 2;
  }
  util::set_log_level(verbose ? util::LogLevel::kInfo : util::LogLevel::kError);
  const bool chaos = ft::FaultPlan::init_from_env() || chaos_cli;

  flow::FlowConfig cfg;
  cfg.heterogeneous = true;
  cfg.run_pdn = false;  // the service exercises route/STA/power; PDN is per-run constant
  const netlist::Design base = make_design(design_name, 0);

  const auto t0 = std::chrono::steady_clock::now();
  svc::SessionManager mgr(netlist::Design(base), cfg, opts);

  // Fork the fleet. A chaos-armed svc.fork trips once; the retry must
  // succeed with no half-created session left behind.
  std::size_t fork_faults = 0;
  for (int s = 0; s < sessions; ++s) {
    const std::string name = "s" + std::to_string(s);
    try {
      mgr.fork_session(name);
    } catch (const ft::FlowError& e) {
      ++fork_faults;
      std::fprintf(stderr, "gnnmls_stress: fork %s faulted (%s), retrying\n", name.c_str(),
                   ft::to_string(e.code()));
      mgr.fork_session(name);
    }
  }

  // Seeded interleaved request stream: round-robin over sessions so their
  // executions genuinely overlap. Request 0 of every session is a flag flip
  // (distinct per-session state from the first move); poison requests target
  // --poison-session starting at round 1.
  std::uint64_t next_id = 1;
  for (int r = 0; r < requests; ++r) {
    for (int s = 0; s < sessions; ++s) {
      svc::Request req;
      req.id = next_id++;
      req.session = "s" + std::to_string(s);
      req.seed = mix(seed, static_cast<std::uint64_t>(s), static_cast<std::uint64_t>(r));
      req.opts.priority = s;  // deterministic spread for the shed path
      if (s == poison_session && r >= 1 && r <= poison_count) {
        req.op = svc::Op::kPoison;
      } else if (r == 0) {
        req.op = svc::Op::kFlagFlip;
      } else {
        const std::uint64_t dice = req.seed % 10;
        req.op = dice < 4   ? svc::Op::kFlagFlip
                 : dice < 7 ? svc::Op::kEco
                            : svc::Op::kEvaluate;
      }
      const svc::SubmitResult res = mgr.submit(req);
      if (!res.accepted && verbose)
        std::fprintf(stderr, "gnnmls_stress: request %llu -> %s (%s)\n",
                     static_cast<unsigned long long>(req.id), ft::to_string(res.error),
                     res.detail.c_str());
    }
  }

  mgr.drain();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const std::uint64_t tripped = ft::FaultPlan::instance().tripped();
  // Twins replay without the fault plan: every injected flow fault either
  // recovered bit-identically (ft contract) or is recorded in the journal
  // (svc.request), so the solo twin needs no faults of its own.
  ft::FaultPlan::instance().reset();

  std::size_t quarantined = 0;
  std::size_t contaminated = 0;
  std::size_t leaked = 0;
  for (int s = 0; s < sessions; ++s) {
    const std::string name = "s" + std::to_string(s);
    svc::Session& live = mgr.session(name);
    quarantined += live.quarantined() ? 1 : 0;
    leaked += live.leaked();

    svc::Session twin(name, mgr.base_design(), mgr.session_config(), mgr.warm_snapshot(),
                      mgr.options().quarantine_after);
    twin.replay(live.journal());
    leaked += twin.leaked();
    bool match = twin.fingerprint() == live.fingerprint();
    // Outcomes must replay too (retry counts may differ when a recovered
    // fault hit the live run — that is the recovery contract working).
    for (std::size_t i = 0; i < live.journal().size(); ++i)
      if (twin.journal()[i].outcome != live.journal()[i].outcome) match = false;
    if (!match) ++contaminated;
    std::printf("svc-session: name=%s state=%s executed=%zu failed=%zu fp=0x%016llx "
                "twin=0x%016llx match=%d\n",
                name.c_str(), live.quarantined() ? "quarantined" : "active", live.executed(),
                live.failures(), static_cast<unsigned long long>(live.fingerprint()),
                static_cast<unsigned long long>(twin.fingerprint()), match ? 1 : 0);
  }

  const std::uint64_t submitted = mgr.submitted();
  const std::uint64_t executed = mgr.executed();
  const std::uint64_t shed = mgr.shed();
  const std::uint64_t rejected = mgr.rejected();
  mgr.shutdown();

  std::printf("stress: sessions=%d submitted=%llu executed=%llu shed=%llu rejected=%llu "
              "quarantined=%zu fork_faults=%zu faults_injected=%llu contaminated=%zu "
              "leaked=%zu wall_s=%.3f\n",
              sessions, static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(executed), static_cast<unsigned long long>(shed),
              static_cast<unsigned long long>(rejected), quarantined, fork_faults,
              static_cast<unsigned long long>(tripped), contaminated, leaked, wall_s);

  if (!bench_out.empty()) {
    std::string json = "{\"benchmarks\":[{\"name\":\"SVC_Stress\"";
    json += ",\"run_type\":\"iteration\",\"iterations\":1";
    json += ",\"real_time\":" + util::json_num(wall_s);
    json += ",\"cpu_time\":" + util::json_num(wall_s);
    json += ",\"time_unit\":\"s\"";
    json += ",\"sessions\":" + util::json_num(sessions);
    json += ",\"sessions_per_s\":" + util::json_num(wall_s > 0.0 ? sessions / wall_s : 0.0);
    json += ",\"requests_per_s\":" +
            util::json_num(wall_s > 0.0 ? static_cast<double>(executed) / wall_s : 0.0);
    json += ",\"submitted\":" + util::json_num(static_cast<double>(submitted));
    json += ",\"executed\":" + util::json_num(static_cast<double>(executed));
    json += ",\"shed\":" + util::json_num(static_cast<double>(shed));
    json += ",\"rejected\":" + util::json_num(static_cast<double>(rejected));
    json += ",\"quarantined\":" + util::json_num(static_cast<double>(quarantined));
    json += ",\"contaminated\":" + util::json_num(static_cast<double>(contaminated));
    json += ",\"leaked\":" + util::json_num(static_cast<double>(leaked));
    json += "}]}";
    std::ofstream f(bench_out);
    f << json << "\n";
    if (!f) {
      std::fprintf(stderr, "gnnmls_stress: cannot write %s\n", bench_out.c_str());
      return 2;
    }
  }

  if (contaminated > 0) {
    std::fprintf(stderr, "gnnmls_stress: FAILED: %zu contaminated session(s)\n", contaminated);
    return 1;
  }
  if (leaked > 0) {
    std::fprintf(stderr, "gnnmls_stress: FAILED: %zu leaked rollback(s)\n", leaked);
    return 1;
  }
  if (chaos && tripped == 0) {
    std::fprintf(stderr, "gnnmls_stress: FAILED: chaos run tripped no fault\n");
    return 1;
  }
  return 0;
}
