// gnnmls_report: diff perf-ledger records / benchmark JSON and gate on
// regressions, replacing the ad-hoc python blocks in scripts/ci.sh.
//
//   gnnmls_report diff BASE [CUR] [--max-regress-pct N] [--abs-floor-ms M]
//                 [--report-only]
//       BASE/CUR are perf-ledger JSONL files (last record wins) or
//       google-benchmark JSON files (auto-detected; benchmark names become
//       stages). With one file, the last two records of that ledger are
//       compared. Exit 1 when any shared stage regressed by more than
//       --max-regress-pct percent (default 10) AND --abs-floor-ms (default
//       0.5 ms) — the floor keeps µs-scale stages from flagging on noise.
//
//   gnnmls_report ingest BENCH.json --ledger FILE [--label L]
//       Appends one "bench" ledger record built from the benchmark JSON.
//
//   gnnmls_report check-routing BENCH_routing.json
//   gnnmls_report check-ml BENCH_ml.json
//       The ML inference gate: batched decide >= 5x over the scalar stack
//       on a cold cache, warm decide no slower than cold, and >= 90% cache
//       hits on the warm re-decide.
//
//   gnnmls_report check-trace TRACE.json --require a,b,c
//       The Chrome-trace gate: traceEvents non-empty and every required
//       span name present.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/ledger.hpp"
#include "util/json.hpp"

namespace {

using gnnmls::obs::LedgerRecord;
using gnnmls::obs::StageRegression;
using gnnmls::util::Json;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

double time_unit_seconds(std::string_view unit) {
  if (unit == "ns") return 1e-9;
  if (unit == "us") return 1e-6;
  if (unit == "ms") return 1e-3;
  return 1.0;
}

// Benchmark JSON -> ledger record: each benchmark's real_time (in seconds)
// becomes a stage keyed by the benchmark name, so diff works uniformly.
bool bench_to_record(const Json& root, const std::string& label, LedgerRecord& out) {
  const Json* benches = root.find("benchmarks");
  if (!benches || benches->kind != Json::kArray) return false;
  out = LedgerRecord{};
  out.kind = "bench";
  out.label = label;
  const char* rev = std::getenv("GNNMLS_GIT_REV");  // NOLINT(concurrency-mt-unsafe)
  out.rev = (rev && *rev) ? rev : "unknown";
  for (const Json& b : benches->items) {
    if (b.kind != Json::kObject) continue;
    const std::string name(b.str_or("name", ""));
    if (name.empty() || b.find("real_time") == nullptr) continue;
    const double unit = time_unit_seconds(b.str_or("time_unit", "ns"));
    out.stages[name] = b.num_or("real_time", 0.0) * unit;
  }
  return !out.stages.empty();
}

// A file is either google-benchmark JSON (whole-file object with
// "benchmarks") or a perf-ledger JSONL; `which` picks the record for diff.
bool load_record(const std::string& path, int back_index, LedgerRecord& out) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "gnnmls_report: cannot read %s\n", path.c_str());
    return false;
  }
  Json root;
  if (gnnmls::util::parse_json(text, root) && root.kind == Json::kObject &&
      root.find("benchmarks") != nullptr)
    return bench_to_record(root, path, out);
  const std::vector<LedgerRecord> records = gnnmls::obs::read_jsonl(path);
  const std::size_t n = records.size();
  if (n <= static_cast<std::size_t>(back_index)) {
    std::fprintf(stderr, "gnnmls_report: %s has %zu parseable record(s), need %d\n",
                 path.c_str(), n, back_index + 1);
    return false;
  }
  out = records[n - 1 - static_cast<std::size_t>(back_index)];
  return true;
}

int cmd_diff(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  double max_pct = 10.0;
  double floor_ms = 0.5;
  bool report_only = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--max-regress-pct" && i + 1 < args.size())
      max_pct = std::atof(args[++i].c_str());
    else if (args[i] == "--abs-floor-ms" && i + 1 < args.size())
      floor_ms = std::atof(args[++i].c_str());
    else if (args[i] == "--report-only")
      report_only = true;
    else
      files.push_back(args[i]);
  }
  if (files.empty() || files.size() > 2) {
    std::fprintf(stderr, "usage: gnnmls_report diff BASE [CUR] [--max-regress-pct N]\n");
    return 2;
  }
  LedgerRecord base, cur;
  if (files.size() == 2) {
    if (!load_record(files[0], 0, base) || !load_record(files[1], 0, cur)) return 2;
  } else {
    if (!load_record(files[0], 1, base) || !load_record(files[0], 0, cur)) return 2;
  }
  std::printf("base: rev=%s utc=%s label=%s (%zu stages)\n", base.rev.c_str(), base.utc.c_str(),
              base.label.c_str(), base.stages.size());
  std::printf("cur:  rev=%s utc=%s label=%s (%zu stages)\n", cur.rev.c_str(), cur.utc.c_str(),
              cur.label.c_str(), cur.stages.size());
  std::size_t shared = 0;
  for (const auto& [stage, s] : base.stages)
    if (cur.stages.count(stage)) ++shared;
  const std::vector<StageRegression> regressions =
      gnnmls::obs::diff_stages(base, cur, max_pct, floor_ms * 1e-3);
  for (const StageRegression& r : regressions)
    std::printf("REGRESSION %-28s %.6f s -> %.6f s (%+.1f%% > %.1f%%)\n", r.stage.c_str(),
                r.base_s, r.cur_s, r.pct, max_pct);
  if (regressions.empty()) {
    std::printf("diff OK: %zu shared stage(s), none regressed > %.1f%%\n", shared, max_pct);
    return 0;
  }
  std::printf("diff: %zu of %zu shared stage(s) regressed > %.1f%%%s\n", regressions.size(),
              shared, max_pct, report_only ? " (report-only)" : "");
  return report_only ? 0 : 1;
}

int cmd_ingest(const std::vector<std::string>& args) {
  std::string bench_path, ledger_path, label;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--ledger" && i + 1 < args.size())
      ledger_path = args[++i];
    else if (args[i] == "--label" && i + 1 < args.size())
      label = args[++i];
    else
      bench_path = args[i];
  }
  if (bench_path.empty() || ledger_path.empty()) {
    std::fprintf(stderr, "usage: gnnmls_report ingest BENCH.json --ledger FILE [--label L]\n");
    return 2;
  }
  std::string text;
  Json root;
  if (!read_file(bench_path, text) || !gnnmls::util::parse_json(text, root)) {
    std::fprintf(stderr, "gnnmls_report: cannot parse %s\n", bench_path.c_str());
    return 2;
  }
  LedgerRecord rec;
  if (!bench_to_record(root, label.empty() ? bench_path : label, rec)) {
    std::fprintf(stderr, "gnnmls_report: %s has no benchmarks\n", bench_path.c_str());
    return 2;
  }
  // Stamp the record through make_record for the utc field, keeping the
  // bench stages (a bench process's obs counters are not the flow's).
  LedgerRecord stamped = gnnmls::obs::make_record("bench", rec.label);
  stamped.counters.clear();
  stamped.gauges.clear();
  stamped.hists.clear();
  stamped.stages = rec.stages;
  if (!gnnmls::obs::append_jsonl(ledger_path, stamped)) {
    std::fprintf(stderr, "gnnmls_report: cannot append to %s\n", ledger_path.c_str());
    return 2;
  }
  std::printf("ingested %zu benchmark(s) from %s into %s\n", stamped.stages.size(),
              bench_path.c_str(), ledger_path.c_str());
  return 0;
}

int cmd_check_routing(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: gnnmls_report check-routing BENCH_routing.json\n");
    return 2;
  }
  std::string text;
  Json root;
  if (!read_file(args[0], text) || !gnnmls::util::parse_json(text, root)) {
    std::fprintf(stderr, "gnnmls_report: cannot parse %s\n", args[0].c_str());
    return 2;
  }
  const Json* benches = root.find("benchmarks");
  if (!benches || benches->kind != Json::kArray) {
    std::fprintf(stderr, "gnnmls_report: %s has no benchmarks\n", args[0].c_str());
    return 2;
  }
  std::map<std::string, const Json*> rows;
  for (const Json& b : benches->items)
    if (b.kind == Json::kObject) rows[std::string(b.str_or("name", ""))] = &b;
  const Json* neg1 = rows.count("BM_RouteNegotiated/1") ? rows["BM_RouteNegotiated/1"] : nullptr;
  const Json* neg4 = rows.count("BM_RouteNegotiated/4") ? rows["BM_RouteNegotiated/4"] : nullptr;
  if (!neg1 || !neg4) {
    std::fprintf(stderr, "gnnmls_report: missing BM_RouteNegotiated/{1,4}\n");
    return 2;
  }
  // Determinism gate (unconditional): the routed result, and so its
  // overflow, may not depend on the thread count.
  const double n1_ovf = neg1->num_or("overflow", -1.0);
  const double n4_ovf = neg4->num_or("overflow", -1.0);
  if (n1_ovf != n4_ovf) {
    std::fprintf(stderr,
                 "routing gate FAILED: overflow differs across thread counts "
                 "(determinism bug): %.0f vs %.0f\n",
                 n1_ovf, n4_ovf);
    return 1;
  }
  // Throughput gate (multi-core hosts only): 4 worker threads must buy at
  // least 2x nets/s; single-core runners keep the numbers ledger-only.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    const double rate1 = neg1->num_or("nets/s", 0.0);
    const double rate4 = neg4->num_or("nets/s", 0.0);
    const double speedup = rate1 > 0.0 ? rate4 / rate1 : 0.0;
    if (speedup < 2.0) {
      std::fprintf(stderr, "routing gate FAILED: nets/s speedup at 4 threads only %.2fx (< 2x)\n",
                   speedup);
      return 1;
    }
    std::printf("routing perf gate OK: %.2fx at 4 threads, overflow %.0f at 1 and 4 threads\n",
                speedup, n4_ovf);
  } else {
    std::printf("routing perf gate OK (ledger-only on %u-core host): overflow %.0f at 1 and 4 "
                "threads\n",
                cores, n4_ovf);
  }
  return 0;
}

int cmd_check_ml(const std::vector<std::string>& args) {
  if (args.size() != 1) {
    std::fprintf(stderr, "usage: gnnmls_report check-ml BENCH_ml.json\n");
    return 2;
  }
  std::string text;
  Json root;
  if (!read_file(args[0], text) || !gnnmls::util::parse_json(text, root)) {
    std::fprintf(stderr, "gnnmls_report: cannot parse %s\n", args[0].c_str());
    return 2;
  }
  const Json* benches = root.find("benchmarks");
  if (!benches || benches->kind != Json::kArray) {
    std::fprintf(stderr, "gnnmls_report: %s has no benchmarks\n", args[0].c_str());
    return 2;
  }
  std::map<std::string, const Json*> rows;
  for (const Json& b : benches->items)
    if (b.kind == Json::kObject) rows[std::string(b.str_or("name", ""))] = &b;
  const Json* scalar = rows.count("BM_DecideStage") ? rows["BM_DecideStage"] : nullptr;
  const Json* batched = rows.count("BM_DecideStageBatched") ? rows["BM_DecideStageBatched"] : nullptr;
  const Json* cached = rows.count("BM_DecideStageCached") ? rows["BM_DecideStageCached"] : nullptr;
  if (!scalar || !batched || !cached) {
    std::fprintf(stderr,
                 "gnnmls_report: missing BM_DecideStage / BM_DecideStageBatched / "
                 "BM_DecideStageCached\n");
    return 2;
  }
  const double t_scalar = scalar->num_or("real_time", 0.0);
  const double t_batched = batched->num_or("real_time", 0.0);
  const double t_cached = cached->num_or("real_time", 0.0);
  // Acceptance gate: the batched SIMD engine must beat the scalar stack by
  // at least 5x on a cold cache, and a warm re-decide must not be slower
  // than cold (in practice it is near-no-op).
  const double speedup = t_batched > 0.0 ? t_scalar / t_batched : 0.0;
  if (speedup < 5.0) {
    std::fprintf(stderr, "ml gate FAILED: batched decide only %.2fx over scalar (< 5x)\n",
                 speedup);
    return 1;
  }
  if (t_cached > t_batched) {
    std::fprintf(stderr, "ml gate FAILED: warm decide (%.3g) slower than cold (%.3g)\n",
                 t_cached, t_batched);
    return 1;
  }
  const double hit_pct = cached->num_or("cache_hit_pct", -1.0);
  if (hit_pct < 90.0) {
    std::fprintf(stderr, "ml gate FAILED: warm decide cache hits %.1f%% (< 90%%)\n", hit_pct);
    return 1;
  }
  std::printf("ml perf gate OK: batched %.2fx over scalar, warm/cold %.2f, cache hits %.1f%%\n",
              speedup, t_batched > 0.0 ? t_cached / t_batched : 0.0, hit_pct);
  return 0;
}

int cmd_check_trace(const std::vector<std::string>& args) {
  std::string path;
  std::vector<std::string> required;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--require" && i + 1 < args.size()) {
      std::string list = args[++i];
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!name.empty()) required.push_back(name);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      path = args[i];
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: gnnmls_report check-trace TRACE.json --require a,b,c\n");
    return 2;
  }
  std::string text;
  Json root;
  if (!read_file(path, text) || !gnnmls::util::parse_json(text, root)) {
    std::fprintf(stderr, "gnnmls_report: cannot parse %s\n", path.c_str());
    return 2;
  }
  const Json* events = root.find("traceEvents");
  if (!events || events->kind != Json::kArray || events->items.empty()) {
    std::fprintf(stderr, "trace gate FAILED: %s has no traceEvents\n", path.c_str());
    return 1;
  }
  for (const std::string& want : required) {
    bool found = false;
    for (const Json& e : events->items)
      if (e.kind == Json::kObject && e.str_or("name", "") == want) {
        found = true;
        break;
      }
    if (!found) {
      std::fprintf(stderr, "trace gate FAILED: missing span '%s' in %s\n", want.c_str(),
                   path.c_str());
      return 1;
    }
  }
  std::printf("trace gate OK: %zu events, %zu required span(s) present\n", events->items.size(),
              required.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: gnnmls_report diff|ingest|check-routing|check-ml|check-trace ... "
                 "(see the header comment)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (cmd == "diff") return cmd_diff(args);
  if (cmd == "ingest") return cmd_ingest(args);
  if (cmd == "check-routing") return cmd_check_routing(args);
  if (cmd == "check-ml") return cmd_check_ml(args);
  if (cmd == "check-trace") return cmd_check_trace(args);
  std::fprintf(stderr, "gnnmls_report: unknown command '%s'\n", cmd.c_str());
  return 2;
}
