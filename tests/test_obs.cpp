// Observability subsystem tests: span nesting/aggregation, counter and gauge
// snapshot/reset semantics, Chrome trace-event JSON validity (parsed back by
// a minimal JSON reader), and the flow-level contract that FlowMetrics'
// span-derived stage breakdown sums to runtime_s.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ft/blackbox.hpp"
#include "mls/flow.hpp"
#include "mls/gnnmls.hpp"
#include "netlist/generators.hpp"
#include "obs/histogram.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace gnnmls;

// ---- minimal JSON reader ----------------------------------------------------
// Just enough recursive descent to round-trip the tracer's output: objects,
// arrays, strings (with escapes), numbers, true/false/null. Parse failures
// surface as ok=false rather than exceptions so EXPECT output stays readable.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> items;                              // kArray
  std::vector<std::pair<std::string, JsonValue>> members;    // kObject
  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}
  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out.kind = JsonValue::kString;
      return string(out.str);
    }
    if (c == 't') { out.kind = JsonValue::kBool; out.b = true; return literal("true"); }
    if (c == 'f') { out.kind = JsonValue::kBool; out.b = false; return literal("false"); }
    if (c == 'n') { out.kind = JsonValue::kNull; return literal("null"); }
    return number(out);
  }
  bool string(std::string& out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out.clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;  // decoded value not needed for these tests
            c = '?';
            break;
          }
          default: return false;
        }
      }
      out += c;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E' || s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    out.kind = JsonValue::kNumber;
    out.num = std::stod(std::string(s_.substr(start, pos_ - start)));
    return true;
  }
  bool array(JsonValue& out) {
    out.kind = JsonValue::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') { ++pos_; return true; }
    while (true) {
      JsonValue item;
      if (!value(item)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool object(JsonValue& out) {
    out.kind = JsonValue::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue val;
      if (!value(val)) return false;
      out.members.emplace_back(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') { ++pos_; continue; }
      if (s_[pos_] == '}') { ++pos_; return true; }
      return false;
    }
  }
  std::string_view s_;
  std::size_t pos_ = 0;
};

void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const obs::SpanStat* find_stat(const std::vector<obs::SpanStat>& stats,
                               const std::string& name) {
  for (const obs::SpanStat& s : stats)
    if (s.name == name) return &s;
  return nullptr;
}

// ---- span tree --------------------------------------------------------------

TEST(Tracer, NestingAndAggregation) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    obs::Span outer("outer");
    spin_for_us(200);
    {
      obs::Span inner("inner");
      spin_for_us(100);
    }
  }
  tracer.set_enabled(false);

  const std::vector<obs::SpanStat> stats = tracer.snapshot();
  const obs::SpanStat* outer = find_stat(stats, "outer");
  const obs::SpanStat* inner = find_stat(stats, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 3u);
  EXPECT_EQ(inner->count, 3u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->parent, -1);
  // inner's parent index must point at outer's entry in the snapshot.
  const auto outer_idx = static_cast<int>(outer - stats.data());
  EXPECT_EQ(inner->parent, outer_idx);
  // Totals: outer covers inner, self excludes it.
  EXPECT_GE(outer->total_s, inner->total_s);
  EXPECT_NEAR(outer->self_s, outer->total_s - inner->total_s, 1e-9);
  EXPECT_GE(inner->total_s, 3 * 100e-6 * 0.5);  // generous slack for CI jitter
  EXPECT_DOUBLE_EQ(tracer.total_seconds("inner"), inner->total_s);

  const std::string table = tracer.profile_table();
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("inner"), std::string::npos);
}

TEST(Tracer, SameNameDifferentParentIsTwoNodes) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(true);
  {
    obs::Span a("a");
    obs::Span shared("shared");
  }
  {
    obs::Span b("b");
    obs::Span shared("shared");
  }
  tracer.set_enabled(false);
  const std::vector<obs::SpanStat> stats = tracer.snapshot();
  int shared_nodes = 0;
  for (const obs::SpanStat& s : stats)
    if (s.name == "shared") ++shared_nodes;
  EXPECT_EQ(shared_nodes, 2);
  // total_seconds sums both call paths.
  double sum = 0.0;
  for (const obs::SpanStat& s : stats)
    if (s.name == "shared") sum += s.total_s;
  EXPECT_DOUBLE_EQ(tracer.total_seconds("shared"), sum);
}

TEST(Tracer, DisabledSpansRecordNothingButStillTime) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(false);
  obs::Span s("invisible");
  spin_for_us(100);
  s.end();
  EXPECT_GT(s.seconds(), 0.0);
  EXPECT_DOUBLE_EQ(s.seconds(), s.seconds());  // final value is stable
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(Tracer, ResetDiscardsOpenSpans) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(true);
  {
    obs::Span open("stale");
    tracer.reset();  // epoch bump: the open span must not corrupt the new tree
    {
      obs::Span fresh("fresh");
      spin_for_us(50);
    }
  }  // "stale" closes after the reset; it must be ignored
  tracer.set_enabled(false);
  const std::vector<obs::SpanStat> stats = tracer.snapshot();
  EXPECT_EQ(find_stat(stats, "stale"), nullptr);
  const obs::SpanStat* fresh = find_stat(stats, "fresh");
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->depth, 0);     // parent was discarded, so it is a root
  EXPECT_EQ(fresh->count, 1u);    // the stale close must not alias onto it
}

// ---- Chrome trace export ----------------------------------------------------

TEST(Tracer, ChromeTraceJsonRoundTrips) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(true);
  {
    obs::Span outer("phase \"quoted\\slash\"");  // escaping must survive
    obs::Span inner("phase.inner");
    spin_for_us(50);
  }
  tracer.set_enabled(false);

  const std::string json = tracer.chrome_trace_json();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);
  ASSERT_EQ(events->items.size(), 2u);
  bool saw_escaped = false;
  for (const JsonValue& ev : events->items) {
    ASSERT_EQ(ev.kind, JsonValue::kObject);
    const JsonValue* name = ev.find("name");
    const JsonValue* ph = ev.find("ph");
    const JsonValue* ts = ev.find("ts");
    const JsonValue* dur = ev.find("dur");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    EXPECT_EQ(ph->str, "X");
    EXPECT_GE(ts->num, 0.0);
    EXPECT_GE(dur->num, 0.0);
    if (name->str == "phase \"quoted\\slash\"") saw_escaped = true;
  }
  EXPECT_TRUE(saw_escaped);
  EXPECT_EQ(tracer.dropped_events(), 0u);
}

// ---- metrics ----------------------------------------------------------------

TEST(Metrics, CounterAndGaugeSnapshotReset) {
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  obs::Counter& c = metrics.counter("test.counter");
  obs::Gauge& g = metrics.gauge("test.gauge");
  c.add(3);
  c.add();
  g.set(2.5);
  EXPECT_EQ(c.value(), 4u);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  const std::vector<obs::MetricSample> snap = metrics.snapshot();
  const auto find = [&](const std::string& name) -> const obs::MetricSample* {
    for (const obs::MetricSample& s : snap)
      if (s.name == name) return &s;
    return nullptr;
  };
  const obs::MetricSample* cs = find("test.counter");
  const obs::MetricSample* gs = find("test.gauge");
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(gs, nullptr);
  EXPECT_TRUE(cs->is_counter);
  EXPECT_FALSE(gs->is_counter);
  EXPECT_DOUBLE_EQ(cs->value, 4.0);
  EXPECT_DOUBLE_EQ(gs->value, 2.5);
  EXPECT_TRUE(std::is_sorted(snap.begin(), snap.end(),
                             [](const auto& a, const auto& b) { return a.name < b.name; }));

  // Reset zeroes values but keeps handles live.
  metrics.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  c.add(7);
  EXPECT_EQ(metrics.counter("test.counter").value(), 7u);

  // Same-name lookups return the same object; kind mismatch throws.
  EXPECT_EQ(&metrics.counter("test.counter"), &c);
  EXPECT_THROW(metrics.gauge("test.counter"), std::logic_error);
  EXPECT_THROW(metrics.counter("test.gauge"), std::logic_error);

  const std::string table = metrics.table();
  EXPECT_NE(table.find("test.counter"), std::string::npos);
}

TEST(Metrics, CountersAreThreadSafe) {
  obs::Metrics& metrics = obs::Metrics::instance();
  obs::Counter& c = metrics.counter("test.mt_counter");
  c.reset();
  constexpr int kThreads = 4, kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

// ---- log level --------------------------------------------------------------

TEST(Log, ParseLogLevel) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug", LogLevel::kInfo), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("INFO", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("Warn", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("warning", LogLevel::kInfo), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error", LogLevel::kInfo), LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("none", LogLevel::kInfo), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("bogus", LogLevel::kWarn), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("", LogLevel::kError), LogLevel::kError);
}

// ---- flow-level stage accounting --------------------------------------------

class FlowStages : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::set_log_level(util::LogLevel::kWarn);
    mls::FlowConfig cfg;
    cfg.heterogeneous = true;
    cfg.run_pdn = false;  // keep the suite fast; pdn_s is exercised in lint/CI
    flow_ = new mls::DesignFlow(netlist::make_maeri_16pe(), cfg);
  }
  static void TearDownTestSuite() {
    delete flow_;
    flow_ = nullptr;
  }
  static mls::DesignFlow* flow_;
};

mls::DesignFlow* FlowStages::flow_ = nullptr;

// |stage_sum - runtime| <= max(5% of runtime, 2ms): the 5% covers between-
// stage glue (metric assembly, logging); the absolute floor keeps the check
// meaningful when the whole flow takes a few milliseconds.
void expect_stages_cover_runtime(const mls::FlowMetrics& m) {
  const double tol = std::max(0.05 * m.runtime_s, 0.002);
  EXPECT_NEAR(m.stage_sum_s(), m.runtime_s, tol)
      << "route=" << m.route_s << " sta=" << m.sta_s << " power=" << m.power_s
      << " pdn=" << m.pdn_s << " check=" << m.check_s << " decide=" << m.decide_s
      << " dft=" << m.dft_s;
  EXPECT_LE(m.stage_sum_s(), m.runtime_s + tol);
}

TEST_F(FlowStages, EvaluateStageBreakdownSumsToRuntime) {
  obs::Tracer::instance().reset();
  obs::Tracer::instance().set_enabled(true);
  const mls::FlowMetrics m = flow_->evaluate_no_mls();
  obs::Tracer::instance().set_enabled(false);

  EXPECT_GT(m.runtime_s, 0.0);
  EXPECT_GT(m.route_s, 0.0);
  EXPECT_GT(m.sta_s, 0.0);
  EXPECT_GT(m.power_s, 0.0);
  EXPECT_DOUBLE_EQ(m.pdn_s, 0.0);   // run_pdn = false
  EXPECT_DOUBLE_EQ(m.dft_s, 0.0);   // plain evaluate
  expect_stages_cover_runtime(m);

  // The traced run aggregated the flow's spans under flow.evaluate.
  const std::vector<obs::SpanStat> stats = obs::Tracer::instance().snapshot();
  const obs::SpanStat* root = find_stat(stats, "flow.evaluate");
  ASSERT_NE(root, nullptr);
  EXPECT_NE(find_stat(stats, "flow.route"), nullptr);
  EXPECT_NE(find_stat(stats, "flow.sta"), nullptr);
  EXPECT_NEAR(root->total_s, m.runtime_s, std::max(0.05 * m.runtime_s, 0.002));

  // The flag-flip edit of perfbench's eco_session workload: a seeded decision
  // vector with about 6% of the nets flagged replaces the current one, and
  // the re-evaluate re-routes and re-times on the warm flow.
  util::Rng rng(0xF11Bu);
  std::vector<std::uint8_t> flags(flow_->design().nl.num_nets(), 0);
  for (std::uint8_t& f : flags) f = (rng.next_u64() & 0xF) == 0 ? 1 : 0;
  const mls::FlowMetrics flip = flow_->evaluate(flags, mls::Strategy::kSota);
  EXPECT_TRUE(flow_->last_run_report().ran("route"));
  EXPECT_GT(flip.mls_nets, 0u);
  expect_stages_cover_runtime(flip);
}

TEST_F(FlowStages, EvaluateWithDftStageBreakdown) {
  const mls::DesignFlow::DftMetrics dm =
      flow_->evaluate_with_dft({}, mls::Strategy::kNone, dft::MlsDftStyle::kWireBased);
  const mls::FlowMetrics& m = dm.flow;
  EXPECT_GT(m.dft_s, 0.0);  // insertion is on the clock
  EXPECT_GT(m.route_s, 0.0);
  EXPECT_GT(m.sta_s, 0.0);
  expect_stages_cover_runtime(m);
}

// One engine pretrain is one ml.dgi.pretrain node (the scaler fit plus the
// DGI epochs), so trace totals count pretraining once; its epochs are its
// children.
TEST_F(FlowStages, PretrainIsOneSpanOverItsEpochs) {
  flow_->evaluate_no_mls();
  mls::CorpusOptions options;
  options.max_paths = 40;
  const mls::Corpus corpus = flow_->corpus(options);
  ASSERT_FALSE(corpus.graphs.empty());
  mls::GnnMlsConfig cfg;
  cfg.dgi.epochs = 2;
  mls::GnnMlsEngine engine(cfg);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.reset();
  tracer.set_enabled(true);
  engine.pretrain(corpus.graphs);
  tracer.set_enabled(false);

  const std::vector<obs::SpanStat> stats = tracer.snapshot();
  int pretrain_nodes = 0, pretrain_idx = -1;
  for (std::size_t i = 0; i < stats.size(); ++i)
    if (stats[i].name == "ml.dgi.pretrain") {
      ++pretrain_nodes;
      pretrain_idx = static_cast<int>(i);
    }
  ASSERT_EQ(pretrain_nodes, 1);
  const obs::SpanStat& pretrain = stats[static_cast<std::size_t>(pretrain_idx)];
  EXPECT_EQ(pretrain.count, 1u);
  double epochs_s = 0.0;
  std::uint64_t epochs = 0;
  for (const obs::SpanStat& s : stats)
    if (s.name == "ml.dgi.epoch") {
      EXPECT_EQ(s.parent, pretrain_idx);
      epochs_s += s.total_s;
      epochs += s.count;
    }
  EXPECT_EQ(epochs, 2u);
  EXPECT_GE(pretrain.total_s, epochs_s);
  EXPECT_DOUBLE_EQ(tracer.total_seconds("ml.dgi.pretrain"), pretrain.total_s);
}

// ---- histograms -------------------------------------------------------------

TEST(Histogram, BucketIndexCoversTheValueAndIsMonotonic) {
  // Underflow bucket: zero, negatives, NaN, and anything below 2^kMinExp.
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(-3.5), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1e-12), 0u);
  // Overflow bucket: +inf and anything at/above 2^kMaxExp.
  EXPECT_EQ(obs::Histogram::bucket_of(std::numeric_limits<double>::infinity()),
            obs::Histogram::kNumBuckets - 1);
  EXPECT_EQ(obs::Histogram::bucket_of(1e12), obs::Histogram::kNumBuckets - 1);
  // In-range values land in a bucket whose edges bracket them, and the
  // bucket index is monotone in the value.
  std::size_t prev = 0;
  for (double v = 1e-8; v < 1e10; v *= 1.7) {
    const std::size_t b = obs::Histogram::bucket_of(v);
    ASSERT_GT(b, 0u);
    ASSERT_LT(b, obs::Histogram::kNumBuckets - 1);
    EXPECT_LE(obs::Histogram::bucket_lower(b), v);
    EXPECT_GT(obs::Histogram::bucket_lower(b + 1), v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  obs::Histogram h;
  // 90 observations at 1.0 and 10 at 100.0: p50 sits in 1.0's bucket, p99 in
  // 100.0's. Bucket resolution bounds the reconstruction error at 25%
  // (4 sub-buckets per octave).
  for (int i = 0; i < 90; ++i) h.observe(1.0);
  for (int i = 0; i < 10; ++i) h.observe(100.0);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 90.0 + 1000.0);
  EXPECT_DOUBLE_EQ(s.mean(), 10.9);
  EXPECT_NEAR(s.p50, 1.0, 0.25);
  EXPECT_NEAR(s.p99, 100.0, 25.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);

  h.reset();
  const obs::HistogramSnapshot z = h.snapshot();
  EXPECT_EQ(z.count, 0u);
  EXPECT_DOUBLE_EQ(z.sum, 0.0);
  EXPECT_DOUBLE_EQ(z.p99, 0.0);
}

TEST(Histogram, ConcurrentObserversHammer) {
  obs::Histogram h;
  constexpr int kThreads = 4, kObs = 100000;
  std::vector<std::thread> threads;
  std::atomic<bool> stop{false};
  // A reader snapshots concurrently; it must never crash or see count/sum go
  // backwards past the final quiesced totals.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::HistogramSnapshot s = h.snapshot();
      ASSERT_LE(s.count, static_cast<std::uint64_t>(kThreads) * kObs);
    }
  });
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kObs; ++i) h.observe(1.0e-3);
    });
  for (std::thread& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kObs);
  EXPECT_NEAR(s.sum, kThreads * kObs * 1.0e-3, 1e-6);
  EXPECT_NEAR(s.p50, 1.0e-3, 0.25e-3);
}

TEST(Metrics, HistogramRegistryKindCollisionAndTable) {
  obs::Metrics& metrics = obs::Metrics::instance();
  obs::Histogram& h = metrics.histogram("test.hist");
  h.reset();
  h.observe(2.0);
  EXPECT_EQ(&metrics.histogram("test.hist"), &h);
  EXPECT_THROW(metrics.counter("test.hist"), std::logic_error);
  EXPECT_THROW(metrics.gauge("test.hist"), std::logic_error);
  metrics.counter("test.hist_collision_counter");
  EXPECT_THROW(metrics.histogram("test.hist_collision_counter"), std::logic_error);

  bool found = false;
  for (const auto& [name, snap] : metrics.histogram_snapshot())
    if (name == "test.hist") {
      found = true;
      EXPECT_EQ(snap.count, 1u);
    }
  EXPECT_TRUE(found);
  EXPECT_NE(metrics.table().find("test.hist"), std::string::npos);
}

TEST(Metrics, ToJsonParsesBack) {
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  metrics.counter("test.json_counter").add(42);
  metrics.gauge("test.json_gauge").set(1.5);
  obs::Histogram& h = metrics.histogram("test.json_hist");
  for (int i = 0; i < 8; ++i) h.observe(4.0);

  JsonValue root;
  ASSERT_TRUE(JsonParser(metrics.to_json()).parse(root)) << metrics.to_json();
  const JsonValue* counters = root.find("counters");
  const JsonValue* gauges = root.find("gauges");
  const JsonValue* hists = root.find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(hists, nullptr);
  const JsonValue* c = counters->find("test.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->num, 42.0);
  const JsonValue* g = gauges->find("test.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->num, 1.5);
  const JsonValue* hv = hists->find("test.json_hist");
  ASSERT_NE(hv, nullptr);
  ASSERT_EQ(hv->kind, JsonValue::kObject);
  EXPECT_DOUBLE_EQ(hv->find("count")->num, 8.0);
  EXPECT_NEAR(hv->find("p50")->num, 4.0, 1.0);
}

// ---- flight recorder --------------------------------------------------------

TEST(FlightRecorder, RecordDrainOrderPayloadAndTruncation) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.reset();
  rec.record(obs::EventKind::kPassBegin, "route", 3, 1);
  rec.record(obs::EventKind::kCommit, "routes", 17);
  const std::string long_what(200, 'x');
  rec.record(obs::EventKind::kMark, long_what);
  EXPECT_EQ(rec.recorded(), 3u);

  const std::vector<obs::FlightEvent> events = rec.drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ordinal, 1u);
  EXPECT_EQ(events[0].kind, obs::EventKind::kPassBegin);
  EXPECT_EQ(events[0].what, "route");
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 1u);
  EXPECT_EQ(events[1].kind, obs::EventKind::kCommit);
  EXPECT_EQ(events[1].a, 17u);
  EXPECT_EQ(events[2].what, long_what.substr(0, obs::FlightRecorder::kWhatBytes));
  EXPECT_TRUE(std::is_sorted(events.begin(), events.end(),
                             [](const auto& x, const auto& y) { return x.ordinal < y.ordinal; }));
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
}

TEST(FlightRecorder, RingKeepsOnlyTheLastEventsPerThread) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.reset();
  constexpr std::uint64_t kTotal = obs::FlightRecorder::kRingEvents + 50;
  for (std::uint64_t i = 1; i <= kTotal; ++i) rec.record(obs::EventKind::kMark, "m", i);
  EXPECT_EQ(rec.recorded(), kTotal);
  const std::vector<obs::FlightEvent> events = rec.drain();
  ASSERT_EQ(events.size(), obs::FlightRecorder::kRingEvents);
  EXPECT_EQ(events.front().ordinal, kTotal - obs::FlightRecorder::kRingEvents + 1);
  EXPECT_EQ(events.back().ordinal, kTotal);
  EXPECT_EQ(events.back().a, kTotal);
}

TEST(FlightRecorder, EventsJsonParses) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.reset();
  rec.record(obs::EventKind::kDegrade, "decide.\"sota\"", 7);  // escaping must survive
  rec.record(obs::EventKind::kRetry, "route", 1, 2);
  JsonValue root;
  ASSERT_TRUE(JsonParser(rec.events_json()).parse(root)) << rec.events_json();
  ASSERT_EQ(root.kind, JsonValue::kArray);
  ASSERT_EQ(root.items.size(), 2u);
  EXPECT_EQ(root.items[0].find("kind")->str, "degrade");
  EXPECT_EQ(root.items[0].find("what")->str, "decide.\"sota\"");
  EXPECT_DOUBLE_EQ(root.items[1].find("a")->num, 1.0);
  // max_events keeps only the tail.
  JsonValue tail;
  ASSERT_TRUE(JsonParser(rec.events_json(1)).parse(tail));
  ASSERT_EQ(tail.items.size(), 1u);
  EXPECT_EQ(tail.items[0].find("kind")->str, "retry");
}

TEST(FlightRecorder, ConcurrentWritersAndDrainHammer) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.reset();
  constexpr int kThreads = 4, kEvents = 10000;
  std::atomic<bool> stop{false};
  // Concurrent drains must never crash, tear an event (invalid kind), or
  // report an ordinal above the record() high-water mark.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::FlightEvent& e : rec.drain()) {
        ASSERT_LE(static_cast<int>(e.kind), static_cast<int>(obs::EventKind::kFaultTrip));
        ASSERT_LE(e.ordinal, rec.recorded());
      }
    }
  });
  // Writers stay alive until everyone has finished recording: a thread that
  // exits releases its ring for reuse (by design), and a recycled ring would
  // overwrite another writer's events and break the per-thread count below.
  std::atomic<int> writing{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&rec, &writing, t] {
      for (int i = 0; i < kEvents; ++i)
        rec.record(obs::EventKind::kMark, "hammer", static_cast<std::uint64_t>(t),
                   static_cast<std::uint64_t>(i));
      writing.fetch_sub(1, std::memory_order_acq_rel);
      while (writing.load(std::memory_order_acquire) > 0) std::this_thread::yield();
    });
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(kThreads) * kEvents);
  // Quiesced: every surviving slot is intact, ordinals are unique, and each
  // writer thread's ring retains exactly its last kRingEvents events.
  const std::vector<obs::FlightEvent> events = rec.drain();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * obs::FlightRecorder::kRingEvents);
  std::vector<std::uint64_t> ordinals;
  for (const obs::FlightEvent& e : events) {
    ordinals.push_back(e.ordinal);
    EXPECT_EQ(e.what, "hammer");
  }
  std::sort(ordinals.begin(), ordinals.end());
  EXPECT_EQ(std::adjacent_find(ordinals.begin(), ordinals.end()), ordinals.end());
}

// ---- perf ledger ------------------------------------------------------------

TEST(Ledger, RecordRoundTripsThroughJson) {
  obs::LedgerRecord rec;
  rec.kind = "flow";
  rec.rev = "abc123";
  rec.utc = "2026-08-08T00:00:00Z";
  rec.label = "maeri16/sota+dft";
  rec.stages["route"] = 0.125;
  rec.stages["sta"] = 0.0625;
  rec.counters["route.nets_routed"] = 420;
  rec.gauges["route.overflow"] = 0;
  rec.hists["route.edge_route_s"] = {100, 2e-4, 1e-6, 2e-6, 5e-6};
  rec.fingerprint = "0x00000000deadbeef";

  obs::LedgerRecord back;
  ASSERT_TRUE(obs::parse_record(obs::to_json(rec), back)) << obs::to_json(rec);
  EXPECT_EQ(back.schema, 1);
  EXPECT_EQ(back.kind, "flow");
  EXPECT_EQ(back.rev, "abc123");
  EXPECT_EQ(back.label, "maeri16/sota+dft");
  EXPECT_DOUBLE_EQ(back.stages.at("route"), 0.125);
  EXPECT_DOUBLE_EQ(back.counters.at("route.nets_routed"), 420.0);
  EXPECT_DOUBLE_EQ(back.hists.at("route.edge_route_s").p99, 5e-6);
  EXPECT_EQ(back.fingerprint, "0x00000000deadbeef");

  // Unknown future schemas are rejected, not misread.
  std::string future = obs::to_json(rec);
  const std::size_t pos = future.find("\"schema\":1");
  ASSERT_NE(pos, std::string::npos);
  future.replace(pos, 10, "\"schema\":9");
  EXPECT_FALSE(obs::parse_record(future, back));
  EXPECT_FALSE(obs::parse_record("not json", back));
}

TEST(Ledger, AppendAndReadJsonlSkipsBadLines) {
  const std::string path = ::testing::TempDir() + "/gnnmls_ledger_test.jsonl";
  std::remove(path.c_str());
  obs::LedgerRecord a = obs::make_record("flow", "first");
  a.stages["route"] = 1.0;
  obs::LedgerRecord b = obs::make_record("flow", "second");
  b.stages["route"] = 2.0;
  ASSERT_TRUE(obs::append_jsonl(path, a));
  {
    std::ofstream f(path, std::ios::app);
    f << "this line is garbage\n";
  }
  ASSERT_TRUE(obs::append_jsonl(path, b));
  const std::vector<obs::LedgerRecord> records = obs::read_jsonl(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].label, "first");
  EXPECT_EQ(records[1].label, "second");
  EXPECT_FALSE(records[0].utc.empty());
  EXPECT_DOUBLE_EQ(records[1].stages.at("route"), 2.0);
  std::remove(path.c_str());
}

TEST(Ledger, DiffStagesFlagsOnlyRealRegressions) {
  obs::LedgerRecord base, cur;
  base.stages["route"] = 1.0;
  cur.stages["route"] = 1.25;  // +25%: flagged
  base.stages["sta"] = 1.0;
  cur.stages["sta"] = 1.05;  // +5%: under the pct threshold
  base.stages["decide"] = 0.0001;
  cur.stages["decide"] = 0.0002;  // +100% but under the absolute floor
  base.stages["gone"] = 1.0;      // only in base: ignored
  cur.stages["new"] = 1.0;        // only in cur: ignored
  base.stages["check"] = 2.0;
  cur.stages["check"] = 3.0;  // +50%: flagged, and worse than route

  const std::vector<obs::StageRegression> out = obs::diff_stages(base, cur, 10.0, 0.01);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].stage, "check");  // sorted worst-first
  EXPECT_NEAR(out[0].pct, 50.0, 1e-9);
  EXPECT_EQ(out[1].stage, "route");
  EXPECT_NEAR(out[1].pct, 25.0, 1e-9);
  EXPECT_TRUE(obs::diff_stages(base, base, 10.0, 0.01).empty());
}

// ---- black-box dumps --------------------------------------------------------

TEST(BlackBox, JsonCarriesFailureContextAndRecorderTail) {
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  rec.reset();
  rec.record(obs::EventKind::kPassBegin, "route", 2, 1);
  rec.record(obs::EventKind::kPassFail, "route", 2, 3);
  const ft::FlowError err(ft::ErrorCode::kInjectedFault, "route", "routes", 41, true,
                          "injected \"fault\"");
  const std::string json = ft::black_box_json({err}, 2, 1, "wave failed");

  JsonValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << json;
  EXPECT_DOUBLE_EQ(root.find("schema")->num, 1.0);
  EXPECT_DOUBLE_EQ(root.find("wave")->num, 2.0);
  EXPECT_EQ(root.find("note")->str, "wave failed");
  const JsonValue* failures = root.find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->items.size(), 1u);
  EXPECT_EQ(failures->items[0].find("pass")->str, "route");
  EXPECT_EQ(failures->items[0].find("stage")->str, "routes");
  EXPECT_DOUBLE_EQ(failures->items[0].find("db_revision")->num, 41.0);
  EXPECT_EQ(failures->items[0].find("retryable")->kind, JsonValue::kBool);
  const JsonValue* events = root.find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 2u);
  EXPECT_EQ(events->items[1].find("kind")->str, "pass_fail");
}

TEST_F(FlowStages, FlowPopulatesMetricsRegistry) {
  obs::Metrics& metrics = obs::Metrics::instance();
  metrics.reset();
  // Force the route pass (and everything downstream) to actually execute:
  // on an unmutated DB the scheduler would skip every pass and the counters
  // would stay at zero.
  flow_->db().invalidate(core::Stage::kRoutes);
  flow_->evaluate_no_mls();
  EXPECT_GT(metrics.counter("route.nets_routed").value(), 0u);
  EXPECT_GT(metrics.counter("route.edges_routed").value(), 0u);
  EXPECT_GT(metrics.counter("sta.full_runs").value(), 0u);
  EXPECT_GT(metrics.counter("sta.pin_evals").value(), 0u);
}

}  // namespace
