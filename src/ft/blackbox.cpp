#include "ft/blackbox.hpp"

#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace gnnmls::ft {

std::string black_box_json(const std::vector<FlowError>& failures, std::size_t wave,
                           std::size_t attempt, const std::string& note,
                           std::size_t max_events) {
  std::string out = "{\"schema\":1";
  out += ",\"wave\":" + util::json_num(static_cast<double>(wave));
  out += ",\"attempt\":" + util::json_num(static_cast<double>(attempt));
  out += ",\"note\":" + util::json_quote(note);
  out += ",\"failures\":[";
  bool first = true;
  for (const FlowError& e : failures) {
    if (!first) out += ',';
    first = false;
    out += "{\"pass\":" + util::json_quote(e.pass());
    out += ",\"code\":" + util::json_quote(to_string(e.code()));
    out += ",\"stage\":" + util::json_quote(e.stage());
    out += ",\"db_revision\":" + util::json_num(static_cast<double>(e.db_revision()));
    out += std::string(",\"retryable\":") + (e.retryable() ? "true" : "false");
    out += ",\"what\":" + util::json_quote(e.what()) + "}";
  }
  out += "],\"events\":" + obs::FlightRecorder::instance().events_json(max_events) + "}";
  return out;
}

std::string dump_black_box(const std::vector<FlowError>& failures, std::size_t wave,
                           std::size_t attempt, const std::string& note) {
  const char* env = std::getenv("GNNMLS_FLIGHT_OUT");  // NOLINT(concurrency-mt-unsafe)
  std::string path = env ? env : "flight_recorder.json";
  if (path.empty() || path == "off") return "";
  const std::string json = black_box_json(failures, wave, attempt, note);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    util::log_error("ft: cannot write flight-recorder dump to ", path);
    return "";
  }
  const std::size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (wrote != json.size()) return "";
  static obs::Counter& dumps = obs::Metrics::instance().counter("ft.blackbox_dumps");
  dumps.add();
  return path;
}

}  // namespace gnnmls::ft
