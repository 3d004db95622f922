#include "flow/pass.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace gnnmls::flow {

namespace {

bool intersects(const std::vector<core::Stage>& a, const std::vector<core::Stage>& b) {
  return std::any_of(a.begin(), a.end(), [&b](core::Stage s) {
    return std::find(b.begin(), b.end(), s) != b.end();
  });
}

}  // namespace

Pass::~Pass() = default;

bool Pass::needs_run(const core::DesignDB& db) const {
  const std::vector<core::Stage> w = writes();
  if (w.empty()) return true;  // manager's fingerprint ledger decides
  for (const core::Stage s : w)
    if (!db.fresh(s)) return true;
  return false;
}

Contract contract_of(const Pass& pass) { return Contract{pass.reads(), pass.writes()}; }

bool conflicts(const Contract& earlier, const Contract& later) {
  return intersects(earlier.writes, later.reads) ||  // read-after-write
         intersects(earlier.reads, later.writes) ||  // write-after-read
         intersects(earlier.writes, later.writes);   // write-after-write
}

std::vector<std::size_t> next_wave(const std::vector<Contract>& pipeline,
                                   const std::vector<char>& wants) {
  std::vector<std::size_t> wave;
  for (std::size_t i = 0; i < pipeline.size(); ++i) {
    if (!wants[i]) continue;
    bool blocked = false;
    for (std::size_t j = 0; j < i && !blocked; ++j)
      blocked = wants[j] && conflicts(pipeline[j], pipeline[i]);
    if (!blocked) wave.push_back(i);
  }
  return wave;
}

std::vector<Pass*> select_passes(std::span<Pass* const> passes,
                                 const std::vector<std::string>& names) {
  for (const std::string& name : names)
    if (std::none_of(passes.begin(), passes.end(),
                     [&name](const Pass* p) { return name == p->name(); }))
      throw std::invalid_argument("unknown flow pass: " + name);
  std::vector<Pass*> out;
  std::copy_if(passes.begin(), passes.end(), std::back_inserter(out), [&names](const Pass* p) {
    return std::find(names.begin(), names.end(), p->name()) != names.end();
  });
  return out;
}

}  // namespace gnnmls::flow
