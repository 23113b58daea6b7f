#include "bench.h"

#include <unordered_set>

namespace bench {

void Metrics::add(const std::string& name, double value,
                  const std::string& unit) {
  if (find(name) != nullptr)
    throw std::logic_error("metric " + name + " added twice");
  items_.push_back({name, value, unit});
}

const Metric* Metrics::find(const std::string& name) const {
  for (const auto& m : items_)
    if (m.name == name) return &m;
  return nullptr;
}

bool Checker::value(const std::string& key, const std::string& token) {
  if (write_) {
    recorded_[key] = token;
    return true;
  }
  if (expected_.empty()) return true;
  const auto it = expected_.find(key);
  if (it == expected_.end())
    return require(false, key + ": no expected value");
  return require(it->second == token,
                 key + ": " + token + " != expected " + it->second);
}

bool Checker::require(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
  return ok;
}

double span_seconds(const RunSummary& run, const std::string& name,
                    const std::string& label) {
  double total = 0.0;
  for (const auto& s : run.spans)
    if (s.name == name && (label.empty() || s.label == label))
      total += s.seconds();
  return total;
}

std::string first_line(const std::exception& e) {
  const std::string what = e.what();
  return what.substr(0, what.find('\n'));
}

std::size_t distinct_call_keys(const nn::KernelLog& log) {
  std::unordered_set<core::CallKey, core::CallKeyHash> keys;
  for (const auto& c : log.calls())
    keys.insert({core::Strategy::kTC, c.kind, c.m, c.k, c.n, c.batch,
                 c.elems});
  return keys.size();
}

}  // namespace bench
