#include "harness/workload_registry.h"

#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "util/cli.h"

namespace cachesched {
namespace {

[[noreturn]] void throw_unknown(const std::string& name,
                                const std::vector<std::string>& known) {
  std::ostringstream os;
  os << "unknown workload: " << name << " (known:";
  for (const auto& n : known) os << " " << n;
  os << ")";
  const std::string near = nearest_flag(name, known);
  if (!near.empty()) os << " — did you mean " << near << "?";
  throw std::invalid_argument(os.str());
}

}  // namespace

struct WorkloadRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::pair<std::string, WorkloadBuilder>> builders;
};

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry r;
  return r;
}

WorkloadRegistry::Impl& WorkloadRegistry::impl() const {
  // Meyers singleton so registrations from static initializers in other
  // translation units are safe regardless of initialization order.
  static Impl i;
  return i;
}

void WorkloadRegistry::add(const std::string& name, const std::string& kind,
                           WorkloadBuilder builder) {
  if (name.empty() || !builder) {
    throw std::invalid_argument(
        "workload registration needs a name and a builder");
  }
  if (name.find(':') != std::string::npos ||
      name.find(',') != std::string::npos ||
      name.find('=') != std::string::npos) {
    throw std::invalid_argument(
        "workload name must not contain ':', ',' or '=': " + name);
  }
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (!i.builders.emplace(name, std::make_pair(kind, std::move(builder)))
           .second) {
    throw std::invalid_argument("duplicate workload registration: " + name);
  }
}

Workload WorkloadRegistry::make(const std::string& spec, const CmpConfig& cfg,
                                const AppOptions& opt) const {
  const size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  WorkloadBuilder builder;
  {
    Impl& i = impl();
    std::lock_guard<std::mutex> lock(i.mu);
    auto it = i.builders.find(name);
    if (it != i.builders.end()) builder = it->second.second;
  }
  if (!builder) throw_unknown(name, names());
  return builder(params, cfg, opt);
}

bool WorkloadRegistry::contains(const std::string& spec) const {
  const std::string name = spec.substr(0, spec.find(':'));
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.builders.count(name) > 0;
}

void WorkloadRegistry::require(const std::string& spec) const {
  if (!contains(spec)) throw_unknown(spec.substr(0, spec.find(':')), names());
}

std::vector<std::string> WorkloadRegistry::names() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::vector<std::string> out;
  out.reserve(i.builders.size());
  for (const auto& [name, _] : i.builders) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::vector<std::pair<std::string, std::string>> WorkloadRegistry::entries()
    const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(i.builders.size());
  for (const auto& [name, v] : i.builders) out.emplace_back(name, v.first);
  return out;
}

WorkloadRegistrar::WorkloadRegistrar(const std::string& name,
                                     const std::string& kind,
                                     WorkloadBuilder builder) {
  WorkloadRegistry::instance().add(name, kind, std::move(builder));
}

Workload make_workload(const std::string& spec, const CmpConfig& cfg,
                       const AppOptions& opt) {
  return WorkloadRegistry::instance().make(spec, cfg, opt);
}

std::vector<std::string> known_workloads() {
  return WorkloadRegistry::instance().names();
}

std::vector<std::string> split_workload_list(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    // "key=val" without ':' is a generator parameter split off by the
    // comma — glue it back onto the spec it belongs to.
    if (!out.empty() && item.find('=') != std::string::npos &&
        item.find(':') == std::string::npos) {
      out.back() += "," + item;
    } else {
      out.push_back(item);
    }
  }
  return out;
}

}  // namespace cachesched
