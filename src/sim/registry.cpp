#include "sim/registry.hpp"

#include <utility>

#include "core/engine.hpp"
#include "pp/configuration.hpp"
#include "sim/engines.hpp"
#include "util/check.hpp"

namespace kusd::sim {

Registry::Registry() { register_builtin_engines(*this); }

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(std::string name, EngineInfo info) {
  KUSD_CHECK_MSG(!name.empty(), "engine name must be non-empty");
  KUSD_CHECK_MSG(info.factory != nullptr,
                 "engine '" + name + "' needs a factory");
  const auto [it, inserted] = engines_.emplace(std::move(name),
                                               std::move(info));
  KUSD_CHECK_MSG(inserted, "engine '" + it->first + "' already registered");
}

bool Registry::contains(const std::string& name) const {
  return engines_.count(name) != 0;
}

const EngineInfo* Registry::find(const std::string& name) const {
  const auto it = engines_.find(name);
  return it == engines_.end() ? nullptr : &it->second;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(engines_.size());
  for (const auto& [name, info] : engines_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::string Registry::names_joined() const {
  std::string out;
  for (const auto& [name, info] : engines_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

std::unique_ptr<core::Engine> Registry::create(const std::string& name,
                                         const pp::Configuration& initial,
                                         std::uint64_t seed,
                                         const EngineOptions& options) const {
  const EngineInfo* info = find(name);
  KUSD_CHECK_MSG(info != nullptr, "unknown engine '" + name +
                                      "' (registered: " + names_joined() +
                                      ")");
  return info->factory(initial, seed, options);
}

}  // namespace kusd::sim
