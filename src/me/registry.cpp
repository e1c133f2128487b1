#include "me/registry.hpp"

#include <stdexcept>
#include <utility>

namespace acbm::me {

void EstimatorRegistry::add(std::string name,
                            std::vector<util::ParamDesc> params,
                            Factory factory) {
  if (name.empty()) {
    throw std::invalid_argument("estimator registry: empty name");
  }
  if (name.find(':') != std::string::npos ||
      name.find(',') != std::string::npos ||
      name.find('=') != std::string::npos) {
    throw std::invalid_argument(
        "estimator registry: name \"" + name +
        "\" contains a character the spec grammar reserves (:,=)");
  }
  if (!factory) {
    throw std::invalid_argument("estimator registry: null factory for " +
                                name);
  }
  if (contains(name)) {
    throw std::invalid_argument("estimator registry: duplicate name " + name);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (params[i].key.empty()) {
      throw std::invalid_argument("estimator registry: " + name +
                                  " declares a parameter with an empty key");
    }
    for (std::size_t j = i + 1; j < params.size(); ++j) {
      if (params[i].key == params[j].key) {
        throw std::invalid_argument("estimator registry: " + name +
                                    " declares duplicate parameter key " +
                                    params[i].key);
      }
    }
  }
  entries_.push_back({std::move(name), std::move(params), std::move(factory)});
}

bool EstimatorRegistry::contains(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return true;
    }
  }
  return false;
}

const EstimatorRegistry::Entry& EstimatorRegistry::entry_for(
    std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) {
      return entry;
    }
  }
  std::string message = "unknown estimator \"";
  message.append(name);
  message += "\" (registered:";
  for (const Entry& entry : entries_) {
    message += ' ';
    message += entry.name;
  }
  message += ')';
  throw util::SpecError(message);
}

std::unique_ptr<MotionEstimator> EstimatorRegistry::create(
    std::string_view spec) const {
  auto [name, pairs] = util::split_spec_name(spec);
  const Entry& entry = entry_for(name);
  return entry.factory(util::ParamSet::bind(std::move(name), pairs,
                                            entry.params,
                                            "estimator " + entry.name));
}

std::string EstimatorRegistry::canonical_spec(std::string_view spec) const {
  auto [name, pairs] = util::split_spec_name(spec);
  const Entry& entry = entry_for(name);
  return util::ParamSet::bind(std::move(name), pairs, entry.params,
                              "estimator " + entry.name)
      .to_spec();
}

const std::vector<util::ParamDesc>& EstimatorRegistry::params(
    std::string_view name) const {
  return entry_for(name).params;
}

std::vector<std::string> EstimatorRegistry::names() const {
  std::vector<std::string> result;
  result.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    result.push_back(entry.name);
  }
  return result;
}

std::string EstimatorRegistry::spec_usage() const {
  std::string out =
      "estimator spec grammar: NAME or NAME:key=val[,key=val...]\n"
      "(a bare NAME uses every default; keys are validated per estimator)\n";
  for (const Entry& entry : entries_) {
    out += entry.name + '\n';
    out += util::describe_params(entry.params);
  }
  return out;
}

}  // namespace acbm::me
