#include "util/fault_injector.hpp"

#include <chrono>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "util/kv.hpp"

namespace acbm::util {

namespace {

/// splitmix64 finalizer (the same mixer Rng uses for seeding). Three rounds
/// over the packed (seed, site, lane, event) tuple give a uniform 64-bit
/// hash; dividing by 2^64 yields the uniform variate compared against p.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The fault keys, defaults from `config`.
std::vector<ParamDesc> fault_keys(const FaultConfig& config) {
  return {
      // Choices in FaultSite order.
      ParamDesc::choice("site", {"alloc", "encode_throw", "task_delay_ms"},
                        static_cast<std::size_t>(config.site),
                        "where the fault is delivered"),
      ParamDesc::number("p", config.p, 0, 1,
                        "per-frame firing probability"),
      ParamDesc::unsigned_integer("seed", config.seed,
                                  "hash seed; same seed, same firings"),
      ParamDesc::integer("delay_ms", config.delay_ms, 1, 10000,
                         "sleep length for site=task_delay_ms"),
  };
}

}  // namespace

std::string fault_spec_usage() {
  return "fault spec grammar: fault:key=val[,key=val...] over the keys\n" +
         describe_params(fault_keys({}));
}

FaultConfig fault_config_from_spec(std::string_view spec) {
  // The "fault" prefix is mandatory for the same reason the channel grammar
  // requires a model name: a bare key list does not say which subsystem
  // interprets it.
  auto [name, pairs] = split_spec_name(spec);
  if (name != "fault") {
    throw SpecError("fault: spec must start with \"fault\", got \"" + name +
                    "\"; " + fault_spec_usage());
  }
  const ParamSet params =
      ParamSet::bind(std::move(name), pairs, fault_keys({}), "fault");
  FaultConfig config;
  config.site = static_cast<FaultSite>(params.get_choice("site"));
  config.p = params.get_double("p");
  config.seed = params.get_uint("seed");
  config.delay_ms = static_cast<int>(params.get_int("delay_ms"));
  return config;
}

std::string to_spec(const FaultConfig& config) {
  std::vector<ParamDesc> keys = fault_keys(config);
  // delay_ms only means something at site=task_delay_ms.
  if (config.site != FaultSite::kTaskDelay) {
    keys.pop_back();
  }
  return ParamSet::bind("fault", "", std::move(keys), "fault").to_spec();
}

bool FaultInjector::should_fire(std::uint64_t lane,
                                std::uint64_t event) const {
  if (config_.p <= 0.0) {
    return false;
  }
  if (config_.p >= 1.0) {
    return true;
  }
  std::uint64_t h = mix64(config_.seed);
  h = mix64(h ^ (static_cast<std::uint64_t>(config_.site) + 1));
  h = mix64(h ^ lane);
  h = mix64(h ^ event);
  // 53-bit mantissa: exact double, uniform in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < config_.p;
}

void FaultInjector::inject(std::uint64_t lane, std::uint64_t event) const {
  if (!should_fire(lane, event)) {
    return;
  }
  switch (config_.site) {
    case FaultSite::kAlloc:
      throw std::bad_alloc();
    case FaultSite::kEncodeThrow:
      throw InjectedFault("injected fault (lane " + std::to_string(lane) +
                          ", event " + std::to_string(event) + ")");
    case FaultSite::kTaskDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(config_.delay_ms));
      return;
  }
}

std::int64_t FaultInjector::first_fire(std::uint64_t lane, std::uint64_t from,
                                       std::uint64_t count) const {
  for (std::uint64_t e = from; e < from + count; ++e) {
    if (should_fire(lane, e)) {
      return static_cast<std::int64_t>(e);
    }
  }
  return -1;
}

}  // namespace acbm::util
