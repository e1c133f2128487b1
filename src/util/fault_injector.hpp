#pragma once
// Deterministic, seeded fault injection for the encoding service.
//
// A FaultInjector is armed by a kv spec with the same grammar discipline as
// sim::channel ("fault:site=encode_throw,p=0.01,seed=7") and then queried
// at named sites inside the pipeline. The firing decision is a PURE hash of
// (seed, site, lane, event) — there is no sequential RNG state — so the
// decision for (lane 3, frame 17) is the same no matter how the thread
// scheduler interleaves sessions, which is what lets the soak test predict
// exactly which frames of which sessions will fail for a given seed. Lanes
// are session ids; events are frame indices.
//
// Disarmed (p == 0 or no injector installed) the query is a null-pointer
// check on the hot path — zero overhead, byte-identical streams.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace acbm::util {

/// Where a fault is delivered. Each site models a distinct real-world
/// failure the service must survive.
enum class FaultSite {
  kAlloc,        ///< allocation failure: throws std::bad_alloc
  kEncodeThrow,  ///< encoder-stage bug: throws util::InjectedFault
  kTaskDelay,    ///< slow task: sleeps delay_ms (for deadline/overload tests)
};

struct FaultConfig {
  FaultSite site = FaultSite::kEncodeThrow;
  double p = 0.0;           ///< per-event firing probability [0, 1]
  std::uint64_t seed = 1;   ///< hash seed; same seed => same firing pattern
  int delay_ms = 5;         ///< sleep length for site=task_delay_ms
};

/// Human-readable grammar description, embedded in SpecError messages.
[[nodiscard]] std::string fault_spec_usage();

/// Parses "fault:site=...,p=...,seed=...,delay_ms=...". The "fault" prefix
/// is mandatory (mirrors the channel grammar's mandatory model name).
/// Throws util::SpecError on any unknown key or out-of-range value.
[[nodiscard]] FaultConfig fault_config_from_spec(std::string_view spec);

/// Canonical round-trip render of `config` (delay_ms appears only for
/// site=task_delay_ms).
[[nodiscard]] std::string to_spec(const FaultConfig& config);

/// The exception thrown by site=encode_throw — a stand-in for "a bug in one
/// estimator threw" that tests can distinguish from real failures.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what) : std::runtime_error(what) {}
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultConfig& config) : config_(config) {}
  explicit FaultInjector(std::string_view spec)
      : config_(fault_config_from_spec(spec)) {}

  [[nodiscard]] const FaultConfig& config() const { return config_; }
  [[nodiscard]] std::string spec() const { return to_spec(config_); }

  /// False iff no event can ever fire (p == 0).
  [[nodiscard]] bool armed() const { return config_.p > 0.0; }

  /// Pure decision function: does the fault fire at (lane, event)? Same
  /// (config, lane, event) always answers the same, independent of call
  /// order or thread.
  [[nodiscard]] bool should_fire(std::uint64_t lane,
                                 std::uint64_t event) const;

  /// Delivers the configured fault at (lane, event) if it fires: throws
  /// std::bad_alloc (site=alloc), throws InjectedFault (site=encode_throw),
  /// or sleeps delay_ms (site=task_delay_ms). No-op when it does not fire.
  void inject(std::uint64_t lane, std::uint64_t event) const;

  /// Test helper: the first event in [from, from + count) that fires on
  /// `lane`, or -1 if none does.
  [[nodiscard]] std::int64_t first_fire(std::uint64_t lane,
                                        std::uint64_t from,
                                        std::uint64_t count) const;

 private:
  FaultConfig config_;
};

}  // namespace acbm::util
