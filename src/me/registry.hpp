#pragma once
// String-keyed factory for MotionEstimator implementations, keyed by
// parameterized specs.
//
// Before this existed, every bench, example and the CLI encoder duplicated
// an 11-way switch to turn an algorithm name into an estimator object — and
// every parameter ablation needed bespoke C++ on top, because factories were
// zero-argument. The registry centralises both: construction sites ask for a
// spec — a bare name ("ACBM", all defaults) or "NAME:key=val,key=val"
// ("ACBM:alpha=500,beta=8") — and get a fresh, validated instance. New
// algorithms become available everywhere, sweepable from strings, by
// registering one factory plus the descriptors of its knobs.
//
// The registry itself is layer-neutral (it only knows the MotionEstimator
// interface and the spec engine in util/kv.hpp). The instance pre-populated
// with every algorithm in this library lives one layer up, in
// core::builtin_estimators(), because the paper's own contribution
// (core::Acbm) sits above the me:: search library.

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "me/estimator.hpp"
#include "util/kv.hpp"

namespace acbm::me {

/// @brief Spec-keyed factory of MotionEstimator instances.
///
/// Value-semantic and layer-neutral; the pre-populated instance lives in
/// core::builtin_estimators(). Not thread-safe for concurrent add(), but
/// freely shareable for concurrent create() once populated.
class EstimatorRegistry {
 public:
  /// Constructor of a fresh estimator instance from validated parameters.
  /// The ParamSet carries every declared knob (explicit or default); the
  /// factory reads them with the typed getters and never sees raw strings.
  using Factory =
      std::function<std::unique_ptr<MotionEstimator>(const util::ParamSet&)>;

  /// @brief Registers `factory` under `name` with its parameter descriptors.
  /// @param name non-empty key, conventionally the estimator's name().
  ///        Must not contain the grammar's reserved ':' separator.
  /// @param params descriptors of every knob the factory reads; empty for
  ///        knob-less estimators (any key in a spec then fails validation)
  /// @param factory callable producing a fresh instance per call
  /// @throws std::invalid_argument if the name is empty, reserved-character
  ///         tainted, or already registered (duplicates are always a bug)
  void add(std::string name, std::vector<util::ParamDesc> params,
           Factory factory);

  /// @return true when `name` (a bare estimator name, not a full spec) has
  ///         a registered factory.
  [[nodiscard]] bool contains(std::string_view name) const;

  /// @brief Creates a fresh estimator from a spec.
  /// @param spec "NAME" or "NAME:key=val,..." (see util/kv.hpp; bare names
  ///        mean all-default parameters, so pre-spec call sites keep
  ///        working unchanged)
  /// @return a new instance from the matching factory
  /// @throws util::SpecError for malformed specs, unknown names (message
  ///         lists every registered name), unknown keys (message lists
  ///         every valid key for that estimator with defaults and ranges),
  ///         and out-of-range values — CLI users see their options without
  ///         a separate help path
  [[nodiscard]] std::unique_ptr<MotionEstimator> create(
      std::string_view spec) const;

  /// @brief Validates `spec` and returns its canonical form — every
  /// declared key at its effective value, declaration order, e.g.
  /// "ACBM:alpha=500" → "ACBM:alpha=500,beta=8,gamma=0.25" — without
  /// constructing the estimator. Stable across spellings of one
  /// configuration, parseable back to an identical estimator: what benches
  /// stamp into artifacts for cross-run joinability.
  /// @throws util::SpecError exactly as create() would
  [[nodiscard]] std::string canonical_spec(std::string_view spec) const;

  /// @brief Descriptors declared for `name` (a bare estimator name).
  /// @throws util::SpecError for unknown names
  [[nodiscard]] const std::vector<util::ParamDesc>& params(
      std::string_view name) const;

  /// @return registered names in registration order (the display order of
  ///         benches and usage strings).
  [[nodiscard]] std::vector<std::string> names() const;

  /// @return the full spec grammar plus every estimator's key list — the
  ///         text CLI frontends print when rejecting a spec.
  [[nodiscard]] std::string spec_usage() const;

  /// @return number of registered factories.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    std::vector<util::ParamDesc> params;
    Factory factory;
  };
  [[nodiscard]] const Entry& entry_for(std::string_view name) const;

  // Linear storage: registration order is meaningful (it is the display
  // order of benches and usage strings) and the set is small.
  std::vector<Entry> entries_;
};

}  // namespace acbm::me
