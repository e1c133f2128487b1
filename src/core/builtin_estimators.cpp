#include "core/builtin_estimators.hpp"

#include "core/acbm.hpp"
#include "me/decimation.hpp"
#include "me/full_search.hpp"
#include "me/pattern_search.hpp"
#include "me/pbm.hpp"

namespace acbm::core {

namespace {

using util::ParamDesc;
using util::ParamSet;

me::EstimatorRegistry make_builtin_registry() {
  // The degenerate AcbmParams configurations must stay expressible:
  // never_full_search() uses 1e18 for alpha/gamma, so the declared ranges
  // admit it.
  constexpr double kThresholdMax = 1e18;

  me::EstimatorRegistry registry;
  // Paper's three first (the order benches and usage strings display).
  registry.add(
      "ACBM",
      {ParamDesc::number("alpha", 1000.0, 0.0, kThresholdMax,
                         "T1 additive threshold (paper: 1000); 0 with "
                         "beta=gamma=0 forces FSBM everywhere"),
       ParamDesc::number("beta", 8.0, 0.0, kThresholdMax,
                         "T1 quantiser-squared weight (paper: 8)"),
       ParamDesc::number("gamma", 0.25, 0.0, kThresholdMax,
                         "T2 Intra_SAD fraction (paper: 1/4); large values "
                         "approach pure PBM")},
      [](const ParamSet& params) {
        return std::make_unique<Acbm>(AcbmParams{params.get_double("alpha"),
                                                 params.get_double("beta"),
                                                 params.get_double("gamma")});
      });
  registry.add(
      "FSBM",
      // Choices in me::DecimationPattern order.
      {ParamDesc::choice("dec", {"none", "quincunx", "rowskip"}, 0,
                         "pixel-decimation pattern for the SAD (none "
                         "reproduces the paper's exact FSBM)")},
      [](const ParamSet& params) {
        return std::make_unique<me::FullSearch>(
            static_cast<me::DecimationPattern>(params.get_choice("dec")));
      });
  registry.add(
      "PBM",
      {ParamDesc::integer("iters", 8, 0, 1024,
                          "bound on the local ±1 descent after the "
                          "predictor step (Chimienti's complexity bound)")},
      [](const ParamSet& params) {
        return std::make_unique<me::Pbm>(
            static_cast<int>(params.get_int("iters")));
      });
  // Candidate-reduction baselines (paper refs [3–5] family). Knob-less: the
  // search range every one of them scales to arrives per block via
  // BlockContext::window (EncoderConfig's "range" key).
  using Kind = me::PatternSearch::Kind;
  for (Kind kind : {Kind::kTss, Kind::kNtss, Kind::kFss, Kind::kDs,
                    Kind::kHexbs, Kind::kCds}) {
    registry.add(std::string(me::PatternSearch(kind).name()), {},
                 [kind](const ParamSet&) {
                   return std::make_unique<me::PatternSearch>(kind);
                 });
  }
  // Pixel-decimation baselines (paper refs [6–8] family).
  registry.add(
      "FSBM-adec",
      {ParamDesc::integer("quarter_below", 1500, 0, 1 << 30,
                          "Intra_SAD below this (16x16 units) matches from "
                          "4:1 samples"),
       ParamDesc::integer("half_below", 4000, 0, 1 << 30,
                          "...below this from 2:1 samples; above it the "
                          "full kernel runs")},
      [](const ParamSet& params) {
        me::AdaptiveDecimationSearch::Thresholds thresholds;
        thresholds.quarter_below =
            static_cast<std::uint32_t>(params.get_int("quarter_below"));
        thresholds.half_below =
            static_cast<std::uint32_t>(params.get_int("half_below"));
        return std::make_unique<me::AdaptiveDecimationSearch>(thresholds);
      });
  registry.add("FSBM-sub", {}, [](const ParamSet&) {
    return std::make_unique<me::SubsampledFullSearch>();
  });
  return registry;
}

}  // namespace

const me::EstimatorRegistry& builtin_estimators() {
  static const me::EstimatorRegistry registry = make_builtin_registry();
  return registry;
}

}  // namespace acbm::core
