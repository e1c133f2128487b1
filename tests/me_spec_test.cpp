// The spec engine (util/kv.hpp) and the estimator grammar
// ("NAME:key=val,...") end to end: parsing and canonical round-trips,
// duplicate-key rejection, range/type validation with per-estimator key
// lists in the errors, exact integers, one name-trimming rule across every
// prefixed grammar, bare-name back-compat, and the semantic anchor that
// "ACBM:alpha=0,beta=0,gamma=0" is bit-identical to
// AcbmParams::always_full_search().

#include "util/kv.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/encoder.hpp"
#include "codec/service.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "core/params.hpp"
#include "me/decimation.hpp"
#include "me/full_search.hpp"
#include "me/registry.hpp"
#include "sim/channel.hpp"
#include "synth/sequences.hpp"
#include "util/fault_injector.hpp"

namespace acbm {
namespace {

// ------------------------------------------------------------ kv grammar

TEST(KvGrammar, ParsesOrderedPairsAndTrimsSpaces) {
  const auto pairs = util::parse_kv_list(" a=1 , b = two ,c=");
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].first, "a");
  EXPECT_EQ(pairs[0].second, "1");
  EXPECT_EQ(pairs[1].first, "b");
  EXPECT_EQ(pairs[1].second, "two");
  EXPECT_EQ(pairs[2].first, "c");
  EXPECT_EQ(pairs[2].second, "");
}

TEST(KvGrammar, EmptyTextIsEmptyList) {
  EXPECT_TRUE(util::parse_kv_list("").empty());
  EXPECT_TRUE(util::parse_kv_list("  ").empty());
}

TEST(KvGrammar, RejectsDuplicateKeysAndMalformedTokens) {
  EXPECT_THROW((void)util::parse_kv_list("a=1,a=2"), util::SpecError);
  EXPECT_THROW((void)util::parse_kv_list("a=1,,b=2"), util::SpecError);
  EXPECT_THROW((void)util::parse_kv_list("novalue"), util::SpecError);
  EXPECT_THROW((void)util::parse_kv_list("=1"), util::SpecError);
}

TEST(KvGrammar, StrictScalarsRejectTrailingGarbage) {
  EXPECT_EQ(util::parse_int_strict("42", "x"), 42);
  EXPECT_DOUBLE_EQ(util::parse_double_strict("0.25", "x"), 0.25);
  EXPECT_THROW((void)util::parse_int_strict("12x", "x"), util::SpecError);
  EXPECT_THROW((void)util::parse_int_strict("", "x"), util::SpecError);
  EXPECT_THROW((void)util::parse_double_strict("1.2.3", "x"),
               util::SpecError);
  EXPECT_TRUE(util::parse_bool_strict("on", "x"));
  EXPECT_FALSE(util::parse_bool_strict("0", "x"));
  EXPECT_THROW((void)util::parse_bool_strict("yes", "x"), util::SpecError);
}

TEST(KvGrammar, FormatDoubleRoundTripsAndPrefersPlainIntegers) {
  EXPECT_EQ(util::format_double(1000.0), "1000");
  EXPECT_EQ(util::format_double(0.25), "0.25");
  EXPECT_EQ(util::format_double(1e18), "1e+18");
  const double awkward = 0.1 + 0.2;  // 0.30000000000000004
  EXPECT_DOUBLE_EQ(
      util::parse_double_strict(util::format_double(awkward), "x"), awkward);
}

// ------------------------------------------------------------ spec names

TEST(SpecName, BareNameHasNoTail) {
  const auto [name, tail] = util::split_spec_name("ACBM");
  EXPECT_EQ(name, "ACBM");
  EXPECT_TRUE(tail.empty());
}

TEST(SpecName, TailIsKeptVerbatim) {
  const std::string pairs = "alpha=500,beta=8,gamma=0.25";
  EXPECT_EQ(util::split_spec_name("ACBM:" + pairs).second, pairs);
}

TEST(SpecName, RejectsEmptyNameDanglingColonAndDuplicates) {
  EXPECT_THROW((void)util::split_spec_name(""), util::SpecError);
  EXPECT_THROW((void)util::split_spec_name(":alpha=1"), util::SpecError);
  EXPECT_THROW((void)util::split_spec_name("ACBM:"), util::SpecError);
  EXPECT_THROW(
      (void)core::builtin_estimators().create("ACBM:alpha=1,alpha=2"),
      util::SpecError);
}

// Every prefixed grammar splits its name with the same trimming rule as
// its key=value tokens: spaces and tabs on both sides.
TEST(SpecName, EveryPrefixedGrammarTrimsTheNameAlike) {
  EXPECT_EQ(core::builtin_estimators().canonical_spec(" \tACBM\t :alpha=1"),
            "ACBM:alpha=1,beta=8,gamma=0.25");
  EXPECT_EQ(sim::to_spec(sim::channel_config_from_spec(" \tiid\t :loss=0.1")),
            "iid:loss=0.1,seed=1,hit=drop,flips=3");
  EXPECT_EQ(
      util::to_spec(util::fault_config_from_spec(" \tfault\t :p=0.1")),
      "fault:site=encode_throw,p=0.1,seed=1");
  EXPECT_EQ(codec::to_spec(
                codec::overload_policy_from_spec(" \toverload\t :queue=1")),
            "overload:queue=1,deadline_ms=0");
}

// --------------------------------------------------- ParamSet validation

TEST(ParamSet, BindsDefaultsAndExplicitValues) {
  const auto set = util::ParamSet::bind(
      "ACBM", "alpha=500", core::builtin_estimators().params("ACBM"),
      "estimator ACBM");
  EXPECT_DOUBLE_EQ(set.get_double("alpha"), 500.0);
  EXPECT_DOUBLE_EQ(set.get_double("beta"), 8.0);
  EXPECT_DOUBLE_EQ(set.get_double("gamma"), 0.25);
  EXPECT_EQ(set.to_spec(), "ACBM:alpha=500,beta=8,gamma=0.25");
}

TEST(ParamSet, IntegersAreHeldExactly) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<util::ParamDesc> keys = {
      util::ParamDesc::integer("i", 0, kMin, kMax, "signed"),
      util::ParamDesc::unsigned_integer("u", 0, "unsigned")};
  // 2^53 + 1 is the first integer a double cannot hold.
  const auto set = util::ParamSet::bind(
      "", "i=9007199254740993,u=18446744073709551615", keys, "test");
  EXPECT_EQ(set.get_int("i"), 9007199254740993);
  EXPECT_EQ(set.get_uint("u"), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(set.to_spec(), "i=9007199254740993,u=18446744073709551615");
  EXPECT_EQ(util::ParamSet::bind("", "i=-9223372036854775808", keys, "test")
                .get_int("i"),
            kMin);
  EXPECT_THROW((void)util::ParamSet::bind("", "u=-1", keys, "test"),
               util::SpecError);
}

TEST(ParamSet, CanonicalSpecListsEveryKeyAndRoundTrips) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  const std::string canonical = registry.canonical_spec("ACBM:alpha=500");
  EXPECT_EQ(canonical, "ACBM:alpha=500,beta=8,gamma=0.25");
  // Canonicalisation is idempotent (a fixed point of the grammar).
  EXPECT_EQ(registry.canonical_spec(canonical), canonical);
  // Knob-less estimators canonicalise to the bare name.
  EXPECT_EQ(registry.canonical_spec("TSS"), "TSS");
}

TEST(ParamSet, UnknownKeyErrorListsEveryValidKey) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  try {
    (void)registry.create("ACBM:delta=1");
    FAIL() << "expected util::SpecError";
  } catch (const util::SpecError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("delta"), std::string::npos);
    EXPECT_NE(message.find("alpha"), std::string::npos);
    EXPECT_NE(message.find("beta"), std::string::npos);
    EXPECT_NE(message.find("gamma"), std::string::npos);
  }
}

TEST(ParamSet, RangeAndTypeValidation) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  EXPECT_THROW((void)registry.create("ACBM:alpha=-1"), util::SpecError);
  EXPECT_THROW((void)registry.create("ACBM:alpha=abc"), util::SpecError);
  EXPECT_THROW((void)registry.create("PBM:iters=1.5"), util::SpecError);
  EXPECT_THROW((void)registry.create("PBM:iters=99999"), util::SpecError);
  EXPECT_THROW((void)registry.create("FSBM:dec=hex"), util::SpecError);
  // Knob-less estimators reject every key.
  EXPECT_THROW((void)registry.create("TSS:step=4"), util::SpecError);
}

TEST(ParamSet, EnumAndIntKnobsReachTheEstimator) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  const auto decimated = registry.create("FSBM:dec=quincunx");
  EXPECT_EQ(decimated->name(), "FSBM-dec");  // FullSearch renames itself
  const auto plain = registry.create("FSBM:dec=none");
  EXPECT_EQ(plain->name(), "FSBM");
  EXPECT_NO_THROW((void)registry.create("PBM:iters=2"));
  EXPECT_NO_THROW(
      (void)registry.create("FSBM-adec:quarter_below=100,half_below=200"));
}

// ------------------------------------------------------ registry surface

TEST(RegistrySpecs, BareNamesStillCreateEveryBuiltin) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const auto estimator = registry.create(name);
    ASSERT_NE(estimator, nullptr) << name;
    EXPECT_EQ(estimator->name(), name);
  }
}

TEST(RegistrySpecs, SpecUsageMentionsEveryEstimatorAndGrammar) {
  const std::string usage = core::builtin_estimators().spec_usage();
  EXPECT_NE(usage.find("NAME:key=val"), std::string::npos);
  for (const std::string& name : core::builtin_estimators().names()) {
    EXPECT_NE(usage.find(name), std::string::npos) << name;
  }
}

TEST(RegistrySpecs, RegistrationRejectsReservedCharactersAndDupKeys) {
  me::EstimatorRegistry registry;
  auto factory = [](const util::ParamSet&) {
    return std::make_unique<me::FullSearch>();
  };
  EXPECT_THROW(registry.add("A:B", {}, factory), std::invalid_argument);
  EXPECT_THROW(registry.add("A=B", {}, factory), std::invalid_argument);
  EXPECT_THROW(
      registry.add("X",
                   {util::ParamDesc::number("k", 0, 0, 1, "h"),
                    util::ParamDesc::number("k", 0, 0, 1, "h")},
                   factory),
      std::invalid_argument);
}

// ----------------------------------------------------- semantic anchors

std::vector<std::uint8_t> encode_stream(me::MotionEstimator& estimator) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = {64, 48};
  req.frame_count = 5;
  req.fps = 30;
  const auto frames = synth::make_sequence(req);
  codec::EncoderConfig config;
  config.qp = 16;
  codec::Encoder encoder({64, 48}, config, estimator);
  for (const auto& frame : frames) {
    (void)encoder.encode_frame(frame);
  }
  return encoder.finish();
}

TEST(RegistrySpecs, ZeroedAcbmSpecIsBitIdenticalToAlwaysFullSearch) {
  const auto from_spec =
      core::builtin_estimators().create("ACBM:alpha=0,beta=0,gamma=0");
  core::Acbm reference(core::AcbmParams::always_full_search());
  EXPECT_EQ(encode_stream(*from_spec), encode_stream(reference));
}

TEST(RegistrySpecs, BareNameIsBitIdenticalToPaperDefaultsSpec) {
  const auto bare = core::builtin_estimators().create("ACBM");
  const auto spelled = core::builtin_estimators().create(
      "ACBM:alpha=1000,beta=8,gamma=0.25");
  EXPECT_EQ(encode_stream(*bare), encode_stream(*spelled));
}

}  // namespace
}  // namespace acbm
