// libFuzzer entry point for the seven spec grammars of util/kv.hpp.
//
// The first input byte picks the grammar (an ASCII digit '0'..'6' names it
// directly; any other byte wraps onto one); the rest is the spec text.
// Two properties are enforced on every input:
//   1. Robustness: parsing either succeeds or throws util::SpecError. Any
//      other escape (crash, sanitizer report, other exception) is a
//      finding.
//   2. Canonical fixed point: for an accepted spec s,
//      to_spec(parse(to_spec(parse(s)))) == to_spec(parse(s)) — the
//      canonical form parses back to the same configuration, so a stamped
//      to_spec() reproduces the run that produced it.
//
// Build: cmake -DACBM_BUILD_FUZZERS=ON with a clang toolchain, then run
// build/spec_fuzzer tests/fuzz/spec_corpus. Without clang the same entry
// point links into spec_fuzzer_driver, which replays the corpus directory
// and backs the spec_corpus_regression ctest.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>

#include "analysis/rd_sweep.hpp"
#include "codec/config_map.hpp"
#include "codec/service.hpp"
#include "core/builtin_estimators.hpp"
#include "sim/channel.hpp"
#include "util/fault_injector.hpp"
#include "util/kv.hpp"

namespace {

using namespace acbm;

/// parse-then-render for each grammar, in the order the selector byte
/// names them.
using Canonicalize = std::string (*)(std::string_view);
constexpr Canonicalize kGrammars[] = {
    [](std::string_view s) {
      return core::builtin_estimators().canonical_spec(s);
    },
    [](std::string_view s) {
      return codec::to_spec(codec::encoder_config_from_spec(s));
    },
    [](std::string_view s) {
      return codec::to_spec(codec::decoder_config_from_spec(s));
    },
    [](std::string_view s) {
      return analysis::SweepConfig::from_spec(s).to_spec();
    },
    [](std::string_view s) {
      return sim::to_spec(sim::channel_config_from_spec(s));
    },
    [](std::string_view s) {
      return util::to_spec(util::fault_config_from_spec(s));
    },
    [](std::string_view s) {
      return codec::to_spec(codec::overload_policy_from_spec(s));
    },
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) {
    return 0;
  }
  const Canonicalize canonicalize =
      kGrammars[static_cast<std::uint8_t>(data[0] - '0') %
                std::size(kGrammars)];
  const std::string_view spec(reinterpret_cast<const char*>(data) + 1,
                              size - 1);
  std::string once;
  try {
    once = canonicalize(spec);
  } catch (const util::SpecError&) {
    return 0;
  }
  // The canonical form must parse (a SpecError here escapes and is a
  // finding) and render back to itself.
  const std::string twice = canonicalize(once);
  if (twice != once) {
    std::fprintf(stderr, "canonical form is not a fixed point:\n  %s\n  %s\n",
                 once.c_str(), twice.c_str());
    std::abort();
  }
  return 0;
}
