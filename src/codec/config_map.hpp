#pragma once
// String key=value ↔ codec::EncoderConfig / DecoderConfig bridge: the
// encoder and decoder grammars of the spec engine in util/kv.hpp.
//
// A config spec is a comma-separated key=value list over typed keys:
//
//   "qp=20,slices=4,threads=0"      — override three fields
//   "mode=rd,deblock=1"             — enum and bool keys
//   ""                              — all defaults
//
// encoder_config_from_spec applies a spec on top of a base config (defaults
// unless given), validating every key, value and range; unknown keys fail
// with the full key table. to_spec renders a config back into the grammar
// canonically — every key, declaration order — and parses back to an equal
// config, so benches and the CLI can stamp the exact configuration into
// artifacts (BENCH_ci.json context, encoder logs) and reproduce it from the
// stamp alone.

#include <string>
#include <string_view>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "util/kv.hpp"

namespace acbm::codec {

/// @brief Parses "key=val,key=val" into an EncoderConfig.
/// @param spec the pair list; keys not mentioned keep `base`'s value
/// @param base starting configuration (default-constructed by default)
/// @throws util::SpecError on syntax errors, unknown keys (message lists
///         every valid key with default and range), malformed values and
///         out-of-range values
[[nodiscard]] EncoderConfig encoder_config_from_spec(
    std::string_view spec, const EncoderConfig& base = {});

/// @brief Canonical spec of `config`: every key in declaration order.
/// Round-trips: encoder_config_from_spec(to_spec(c)) reproduces c for all
/// fields the grammar covers.
[[nodiscard]] std::string to_spec(const EncoderConfig& config);

/// The encoder keys in declaration order, with `config`'s values as their
/// defaults — the one list parsing, to_spec and usage text share (and the
/// sweep grammar borrows its encoder keys from).
[[nodiscard]] std::vector<util::ParamDesc> encoder_config_keys(
    const EncoderConfig& config);

/// One line per key (key=default (range): help) — what CLI --help prints.
[[nodiscard]] std::string config_spec_usage();

/// @brief Parses "key=val,key=val" into a DecoderConfig (the decoder half
/// of the grammar: "threads=4,conceal=resync,expect_frames=60").
/// Keys: threads, conceal (slice|resync|off), and the expect_* assertions
/// (width, height, fps, frames, slices, version; -1 = unchecked) that
/// absorb acbm_dec's --expect flag.
/// @throws util::SpecError like encoder_config_from_spec
[[nodiscard]] DecoderConfig decoder_config_from_spec(
    std::string_view spec, const DecoderConfig& base = {});

/// Canonical spec of `config`: every key in declaration order; round-trips
/// through decoder_config_from_spec.
[[nodiscard]] std::string to_spec(const DecoderConfig& config);

/// The decoder key table for usage/error text.
[[nodiscard]] std::string decoder_config_spec_usage();

}  // namespace acbm::codec
