#pragma once
// The project's one spec engine: every `key=val` grammar binds through it.
//
// Seven user-facing string grammars share one comma-separated `key=val`
// syntax: estimator specs ("ACBM:alpha=500,beta=8", me/registry.hpp),
// encoder and decoder configuration maps ("qp=16,slices=4",
// codec/config_map.hpp), sweep configurations (analysis/rd_sweep.hpp),
// channel models ("gilbert:loss=0.05,burst=8", sim/channel.hpp), fault
// injection ("fault:site=alloc,p=0.1", util/fault_injector.hpp) and overload
// policies ("overload:queue=8", codec/service.hpp). Each grammar declares
// its keys once, as a list of ParamDescs whose defaults come from a config
// value, and that one list serves all three uses:
//
//   parse     ParamSet::bind(name, text, keys(base), owner) + typed getters
//   render    ParamSet::bind(name, "", keys(config), owner).to_spec()
//   usage     describe_params(keys(Config{}))
//
// so parsing, range checks, usage text and the canonical form cannot drift
// apart. Integer values are held exactly (int64, or the full uint64 range
// for seeds), never as double.
//
// Parse errors throw util::SpecError (an std::invalid_argument), which CLI
// entry points catch to exit 2 with the offending token quoted.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace acbm::util {

/// Error type for every spec-grammar failure (syntax, unknown key, range).
/// Distinct from plain std::invalid_argument so CLI frontends can map
/// user-authored spec mistakes to exit code 2 (usage error) while other
/// invalid_arguments stay internal errors.
class SpecError : public std::invalid_argument {
 public:
  explicit SpecError(const std::string& message)
      : std::invalid_argument(message) {}
};

/// One `key=value` pair, in source order.
using KeyValue = std::pair<std::string, std::string>;

/// Parses "k1=v1,k2=v2,..." into ordered pairs.
///
/// Rules: an empty `text` yields an empty list; every comma-separated token
/// must contain '='; keys must be non-empty; a repeated key is an error
/// (a sweep spec silently keeping one of two alphas would corrupt an
/// experiment). Values may be empty; spaces and tabs around tokens are
/// trimmed.
/// @throws SpecError naming the offending token
[[nodiscard]] std::vector<KeyValue> parse_kv_list(std::string_view text);

/// Splits "NAME" or "NAME:tail" at the first ':'. The name is trimmed like
/// every other token and must be non-empty; a ':' must be followed by a
/// non-blank tail (drop the colon for all defaults). The tail is returned
/// raw ("" for a bare name).
/// @throws SpecError
[[nodiscard]] std::pair<std::string, std::string_view> split_spec_name(
    std::string_view spec);

/// Strict scalar parsers: the whole token must be consumed, so "12x" or an
/// empty string is an error rather than 12 / 0. `what` names the value in
/// the error message ("alpha", "key qp", ...).
/// @throws SpecError
[[nodiscard]] double parse_double_strict(std::string_view text,
                                         const std::string& what);
[[nodiscard]] std::int64_t parse_int_strict(std::string_view text,
                                            const std::string& what);
/// Accepts 0/1/true/false/on/off (case-sensitive, the spellings docs use).
[[nodiscard]] bool parse_bool_strict(std::string_view text,
                                     const std::string& what);

/// Shortest decimal form that parses back to exactly `value` — what keeps
/// to_spec() round-trippable without stamping 17-digit noise into artifact
/// context strings (1000 stays "1000", 0.25 stays "0.25").
[[nodiscard]] std::string format_double(double value);

/// Declares one key of a grammar: name, type, default, range, help line.
struct ParamDesc {
  enum class Type { kDouble, kInt, kUint, kBool, kChoice, kText };

  std::string key;
  Type type = Type::kDouble;
  std::string help;              ///< one line for usage/error text
  std::string def;               ///< default, as canonical spec text
  double min_value = 0.0;        ///< inclusive kDouble range
  double max_value = 0.0;
  std::int64_t min_int = 0;      ///< inclusive kInt range
  std::int64_t max_int = 0;
  std::vector<std::string> choices = {};  ///< kChoice values, in enum order

  [[nodiscard]] static ParamDesc number(std::string key, double def,
                                        double min_value, double max_value,
                                        std::string help);
  [[nodiscard]] static ParamDesc integer(std::string key, std::int64_t def,
                                         std::int64_t min_value,
                                         std::int64_t max_value,
                                         std::string help);
  /// Unsigned 64-bit over its full range (seeds).
  [[nodiscard]] static ParamDesc unsigned_integer(std::string key,
                                                  std::uint64_t def,
                                                  std::string help);
  [[nodiscard]] static ParamDesc boolean(std::string key, bool def,
                                         std::string help);
  /// `def` indexes `choices`; ParamSet::get_choice returns an index too, so
  /// listing the choices in enum order maps them onto an enum directly.
  [[nodiscard]] static ParamDesc choice(std::string key,
                                        std::vector<std::string> choices,
                                        std::size_t def, std::string help);
  /// Free text, validated by the grammar that reads it.
  [[nodiscard]] static ParamDesc text(std::string key, std::string def,
                                      std::string help);
};

/// One line per key, "  alpha=1000 (0..1e+18): T1 additive threshold", or
/// "  (no parameters)" — the key table of usage and unknown-key errors.
[[nodiscard]] std::string describe_params(const std::vector<ParamDesc>& descs);

/// The validated, fully-defaulted values of one spec. Every declared key is
/// present (explicit or default); typed getters throw on undeclared keys,
/// so readers cannot typo silently.
class ParamSet {
 public:
  /// Binds the `key=val,...` list `pairs` against `descs`. Unknown keys,
  /// malformed values and out-of-range values throw util::SpecError;
  /// `owner` names the grammar in diagnostics ("estimator ACBM"), and the
  /// unknown-key message lists every declared key with its default and
  /// range. `name` is the canonical prefix ("" for prefix-less grammars).
  [[nodiscard]] static ParamSet bind(std::string name, std::string_view pairs,
                                     std::vector<ParamDesc> descs,
                                     std::string_view owner);

  [[nodiscard]] double get_double(std::string_view key) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key) const;
  [[nodiscard]] std::uint64_t get_uint(std::string_view key) const;
  [[nodiscard]] bool get_bool(std::string_view key) const;
  /// Index of the bound value in the key's choice list.
  [[nodiscard]] std::size_t get_choice(std::string_view key) const;
  [[nodiscard]] const std::string& get_text(std::string_view key) const;

  /// Canonical spec: "NAME:key=val,..." (or just the pairs when the name is
  /// empty, or the bare name when no key is declared) with EVERY declared
  /// key at its effective value, in declaration order — stable across
  /// spellings of the same configuration and parseable back to it.
  [[nodiscard]] std::string to_spec() const;

 private:
  [[nodiscard]] std::size_t slot(std::string_view key,
                                 ParamDesc::Type type) const;

  std::string name_;
  std::vector<ParamDesc> descs_;
  std::vector<std::string> values_;  // canonical text, parallel to descs_
};

}  // namespace acbm::util
