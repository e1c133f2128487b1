#include "util/kv.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace acbm::util {

namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

std::uint64_t parse_uint_strict(std::string_view text,
                                const std::string& what) {
  const std::string token{trim(text)};
  if (token.empty()) {
    throw SpecError("spec: empty value for " + what);
  }
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(token.c_str(), &end, 10);
  // strtoull negates "-1" into UINT64_MAX; a seed spelled negative is an
  // error, not a wrap-around.
  if (token.front() == '-' || errno != 0 ||
      end != token.c_str() + token.size()) {
    throw SpecError("spec: \"" + token + "\" is not an unsigned integer for " +
                    what);
  }
  return value;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += separator;
    }
    out += items[i];
  }
  return out;
}

std::string describe(const ParamDesc& desc) {
  std::string line = desc.key + '=' + desc.def;
  switch (desc.type) {
    case ParamDesc::Type::kDouble:
      line += " (" + format_double(desc.min_value) + ".." +
              format_double(desc.max_value) + ')';
      break;
    case ParamDesc::Type::kInt:
      line += " (" + std::to_string(desc.min_int) + ".." +
              std::to_string(desc.max_int) + ')';
      break;
    case ParamDesc::Type::kUint:
      line += " (0.." +
              std::to_string(std::numeric_limits<std::uint64_t>::max()) + ')';
      break;
    case ParamDesc::Type::kBool:
      line += " (0|1)";
      break;
    case ParamDesc::Type::kChoice:
      line += " (" + join(desc.choices, "|") + ')';
      break;
    case ParamDesc::Type::kText:
      break;
  }
  return line + ": " + desc.help;
}

}  // namespace

std::vector<KeyValue> parse_kv_list(std::string_view text) {
  std::vector<KeyValue> pairs;
  if (trim(text).empty()) {
    return pairs;
  }
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    const std::string_view token = trim(text.substr(begin, end - begin));
    if (token.empty()) {
      throw SpecError("spec: empty key=value token in \"" +
                      std::string(text) + '"');
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      throw SpecError("spec: token \"" + std::string(token) +
                      "\" is not of the form key=value");
    }
    const std::string key{trim(token.substr(0, eq))};
    const std::string value{trim(token.substr(eq + 1))};
    if (key.empty()) {
      throw SpecError("spec: empty key in token \"" + std::string(token) +
                      '"');
    }
    for (const KeyValue& pair : pairs) {
      if (pair.first == key) {
        throw SpecError("spec: duplicate key \"" + key + '"');
      }
    }
    pairs.emplace_back(key, value);
    begin = end + 1;
    if (end == text.size()) {
      break;
    }
  }
  return pairs;
}

std::pair<std::string, std::string_view> split_spec_name(
    std::string_view spec) {
  const std::size_t colon = spec.find(':');
  std::string name{trim(spec.substr(0, colon))};
  if (name.empty()) {
    throw SpecError("spec: empty name in \"" + std::string(spec) + '"');
  }
  if (colon == std::string_view::npos) {
    return {std::move(name), {}};
  }
  const std::string_view tail = spec.substr(colon + 1);
  if (trim(tail).empty()) {
    throw SpecError("spec: \"" + std::string(spec) +
                    "\" has ':' but no key=value pairs (drop the colon for "
                    "all-default parameters)");
  }
  return {std::move(name), tail};
}

double parse_double_strict(std::string_view text, const std::string& what) {
  const std::string token{trim(text)};
  if (token.empty()) {
    throw SpecError("spec: empty value for " + what);
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  // Underflow is not an error: a subnormal (or flushed-to-zero) value still
  // renders back through format_double and must parse again.
  if ((errno == ERANGE && std::isinf(value)) ||
      end != token.c_str() + token.size()) {
    throw SpecError("spec: \"" + token + "\" is not a number for " + what);
  }
  return value;
}

std::int64_t parse_int_strict(std::string_view text, const std::string& what) {
  const std::string token{trim(text)};
  if (token.empty()) {
    throw SpecError("spec: empty value for " + what);
  }
  errno = 0;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) {
    throw SpecError("spec: \"" + token + "\" is not an integer for " + what);
  }
  return value;
}

bool parse_bool_strict(std::string_view text, const std::string& what) {
  const std::string_view token = trim(text);
  if (token == "1" || token == "true" || token == "on") {
    return true;
  }
  if (token == "0" || token == "false" || token == "off") {
    return false;
  }
  throw SpecError("spec: \"" + std::string(token) + "\" is not a boolean for " +
                  what + " (use 0/1/true/false/on/off)");
}

std::string format_double(double value) {
  char buffer[64];
  // Integral values that fit print as plain integers ("500", not "5e+02"):
  // the spec grammar's common case is a human-authored whole number, and
  // the canonical form should look like what the human wrote.
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    std::snprintf(buffer, sizeof buffer, "%lld",
                  static_cast<long long>(value));
    return buffer;
  }
  // Otherwise probe increasing precision until the representation
  // round-trips; %.17g always does, so the loop terminates.
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) {
      break;
    }
  }
  return buffer;
}

// --------------------------------------------------------------- ParamDesc

ParamDesc ParamDesc::number(std::string key, double def, double min_value,
                            double max_value, std::string help) {
  return {.key = std::move(key),
          .type = Type::kDouble,
          .help = std::move(help),
          .def = format_double(def),
          .min_value = min_value,
          .max_value = max_value};
}

ParamDesc ParamDesc::integer(std::string key, std::int64_t def,
                             std::int64_t min_value, std::int64_t max_value,
                             std::string help) {
  return {.key = std::move(key),
          .type = Type::kInt,
          .help = std::move(help),
          .def = std::to_string(def),
          .min_int = min_value,
          .max_int = max_value};
}

ParamDesc ParamDesc::unsigned_integer(std::string key, std::uint64_t def,
                                      std::string help) {
  return {.key = std::move(key),
          .type = Type::kUint,
          .help = std::move(help),
          .def = std::to_string(def)};
}

ParamDesc ParamDesc::boolean(std::string key, bool def, std::string help) {
  return {.key = std::move(key),
          .type = Type::kBool,
          .help = std::move(help),
          .def = def ? "1" : "0"};
}

ParamDesc ParamDesc::choice(std::string key, std::vector<std::string> choices,
                            std::size_t def, std::string help) {
  std::string def_text = choices.at(def);
  return {.key = std::move(key),
          .type = Type::kChoice,
          .help = std::move(help),
          .def = std::move(def_text),
          .choices = std::move(choices)};
}

ParamDesc ParamDesc::text(std::string key, std::string def,
                          std::string help) {
  return {.key = std::move(key),
          .type = Type::kText,
          .help = std::move(help),
          .def = std::move(def)};
}

std::string describe_params(const std::vector<ParamDesc>& descs) {
  if (descs.empty()) {
    return "  (no parameters)\n";
  }
  std::string out;
  for (const ParamDesc& desc : descs) {
    out += "  " + describe(desc) + '\n';
  }
  return out;
}

// ---------------------------------------------------------------- ParamSet

ParamSet ParamSet::bind(std::string name, std::string_view pairs,
                        std::vector<ParamDesc> descs, std::string_view owner) {
  ParamSet set;
  set.name_ = std::move(name);
  for (const ParamDesc& desc : descs) {
    set.values_.push_back(desc.def);
  }
  for (const auto& [key, text] : parse_kv_list(pairs)) {
    const auto it = std::find_if(
        descs.begin(), descs.end(),
        [&key](const ParamDesc& desc) { return desc.key == key; });
    if (it == descs.end()) {
      throw SpecError(std::string(owner) + ": unknown key \"" + key +
                      "\"; valid keys:\n" + describe_params(descs));
    }
    const ParamDesc& desc = *it;
    std::string& value =
        set.values_[static_cast<std::size_t>(it - descs.begin())];
    const std::string what = std::string(owner) + " key " + key;
    const auto out_of_range = [&](const std::string& lo,
                                  const std::string& hi) {
      return SpecError(std::string(owner) + ": " + key + '=' + text +
                       " out of range [" + lo + ", " + hi + ']');
    };
    switch (desc.type) {
      case ParamDesc::Type::kDouble: {
        const double number = parse_double_strict(text, what);
        if (!(number >= desc.min_value && number <= desc.max_value)) {
          throw out_of_range(format_double(desc.min_value),
                             format_double(desc.max_value));
        }
        value = format_double(number);
        break;
      }
      case ParamDesc::Type::kInt: {
        const std::int64_t number = parse_int_strict(text, what);
        if (number < desc.min_int || number > desc.max_int) {
          throw out_of_range(std::to_string(desc.min_int),
                             std::to_string(desc.max_int));
        }
        value = std::to_string(number);
        break;
      }
      case ParamDesc::Type::kUint:
        value = std::to_string(parse_uint_strict(text, what));
        break;
      case ParamDesc::Type::kBool:
        value.assign(1, parse_bool_strict(text, what) ? '1' : '0');
        break;
      case ParamDesc::Type::kChoice:
        if (std::find(desc.choices.begin(), desc.choices.end(), text) ==
            desc.choices.end()) {
          throw SpecError(std::string(owner) + ": " + key + '=' + text +
                          " is not one of {" + join(desc.choices, ", ") +
                          '}');
        }
        value = text;
        break;
      case ParamDesc::Type::kText:
        value = text;
        break;
    }
  }
  set.descs_ = std::move(descs);
  return set;
}

std::size_t ParamSet::slot(std::string_view key, ParamDesc::Type type) const {
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    if (descs_[i].key == key) {
      // A wrong-typed getter is a programming error in the reader, not user
      // input; assert in debug, fall through in release.
      assert(descs_[i].type == type);
      (void)type;
      return i;
    }
  }
  throw std::invalid_argument(name_ + ": read of undeclared key \"" +
                              std::string(key) + '"');
}

double ParamSet::get_double(std::string_view key) const {
  return std::strtod(values_[slot(key, ParamDesc::Type::kDouble)].c_str(),
                     nullptr);
}

std::int64_t ParamSet::get_int(std::string_view key) const {
  return std::strtoll(values_[slot(key, ParamDesc::Type::kInt)].c_str(),
                      nullptr, 10);
}

std::uint64_t ParamSet::get_uint(std::string_view key) const {
  return std::strtoull(values_[slot(key, ParamDesc::Type::kUint)].c_str(),
                       nullptr, 10);
}

bool ParamSet::get_bool(std::string_view key) const {
  return values_[slot(key, ParamDesc::Type::kBool)] == "1";
}

std::size_t ParamSet::get_choice(std::string_view key) const {
  const std::size_t i = slot(key, ParamDesc::Type::kChoice);
  const std::vector<std::string>& choices = descs_[i].choices;
  return static_cast<std::size_t>(
      std::find(choices.begin(), choices.end(), values_[i]) -
      choices.begin());
}

const std::string& ParamSet::get_text(std::string_view key) const {
  return values_[slot(key, ParamDesc::Type::kText)];
}

std::string ParamSet::to_spec() const {
  std::string out = name_;
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    if (i > 0) {
      out += ',';
    } else if (!name_.empty()) {
      out += ':';
    }
    out += descs_[i].key + '=' + values_[i];
  }
  return out;
}

}  // namespace acbm::util
