#include "sim/channel.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>

#include "util/kv.hpp"
#include "util/rng.hpp"

namespace acbm::sim {

namespace {

// Wire constants (mirrored from the format description in encoder.hpp; the
// simulator deliberately shares no code with either decoder so it can be
// aimed at them both).
constexpr std::uint32_t kMagicV1 = 0x41435631;  // "ACV1"
constexpr std::uint32_t kMagicV2 = 0x41435632;  // "ACV2"
constexpr std::uint32_t kSliceSync = 0x534C;    // "SL"
constexpr std::size_t kSequenceHeaderBytes = 12;
constexpr std::size_t kSliceHeaderBytes = 9;
/// Surrogate transport-unit size for ACV1 bodies (no slice directory).
constexpr std::size_t kV1CellBytes = 64;
/// Stream-splitting constant: damage-position draws come from an
/// independent PRNG so they never perturb the per-unit loss sequence
/// realize() exposes.
constexpr std::uint64_t kDamageStreamSalt = 0x6368616E6E656C21ull;

std::uint32_t read_u32(std::span<const std::uint8_t> data, std::size_t pos) {
  return (static_cast<std::uint32_t>(data[pos]) << 24) |
         (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
         (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
         static_cast<std::uint32_t>(data[pos + 3]);
}

std::uint32_t read_u16(std::span<const std::uint8_t> data, std::size_t pos) {
  return (static_cast<std::uint32_t>(data[pos]) << 8) |
         static_cast<std::uint32_t>(data[pos + 1]);
}

/// Model names, in ChannelModel order.
constexpr const char* kModelNames[] = {"iid", "gilbert", "trunc"};

/// The keys `config.model` takes, defaults from `config`.
std::vector<util::ParamDesc> channel_keys(const ChannelConfig& config) {
  using util::ParamDesc;
  if (config.model == ChannelModel::kTrunc) {
    return {ParamDesc::number("at", config.at, 0, 1,
                              "keep the first at*size bytes (1 = identity)")};
  }
  std::vector<ParamDesc> keys = {ParamDesc::number(
      "loss", config.loss, 0, 0.99, "stationary per-unit loss fraction")};
  if (config.model == ChannelModel::kGilbert) {
    keys.push_back(ParamDesc::integer("burst", config.burst, 1, 1000000,
                                      "mean burst length in units"));
  }
  keys.push_back(ParamDesc::unsigned_integer(
      "seed", config.seed, "PRNG seed; same seed, same realization"));
  // Choices in ChannelHit order.
  keys.push_back(ParamDesc::choice("hit", {"drop", "flip", "header"},
                                   static_cast<std::size_t>(config.hit),
                                   "what a lost unit suffers"));
  keys.push_back(ParamDesc::integer("flips", config.flips, 1, 64,
                                    "bit flips per hit unit"));
  return keys;
}

/// The per-unit loss decision process; one PRNG draw per unit in both
/// models, so the sequence is a pure function of (model, loss, burst, seed).
class LossProcess {
 public:
  explicit LossProcess(const ChannelConfig& config)
      : model_(config.model), loss_(config.loss), rng_(config.seed) {
    if (model_ == ChannelModel::kGilbert) {
      // Stationary loss fraction `loss`, mean burst length `burst`.
      p_bad_to_good_ = 1.0 / static_cast<double>(config.burst);
      p_good_to_bad_ =
          loss_ / (static_cast<double>(config.burst) * (1.0 - loss_));
    }
  }

  bool next() {
    if (model_ == ChannelModel::kIid) {
      return rng_.next_double() < loss_;
    }
    const bool lost = bad_;
    const double draw = rng_.next_double();
    bad_ = bad_ ? !(draw < p_bad_to_good_) : draw < p_good_to_bad_;
    return lost;
  }

 private:
  ChannelModel model_;
  double loss_;
  double p_good_to_bad_ = 0.0;
  double p_bad_to_good_ = 0.0;
  bool bad_ = false;  ///< gilbert state; starts in the good state
  util::Rng rng_;
};

void flip_bits(std::uint8_t* bytes, std::size_t size_bytes, int flips,
               util::Rng& damage_rng) {
  for (int i = 0; i < flips; ++i) {
    const std::uint32_t bit = damage_rng.next_below(
        static_cast<std::uint32_t>(size_bytes * 8));
    bytes[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  }
}

}  // namespace

std::string channel_spec_usage() {
  std::string out =
      "channel spec grammar: MODEL:key=val[,key=val...] over the models\n";
  for (std::size_t model = 0; model < std::size(kModelNames); ++model) {
    ChannelConfig config;
    config.model = static_cast<ChannelModel>(model);
    out += std::string(kModelNames[model]) + '\n' +
           util::describe_params(channel_keys(config));
  }
  return out;
}

ChannelConfig channel_config_from_spec(std::string_view spec) {
  auto [name, pairs] = util::split_spec_name(spec);
  const auto* model = std::find(std::begin(kModelNames),
                                std::end(kModelNames), name);
  if (model == std::end(kModelNames)) {
    throw util::SpecError("channel: unknown model \"" + name + "\"; " +
                          channel_spec_usage());
  }
  ChannelConfig config;
  config.model =
      static_cast<ChannelModel>(model - std::begin(kModelNames));
  const util::ParamSet params = util::ParamSet::bind(
      name, pairs, channel_keys(config), "channel " + name);
  if (config.model == ChannelModel::kTrunc) {
    config.at = params.get_double("at");
    return config;
  }
  config.loss = params.get_double("loss");
  if (config.model == ChannelModel::kGilbert) {
    config.burst = static_cast<int>(params.get_int("burst"));
  }
  config.seed = params.get_uint("seed");
  config.hit = static_cast<ChannelHit>(params.get_choice("hit"));
  config.flips = static_cast<int>(params.get_int("flips"));
  return config;
}

std::string to_spec(const ChannelConfig& config) {
  const char* name = kModelNames[static_cast<std::size_t>(config.model)];
  return util::ParamSet::bind(name, "", channel_keys(config), name).to_spec();
}

Channel::Channel(const ChannelConfig& config) : config_(config) {}

Channel::Channel(std::string_view spec)
    : config_(channel_config_from_spec(spec)) {}

std::string Channel::spec() const { return to_spec(config_); }

std::vector<bool> Channel::realize(std::size_t units) const {
  std::vector<bool> lost;
  if (config_.model == ChannelModel::kTrunc) {
    return lost;
  }
  lost.reserve(units);
  LossProcess process(config_);
  for (std::size_t i = 0; i < units; ++i) {
    lost.push_back(process.next());
  }
  return lost;
}

std::vector<std::uint8_t> Channel::apply(std::span<const std::uint8_t> data,
                                         ChannelReport* report) const {
  ChannelReport local;
  local.bytes_in = data.size();

  if (config_.model == ChannelModel::kTrunc) {
    const std::size_t keep = std::min(
        data.size(), static_cast<std::size_t>(
                         config_.at * static_cast<double>(data.size())));
    std::vector<std::uint8_t> out(data.begin(),
                                  data.begin() + static_cast<std::ptrdiff_t>(
                                                     keep));
    local.bytes_out = out.size();
    if (report != nullptr) {
      *report = local;
    }
    return out;
  }

  std::vector<std::uint8_t> out;
  const auto pass_through = [&] {
    out.assign(data.begin(), data.end());
    local.bytes_out = out.size();
    if (report != nullptr) {
      *report = local;
    }
    return out;
  };
  if (data.size() < kSequenceHeaderBytes) {
    return pass_through();
  }
  const std::uint32_t magic = read_u32(data, 0);
  if (magic != kMagicV1 && magic != kMagicV2) {
    return pass_through();
  }

  out.reserve(data.size());
  out.insert(out.end(), data.begin(),
             data.begin() + kSequenceHeaderBytes);
  std::size_t pos = kSequenceHeaderBytes;
  LossProcess process(config_);
  util::Rng damage_rng(config_.seed ^ kDamageStreamSalt);

  if (magic == kMagicV1) {
    // No directory to hop: fixed-size byte cells stand in for transport
    // units. Drops zero-fill so the stream keeps its length (mirroring
    // drop-with-known-extent semantics as closely as a directoryless
    // format allows); flip and header both degrade to bit flips.
    while (pos < data.size()) {
      const std::size_t cell = std::min(kV1CellBytes, data.size() - pos);
      const std::size_t start = out.size();
      out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(pos),
                 data.begin() + static_cast<std::ptrdiff_t>(pos + cell));
      ++local.units;
      if (process.next()) {
        if (config_.hit == ChannelHit::kDrop) {
          std::fill(out.begin() + static_cast<std::ptrdiff_t>(start),
                    out.end(), std::uint8_t{0});
          ++local.dropped;
        } else {
          flip_bits(out.data() + start, cell, config_.flips, damage_rng);
          ++local.flipped;
        }
      }
      pos += cell;
    }
    local.bytes_out = out.size();
    if (report != nullptr) {
      *report = local;
    }
    return out;
  }

  // ACV2: hop frame header -> slice count -> per-slice (header, payload).
  // The walk trusts the source stream's structure (the channel is the
  // *cause* of damage, not a consumer of it); anything that does not parse
  // ends the walk and the tail is copied verbatim.
  constexpr std::size_t kFrameHeaderBytes = 3;  // sync16 + type/qp/deblock
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderBytes + 1) {
      break;  // tail copied below
    }
    if (read_u16(data, pos) != 0x7E5A) {  // frame sync
      break;
    }
    const int slice_count = data[pos + kFrameHeaderBytes];
    if (slice_count < 1) {
      break;
    }
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(pos),
               data.begin() +
                   static_cast<std::ptrdiff_t>(pos + kFrameHeaderBytes + 1));
    std::size_t p = pos + kFrameHeaderBytes + 1;
    ++local.frames;
    bool walk_ok = true;
    for (int s = 0; s < slice_count && walk_ok; ++s) {
      if (data.size() - p < kSliceHeaderBytes) {
        walk_ok = false;
        break;
      }
      const std::uint32_t sync = read_u16(data, p);
      const int index = data[p + 2];
      const std::size_t payload =
          read_u32(data, p + 5);
      if (sync != kSliceSync || index != s ||
          payload > data.size() - (p + kSliceHeaderBytes)) {
        walk_ok = false;
        break;
      }
      ++local.units;
      const bool lost = process.next();
      const std::size_t header_start = out.size();
      out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(p),
                 data.begin() +
                     static_cast<std::ptrdiff_t>(p + kSliceHeaderBytes));
      if (lost && config_.hit == ChannelHit::kDrop) {
        // Remove the payload and rewrite the directory length to 0: the
        // transport knows the packet is gone. Empty payloads never decode,
        // so the slice is deterministically concealed downstream.
        out[header_start + 5] = 0;
        out[header_start + 6] = 0;
        out[header_start + 7] = 0;
        out[header_start + 8] = 0;
        ++local.dropped;
      } else if (lost && config_.hit == ChannelHit::kHeader) {
        flip_bits(out.data() + header_start, kSliceHeaderBytes,
                  config_.flips, damage_rng);
        out.insert(out.end(),
                   data.begin() +
                       static_cast<std::ptrdiff_t>(p + kSliceHeaderBytes),
                   data.begin() + static_cast<std::ptrdiff_t>(
                                      p + kSliceHeaderBytes + payload));
        ++local.directory_hits;
      } else {
        const std::size_t payload_start = out.size();
        out.insert(out.end(),
                   data.begin() +
                       static_cast<std::ptrdiff_t>(p + kSliceHeaderBytes),
                   data.begin() + static_cast<std::ptrdiff_t>(
                                      p + kSliceHeaderBytes + payload));
        if (lost && payload > 0) {
          flip_bits(out.data() + payload_start, payload, config_.flips,
                    damage_rng);
          ++local.flipped;
        }
      }
      p += kSliceHeaderBytes + payload;
    }
    pos = p;
    if (!walk_ok) {
      break;
    }
  }
  out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(pos),
             data.end());
  local.bytes_out = out.size();
  if (report != nullptr) {
    *report = local;
  }
  return out;
}

}  // namespace acbm::sim
