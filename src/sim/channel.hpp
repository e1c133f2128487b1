#pragma once
// Deterministic lossy-channel simulator for ACV1/ACV2 bitstreams.
//
// A channel is configured through the project's spec grammar,
// "MODEL:key=val,...", and damages a stream at *slice granularity*: it
// walks each ACV2 frame's slice directory via the payload-length hops (the
// same mechanism the decoder's resynchronisation uses) and treats every
// slice payload as one transport unit. The loss model decides per unit
// whether it arrives; a lost unit is then damaged according to the `hit`
// mode:
//
//   hit=drop    the payload bytes are removed and the directory's length
//               field is rewritten to 0 — models a transport that knows the
//               packet is gone (RTP sequence gap). An empty payload can
//               never decode, so a dropped slice is always concealed.
//   hit=flip    `flips` bit flips at seeded positions inside the payload —
//               models residual bit errors that survive the transport CRC.
//   hit=header  a bit flip inside the slice's 9-byte directory entry — the
//               adversarial mode: it attacks the resynchronisation metadata
//               itself rather than the entropy-coded payload.
//
// Models:
//   iid:loss=0.05,seed=7[,hit=drop,flips=3]     independent per-unit loss
//   gilbert:loss=0.05,burst=8,seed=7[,...]      Gilbert-Elliott two-state
//       bursty loss; `loss` is the stationary loss fraction and `burst` the
//       mean burst length in units (p(good->bad) = loss/(burst*(1-loss)),
//       p(bad->good) = 1/burst)
//   trunc:at=0.5                                keep the first at*size bytes
//
// ACV1 streams have no slice directory, so the body after the 12-byte
// sequence header is split into fixed 64-byte cells as surrogate transport
// units (drop zero-fills a cell so stream length is preserved). Everything
// is deterministic: same spec + same input => byte-identical output, across
// platforms (util::Rng is xoshiro256++, not std::mt19937).
//
// loss=0 (or trunc:at=1) is the identity: the output is byte-identical to
// the input and the report counts zero damaged units.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acbm::sim {

/// What happens to a transport unit the loss model marks as lost.
enum class ChannelHit { kDrop, kFlip, kHeader };

/// Which stochastic process decides per-unit loss.
enum class ChannelModel { kIid, kGilbert, kTrunc };

struct ChannelConfig {
  ChannelModel model = ChannelModel::kIid;
  double loss = 0.0;           ///< stationary loss fraction, [0, 0.99]
  int burst = 8;               ///< gilbert mean burst length (units), >= 1
  std::uint64_t seed = 1;      ///< PRNG seed; same seed => same realization
  ChannelHit hit = ChannelHit::kDrop;
  int flips = 3;               ///< bit flips per hit unit (flip/header), >= 1
  double at = 0.5;             ///< trunc keep fraction, [0, 1]
};

/// @brief Parses "MODEL:key=val,..." (models iid, gilbert, trunc).
/// @throws util::SpecError on unknown models/keys, malformed values and
///         out-of-range values; an unknown model's message embeds
///         channel_spec_usage(), an unknown key's the model's key list.
[[nodiscard]] ChannelConfig channel_config_from_spec(std::string_view spec);

/// Canonical spec of `config`: the model name plus every key the model
/// uses, in declaration order. Round-trips through
/// channel_config_from_spec.
[[nodiscard]] std::string to_spec(const ChannelConfig& config);

/// The grammar, one line per model with keys, defaults and ranges.
[[nodiscard]] std::string channel_spec_usage();

/// Damage accounting of one apply() run.
struct ChannelReport {
  std::uint64_t frames = 0;          ///< frames walked
  std::uint64_t units = 0;           ///< transport units seen
  std::uint64_t dropped = 0;         ///< units removed (hit=drop)
  std::uint64_t flipped = 0;         ///< payloads bit-flipped (hit=flip)
  std::uint64_t directory_hits = 0;  ///< directory entries hit (hit=header)
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class Channel {
 public:
  explicit Channel(const ChannelConfig& config);
  /// Convenience: parse + construct. @throws util::SpecError
  explicit Channel(std::string_view spec);

  [[nodiscard]] const ChannelConfig& config() const { return config_; }
  /// The canonical spec (what acbm_dec echoes into the DecodeReport).
  [[nodiscard]] std::string spec() const;

  /// Runs `data` through the channel and returns the damaged stream.
  /// Stateless across calls: the PRNG restarts from the seed, so the same
  /// input always yields the same output. An input too short or without an
  /// ACV1/ACV2 magic passes through unchanged (trunc still truncates — it
  /// has no structural needs). Length fields the walk cannot trust (a
  /// malformed source) end the walk; the unparsed tail is copied verbatim.
  [[nodiscard]] std::vector<std::uint8_t> apply(
      std::span<const std::uint8_t> data,
      ChannelReport* report = nullptr) const;

  /// The per-unit loss sequence the model would produce for `units`
  /// consecutive transport units — exactly the decisions apply() consumes,
  /// in stream order (damage-position draws come from an independent
  /// stream, so they do not perturb this sequence). Exposed so tests can
  /// assert seeded determinism and the Gilbert burst-length distribution
  /// without parsing bitstreams. Empty for the trunc model.
  [[nodiscard]] std::vector<bool> realize(std::size_t units) const;

 private:
  ChannelConfig config_;
};

}  // namespace acbm::sim
