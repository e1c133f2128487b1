#pragma once
// Magic numbers and sync words of the ACV1/ACV2 bitstreams (layout in
// encoder.hpp's header comment), shared by codec::Encoder and
// codec::Decoder. Dependency-free so the decoder can use it without
// linking the encoder.
//
// codec::RefDecoder and sim::Channel keep their own copies on purpose: the
// reference decoder is the differential oracle and the channel simulator
// aims damage at both decoders, so each is written from the format
// description and shares no code with the implementation it checks.

#include <cstdint>

namespace acbm::codec {

inline constexpr std::uint32_t kSequenceMagic = 0x41435631;    // "ACV1"
inline constexpr std::uint32_t kSequenceMagicV2 = 0x41435632;  // "ACV2"
inline constexpr std::uint32_t kFrameSync = 0x7E5A;
/// Marker starting every slice header in ACV2 streams ("SL"). Lets a decoder
/// that lost a slice's payload re-verify it is standing on the next header
/// before trusting its fields.
inline constexpr std::uint32_t kSliceSync = 0x534C;
/// u8 on the wire bounds the per-frame slice count.
inline constexpr int kMaxSlices = 255;

}  // namespace acbm::codec
