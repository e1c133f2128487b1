// Golden-digest regression: pins the exact encoded bytes and decoded samples
// of a fixed grid of synthetic encodes. Every other byte-identity check in
// the suite compares two code paths of the same build against each other;
// this one compares against digests recorded from an earlier build, so a
// change that moves every path in lockstep (the forward DCT, quantisation,
// the shared reconstruction) still fails here.
//
// Grid: the four standard sequences × Qp {4, 16, 30} × {heuristic, RD} mode
// decision × intra_period {0, 5}, 10 QCIF frames each, ACBM estimator, the
// process's default (auto) kernel table. Each case pins FNV-1a over the
// stream bytes and DecodeReport::sample_digest of decoding that stream.
// Every frame's reported PSNRs are pinned bit for bit to the plain per-plane
// double loop below.
//
// Regenerating: build this file against the reference commit's library with
// an empty kGolden table; every case then fails and prints its table row.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

struct Golden {
  const char* name;
  std::uint64_t stream_fnv;
  std::uint64_t sample_digest;
};

constexpr Golden kGolden[] = {
    {"carphone/qp4/heuristic/intra0", 0xb3db341b855ac321ull, 0xcf2da50066f992f6ull},
    {"carphone/qp4/heuristic/intra5", 0x30b01d8956c77ee0ull, 0x52aeb51a36a53091ull},
    {"carphone/qp4/rd/intra0", 0xffd625aae0314c1bull, 0xd6bd3da657fc4e96ull},
    {"carphone/qp4/rd/intra5", 0xee95a57879714afull, 0xb63e9a29c721645aull},
    {"carphone/qp16/heuristic/intra0", 0x7319b3bcb771f1b2ull, 0x5fa7cfa0db8bcfa3ull},
    {"carphone/qp16/heuristic/intra5", 0x963dd936a3dd8336ull, 0xac1fecb68aad3b1bull},
    {"carphone/qp16/rd/intra0", 0x2a174c0bd06fd6e7ull, 0x56597768fb3f46fdull},
    {"carphone/qp16/rd/intra5", 0xffdec483a390b30full, 0x1f738c65588f47bdull},
    {"carphone/qp30/heuristic/intra0", 0xd496d432fab12a62ull, 0xbe55a10a624c65d9ull},
    {"carphone/qp30/heuristic/intra5", 0xa733e3dc73439852ull, 0x82818b26296cae91ull},
    {"carphone/qp30/rd/intra0", 0x6acf4b6181a3cdf2ull, 0x788200ab0a37500dull},
    {"carphone/qp30/rd/intra5", 0xbfe57371f253b71cull, 0x3913df2268eeba5cull},
    {"foreman/qp4/heuristic/intra0", 0xeb95913a267bc97bull, 0x3ea512577f5693a3ull},
    {"foreman/qp4/heuristic/intra5", 0xc0ad59c7b8fde84full, 0xab5276e4143ae655ull},
    {"foreman/qp4/rd/intra0", 0x8b3ca6de204c09d5ull, 0x494ca06d87518c8full},
    {"foreman/qp4/rd/intra5", 0x64616b0d7b5e354eull, 0xb7aff9de55dd2a00ull},
    {"foreman/qp16/heuristic/intra0", 0xb271d977dc9de50dull, 0x89a1e3a1756fb7ddull},
    {"foreman/qp16/heuristic/intra5", 0x209717259d881057ull, 0xcc36a200f7fe7bc7ull},
    {"foreman/qp16/rd/intra0", 0x4215d6e9fd3882e4ull, 0xfc6b851aef1c5c0ull},
    {"foreman/qp16/rd/intra5", 0x15fab9908631df9eull, 0x94e68931e2e15715ull},
    {"foreman/qp30/heuristic/intra0", 0x825cef3353970212ull, 0x6482fa960b32fd65ull},
    {"foreman/qp30/heuristic/intra5", 0x288467d189b109full, 0x7d85820c3328119cull},
    {"foreman/qp30/rd/intra0", 0xfbf88129d4086ffeull, 0x2fd8fa5c03e50e68ull},
    {"foreman/qp30/rd/intra5", 0x32e48b3d1f9f1eadull, 0x2a8dd5b6fd1fe2f5ull},
    {"miss_america/qp4/heuristic/intra0", 0x332bcb28934b23ull, 0x8e66507e0e0985e5ull},
    {"miss_america/qp4/heuristic/intra5", 0x704e254cd29ff2c8ull, 0x8d6d2bfeac8cb159ull},
    {"miss_america/qp4/rd/intra0", 0x1bf2060d52c7e5aeull, 0xf9df0595e0be120eull},
    {"miss_america/qp4/rd/intra5", 0x817564fb6977ee9full, 0xda4c847cc76a87a2ull},
    {"miss_america/qp16/heuristic/intra0", 0xb807c526c928e085ull, 0xc6eb1bbafb063d78ull},
    {"miss_america/qp16/heuristic/intra5", 0x101a435151ea8dd2ull, 0xb0ac0a3620f22b86ull},
    {"miss_america/qp16/rd/intra0", 0xeeff1cfb7507ffbeull, 0xf702c7c90cb02878ull},
    {"miss_america/qp16/rd/intra5", 0x81f8d52df577873cull, 0xf2e895e882268954ull},
    {"miss_america/qp30/heuristic/intra0", 0x5ef1886d97840e15ull, 0x64497d31198c3881ull},
    {"miss_america/qp30/heuristic/intra5", 0xfd4610eb8bbc8650ull, 0xf5dc6832d956387eull},
    {"miss_america/qp30/rd/intra0", 0x5600199cd26d54full, 0x817fe83422209ddaull},
    {"miss_america/qp30/rd/intra5", 0x6d46e75399ec8b5full, 0x40e54756bf8e2e4eull},
    {"table/qp4/heuristic/intra0", 0x736a500a703eb92ull, 0x7ac3b66af4a3f92ull},
    {"table/qp4/heuristic/intra5", 0xf8b7783eb7462ec6ull, 0x149e11a6d9cadb17ull},
    {"table/qp4/rd/intra0", 0x60260b219804acabull, 0x924c893db1b63271ull},
    {"table/qp4/rd/intra5", 0xd9b386a712237ad3ull, 0x9f075b2d460cf5a6ull},
    {"table/qp16/heuristic/intra0", 0x34b876e29b6d8fb5ull, 0x53bd8cc8a44be885ull},
    {"table/qp16/heuristic/intra5", 0x614b679ac4d6c08aull, 0xf4c7660027545b0ull},
    {"table/qp16/rd/intra0", 0xc9b53a652dbee55aull, 0x2c973e499b30e349ull},
    {"table/qp16/rd/intra5", 0xbf2219b66759789ull, 0xf96f9c0c7f82cbd9ull},
    {"table/qp30/heuristic/intra0", 0xb2990b7d2208b393ull, 0x75375f1d22929abbull},
    {"table/qp30/heuristic/intra5", 0x236ec96dc0c39bd5ull, 0x272b60f75acc972aull},
    {"table/qp30/rd/intra0", 0x77d5ccc2e47ab51eull, 0xe07a963c8c611152ull},
    {"table/qp30/rd/intra5", 0xcb34483772757706ull, 0x73cd61318487fdddull},
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : bytes) {
    h = (h ^ b) * 0x100000001b3ull;
  }
  return h;
}

// Sum of squared sample differences over the visible area, in raster order.
double plane_sse(const video::Plane& a, const video::Plane& b) {
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    for (int x = 0; x < a.width(); ++x) {
      const double d =
          static_cast<double>(a.at(x, y)) - static_cast<double>(b.at(x, y));
      sse += d * d;
    }
  }
  return sse;
}

double psnr_of_mse(double mse) {
  return mse <= 0.0 ? std::numeric_limits<double>::infinity()
                    : 10.0 * std::log10(255.0 * 255.0 / mse);
}

// FrameReport::psnr_y and psnr_yuv equal, bit for bit, the luma PSNR and
// the 4:2:0 PSNR over the Y, Cb and Cr sums added in that order.
void expect_reported_psnr(const FrameReport& r, const video::Frame& src,
                          const video::Frame& recon) {
  const double sse_y = plane_sse(src.y(), recon.y());
  const double sse = sse_y + plane_sse(src.cb(), recon.cb()) +
                     plane_sse(src.cr(), recon.cr());
  const double n_y = static_cast<double>(src.width()) * src.height();
  EXPECT_EQ(r.psnr_y, psnr_of_mse(sse_y / n_y));
  EXPECT_EQ(r.psnr_yuv, psnr_of_mse(sse / (n_y * 3.0 / 2.0)));
}

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) {
      return &g;
    }
  }
  return nullptr;
}

TEST(CodecGolden, StreamsAndDecodesMatchPinnedDigests) {
  int cases = 0;
  for (const std::string& seq : synth::standard_sequence_names()) {
    synth::SequenceRequest req;
    req.name = seq;
    req.frame_count = 10;
    const std::vector<video::Frame> frames = synth::make_sequence(req);
    for (int qp : {4, 16, 30}) {
      for (bool rd : {false, true}) {
        for (int intra_period : {0, 5}) {
          EncoderConfig config;
          config.qp = qp;
          config.intra_period = intra_period;
          config.mode_decision =
              rd ? ModeDecision::kRateDistortion : ModeDecision::kHeuristic;
          const auto est = core::builtin_estimators().create("ACBM");
          Encoder encoder(video::kQcif, config, *est);
          for (const video::Frame& frame : frames) {
            const FrameReport r = encoder.encode_frame(frame);
            expect_reported_psnr(r, frame, encoder.last_recon());
          }
          const std::vector<std::uint8_t> stream = encoder.finish();
          Decoder decoder(stream, DecoderConfig{});
          const DecodeReport report = decoder.decode_stream();
          ASSERT_EQ(report.error_class, DecodeErrorClass::kNone);
          ASSERT_EQ(report.frames, frames.size());

          const std::string name = seq + "/qp" + std::to_string(qp) +
                                   (rd ? "/rd" : "/heuristic") + "/intra" +
                                   std::to_string(intra_period);
          const std::uint64_t stream_fnv = fnv1a(stream);
          const Golden* g = find_golden(name);
          const bool match = g != nullptr && g->stream_fnv == stream_fnv &&
                             g->sample_digest == report.sample_digest;
          EXPECT_TRUE(match) << "actual row: {\"" << name << "\", 0x"
                             << std::hex << stream_fnv << "ull, 0x"
                             << report.sample_digest << "ull},";
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
  EXPECT_EQ(std::size(kGolden), 48u);
}

}  // namespace
}  // namespace acbm::codec
