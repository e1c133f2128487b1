// Golden-digest regression for every registered estimator: pins what each
// search returns — positions paid, full-search blocks, the ME field — and
// the stream the encoder builds from it, against digests recorded from an
// earlier build. codec_golden_test pins only ACBM and the Table 1 rows only
// the paper's estimators, so this is what keeps the fast searches
// (TSS/NTSS/4SS/DS/HEXBS/CDS, the decimated full searches) honest through a
// refactor of the search library.
//
// Grid: every core::builtin_estimators() name plus FSBM:dec=quincunx and
// FSBM:dec=rowskip, × {range 15 half-pel λ 0, range 7 full-pel λ 0, range 4
// half-pel λ 4}, Qp 16, plus the paper's three estimators (FSBM, PBM, ACBM)
// at range 15 half-pel λ 14.72 = 0.92·16, whose fixed-point λ·256 = 3768.32
// truncates (λ 4 scales exactly). Each case encodes the four synthetic QCIF
// clips, 8 frames at 10 fps, and folds FNV-1a over every frame's me_positions,
// full_search_blocks and ME field, then the clip's stream bytes. The case
// runs at threads 1 and 4, which must give the same digest.
//
// Regenerating: build this file against the reference commit's library with
// an empty kGolden table; every case then fails and prints its table row.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

struct Golden {
  const char* name;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"ACBM/r15/hp/l0", 0x7c9c358beb7da46aull},
    {"ACBM/r7/fp/l0", 0x694e4ece86e1f8e7ull},
    {"ACBM/r4/hp/l4", 0x5eb203a340d3078cull},
    {"ACBM/r15/hp/l14.72", 0xc8b2d10d417238d1ull},
    {"FSBM/r15/hp/l0", 0xaa1d7278a1386789ull},
    {"FSBM/r7/fp/l0", 0x1bd411c84bf652c7ull},
    {"FSBM/r4/hp/l4", 0x970bfcca0f3d6d3bull},
    {"FSBM/r15/hp/l14.72", 0x96ab752c0b757785ull},
    {"PBM/r15/hp/l0", 0xf9a73a528547844ull},
    {"PBM/r7/fp/l0", 0x7071d03170c353cfull},
    {"PBM/r4/hp/l4", 0x85779bca54ba8b65ull},
    {"PBM/r15/hp/l14.72", 0xab6f2a44bd605881ull},
    {"TSS/r15/hp/l0", 0x8572820de31ce489ull},
    {"TSS/r7/fp/l0", 0x57475d688fdada5dull},
    {"TSS/r4/hp/l4", 0x9e1c9f4ddd4c8492ull},
    {"NTSS/r15/hp/l0", 0x88ef275a83404734ull},
    {"NTSS/r7/fp/l0", 0x296250a13240af89ull},
    {"NTSS/r4/hp/l4", 0x320f393c46f6a5beull},
    {"4SS/r15/hp/l0", 0x698ab903a3a08b4full},
    {"4SS/r7/fp/l0", 0x1ff4261b0cf6cd66ull},
    {"4SS/r4/hp/l4", 0x41da31d00e7ea82eull},
    {"DS/r15/hp/l0", 0xc41c38b4e926d110ull},
    {"DS/r7/fp/l0", 0xd1ccbdfb92a6feebull},
    {"DS/r4/hp/l4", 0x14e7699298d19356ull},
    {"HEXBS/r15/hp/l0", 0x9f29f858368fd597ull},
    {"HEXBS/r7/fp/l0", 0xa1884ccf214d9079ull},
    {"HEXBS/r4/hp/l4", 0x6b03bfcab6178b87ull},
    {"CDS/r15/hp/l0", 0xbf53d7f4d618387bull},
    {"CDS/r7/fp/l0", 0x9d5ad3ad9591ff7eull},
    {"CDS/r4/hp/l4", 0x32229cd2b7b303f7ull},
    {"FSBM-adec/r15/hp/l0", 0xaf85d3308ed54a4eull},
    {"FSBM-adec/r7/fp/l0", 0xb1923d9c845b9c4eull},
    {"FSBM-adec/r4/hp/l4", 0xf154ff9bb6315a2ull},
    {"FSBM-sub/r15/hp/l0", 0x375e2cd8ebcdd656ull},
    {"FSBM-sub/r7/fp/l0", 0x6b4fd85f4ef69136ull},
    {"FSBM-sub/r4/hp/l4", 0xb61f538af25c3395ull},
    {"FSBM:dec=quincunx/r15/hp/l0", 0xee2342b2d6e036c0ull},
    {"FSBM:dec=quincunx/r7/fp/l0", 0xac7ede3a01c51d2full},
    {"FSBM:dec=quincunx/r4/hp/l4", 0x1da29b3eaa4528f3ull},
    {"FSBM:dec=rowskip/r15/hp/l0", 0xdc43806ccdb934c6ull},
    {"FSBM:dec=rowskip/r7/fp/l0", 0xecd51cf2a9ce93f5ull},
    {"FSBM:dec=rowskip/r4/hp/l4", 0xf0c219d0cde15176ull},
};

struct SearchConfig {
  const char* label;
  int range;
  bool half_pel;
  double me_lambda;
  bool paper_estimators_only = false;
};

constexpr SearchConfig kConfigs[] = {
    {"r15/hp/l0", 15, true, 0.0},
    {"r7/fp/l0", 7, false, 0.0},
    {"r4/hp/l4", 4, true, 4.0},
    {"r15/hp/l14.72", 15, true, 14.72, true},
};

bool is_paper_estimator(const std::string& spec) {
  return spec == "FSBM" || spec == "PBM" || spec == "ACBM";
}

class Fnv1a {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      add_byte(static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }
  void add(const std::vector<std::uint8_t>& bytes) {
    for (std::uint8_t b : bytes) {
      add_byte(b);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void add_byte(std::uint8_t b) { h_ = (h_ ^ b) * 0x100000001b3ull; }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

const std::vector<std::vector<video::Frame>>& clips() {
  static const std::vector<std::vector<video::Frame>> all = [] {
    std::vector<std::vector<video::Frame>> out;
    for (const std::string& seq : synth::standard_sequence_names()) {
      synth::SequenceRequest req;
      req.name = seq;
      req.frame_count = 8;
      req.fps = 10;
      out.push_back(synth::make_sequence(req));
    }
    return out;
  }();
  return all;
}

std::uint64_t digest(const std::string& spec, const SearchConfig& search,
                     int threads) {
  Fnv1a h;
  for (const std::vector<video::Frame>& frames : clips()) {
    EncoderConfig config;
    config.search_range = search.range;
    config.half_pel = search.half_pel;
    config.me_lambda = search.me_lambda;
    config.parallel.threads = threads;
    config.fps_num = 10;
    const auto est = core::builtin_estimators().create(spec);
    Encoder encoder(video::kQcif, config, *est);
    for (const video::Frame& frame : frames) {
      const FrameReport r = encoder.encode_frame(frame);
      h.add(r.me_positions);
      h.add(r.full_search_blocks);
      if (!r.intra) {
        const me::MvField& field = encoder.last_me_field();
        for (int by = 0; by < field.mbs_y(); ++by) {
          for (int bx = 0; bx < field.mbs_x(); ++bx) {
            const me::Mv mv = field.at(bx, by);
            h.add(static_cast<std::uint32_t>(mv.x));
            h.add(static_cast<std::uint32_t>(mv.y));
          }
        }
      }
    }
    h.add(encoder.finish());
  }
  return h.value();
}

const Golden* find_golden(const std::string& name) {
  for (const Golden& g : kGolden) {
    if (name == g.name) {
      return &g;
    }
  }
  return nullptr;
}

std::vector<std::string> specs() {
  std::vector<std::string> out = core::builtin_estimators().names();
  out.emplace_back("FSBM:dec=quincunx");
  out.emplace_back("FSBM:dec=rowskip");
  return out;
}

TEST(MeGolden, EveryEstimatorMatchesPinnedDigests) {
  int cases = 0;
  for (const std::string& spec : specs()) {
    for (const SearchConfig& search : kConfigs) {
      if (search.paper_estimators_only && !is_paper_estimator(spec)) {
        continue;
      }
      const std::string name = spec + "/" + search.label;
      const std::uint64_t serial = digest(spec, search, 1);
      EXPECT_EQ(digest(spec, search, 4), serial) << name;
      const Golden* g = find_golden(name);
      EXPECT_TRUE(g != nullptr && g->digest == serial)
          << "actual row: {\"" << name << "\", 0x" << std::hex << serial
          << "ull},";
      ++cases;
    }
  }
  EXPECT_EQ(cases, 42);
  EXPECT_EQ(std::size(kGolden), 42u);
}

}  // namespace
}  // namespace acbm::codec
