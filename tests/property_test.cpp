// Cross-module property tests: invariants swept over parameter grids with
// TEST_P — picture-size conformance (up to CIF), window algebra, quantizer
// monotonicity, median-predictor bounds, and ACBM's position-accounting
// identities.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "codec/quant.hpp"
#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "me/pbm.hpp"
#include "me/window.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"
#include "util/kv.hpp"
#include "util/rng.hpp"

namespace acbm {
namespace {

// ------------------------------------------------------- size conformance

class PictureSizeTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PictureSizeTest, EncodeDecodeParityAtAnyLegalSize) {
  const auto [w, h] = GetParam();
  synth::SequenceRequest req;
  req.name = "carphone";
  req.size = {w, h};
  req.frame_count = 2;
  const auto frames = synth::make_sequence(req);

  me::Pbm pbm;
  codec::EncoderConfig cfg;
  cfg.qp = 14;
  cfg.search_range = 7;
  codec::Encoder encoder({w, h}, cfg, pbm);
  std::vector<video::Frame> recons;
  for (const auto& f : frames) {
    (void)encoder.encode_frame(f);
    recons.push_back(encoder.last_recon());
  }
  codec::Decoder decoder(encoder.finish(), codec::DecoderConfig{});
  EXPECT_EQ(decoder.size().width, w);
  EXPECT_EQ(decoder.size().height, h);
  const auto decoded = decoder.decode_all();
  ASSERT_EQ(decoded.size(), recons.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_TRUE(decoded[i].y().visible_equals(recons[i].y()));
    EXPECT_TRUE(decoded[i].cb().visible_equals(recons[i].cb()));
    EXPECT_TRUE(decoded[i].cr().visible_equals(recons[i].cr()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PictureSizeTest,
    ::testing::Values(std::tuple{16, 16},    // single macroblock
                      std::tuple{48, 16},    // single row
                      std::tuple{16, 48},    // single column
                      std::tuple{64, 48},
                      std::tuple{176, 144},  // QCIF (the paper's format)
                      std::tuple{352, 288}), // CIF (also used by the paper)
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "x" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------------- window algebra

class WindowRangeTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowRangeTest, ClampIsIdempotentProjectionIntoWindow) {
  const int p = GetParam();
  const me::SearchWindow w = me::unrestricted_window(p);
  util::Rng rng(100 + static_cast<std::uint64_t>(p));
  for (int trial = 0; trial < 200; ++trial) {
    const me::Mv mv{rng.next_in_range(-100, 100), rng.next_in_range(-100, 100)};
    const me::Mv clamped = w.clamp(mv);
    EXPECT_TRUE(w.contains(clamped));
    EXPECT_EQ(w.clamp(clamped), clamped);          // idempotent
    if (w.contains(mv)) {
      EXPECT_EQ(clamped, mv);                      // identity inside
    }
    // Projection never moves a component past the original.
    EXPECT_LE(std::abs(clamped.x), std::max(std::abs(mv.x), 2 * p));
  }
}

TEST_P(WindowRangeTest, FullpelCountMatchesBruteForce) {
  const int p = GetParam();
  const me::SearchWindow w = me::unrestricted_window(p);
  int count = 0;
  for (int y = w.min_y; y <= w.max_y; ++y) {
    for (int x = w.min_x; x <= w.max_x; ++x) {
      if ((x & 1) == 0 && (y & 1) == 0) {
        ++count;
      }
    }
  }
  EXPECT_EQ(w.fullpel_positions(), count);
}

INSTANTIATE_TEST_SUITE_P(Ranges, WindowRangeTest,
                         ::testing::Values(1, 2, 3, 7, 15, 31));

// ----------------------------------------------------- quantizer properties

class QuantQpTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantQpTest, DequantQuantIsMonotoneNonDecreasing) {
  const int qp = GetParam();
  for (bool intra : {false, true}) {
    int prev = -100000;
    for (int c = -2000; c <= 2000; c += 13) {
      const int rec = codec::dequant_ac(codec::quant_ac(c, qp, intra), qp);
      EXPECT_GE(rec, prev) << "qp " << qp << " c " << c;
      prev = rec;
    }
  }
}

TEST_P(QuantQpTest, QuantisationIsOddSymmetric) {
  const int qp = GetParam();
  for (bool intra : {false, true}) {
    for (int c = 0; c <= 2000; c += 31) {
      EXPECT_EQ(codec::quant_ac(-c, qp, intra),
                -codec::quant_ac(c, qp, intra));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Qps, QuantQpTest,
                         ::testing::Values(1, 2, 5, 8, 13, 21, 31));

// ------------------------------------------------ median predictor bounds

TEST(MedianPredictorProperty, AlwaysWithinNeighbourEnvelope) {
  util::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    me::MvField field(5, 5);
    for (int by = 0; by < 5; ++by) {
      for (int bx = 0; bx < 5; ++bx) {
        field.set(bx, by,
                  {rng.next_in_range(-30, 30), rng.next_in_range(-30, 30)});
      }
    }
    for (int by = 1; by < 5; ++by) {
      for (int bx = 0; bx < 5; ++bx) {
        const me::Mv pred = field.median_predictor(bx, by);
        const me::Mv a = field.at_or(bx - 1, by);
        const me::Mv b = field.at_or(bx, by - 1);
        const me::Mv c = field.at_or(bx + 1, by - 1);
        EXPECT_GE(pred.x, std::min({a.x, b.x, c.x}));
        EXPECT_LE(pred.x, std::max({a.x, b.x, c.x}));
        EXPECT_GE(pred.y, std::min({a.y, b.y, c.y}));
        EXPECT_LE(pred.y, std::max({a.y, b.y, c.y}));
      }
    }
  }
}

// ----------------------------------------------- ACBM accounting identities

TEST(AcbmAccountingProperty, PositionsDecomposeExactly) {
  // For every block: accepted → positions == PBM positions + 1 (Intra_SAD);
  // critical → positions == PBM + 1 + FSBM(969). Verified against a PBM
  // run on the identical context.
  util::Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const acbm::test::SearchFixture fx(
        acbm::test::random_plane(96, 96, 300 + trial),
        acbm::test::random_plane(96, 96, 400 + trial));
    me::BlockContext ctx = fx.context(32, 32, 15);
    ctx.qp = 1 + static_cast<int>(rng.next_below(31));

    core::Acbm acbm;
    acbm.set_record_log(true);
    me::Pbm pbm;
    const me::EstimateResult ra = acbm.estimate(ctx);
    const me::EstimateResult rp = pbm.estimate(ctx);
    ASSERT_EQ(acbm.decision_log().size(), 1u);
    const bool critical = acbm.decision_log()[0].outcome ==
                          core::AcbmOutcome::kCritical;
    if (critical) {
      // FSBM contributes 961 integer positions plus 3–8 half-pel probes
      // (neighbours outside the window when the integer winner lies on the
      // boundary are not evaluated and hence not charged).
      EXPECT_GE(ra.positions, rp.positions + 1 + 961 + 3);
      EXPECT_LE(ra.positions, rp.positions + 1 + 961 + 8);
    } else {
      EXPECT_EQ(ra.positions, rp.positions + 1);
    }
    EXPECT_EQ(ra.used_full_search, critical);
  }
}

TEST(AcbmStatsProperty, CountersPartitionBlocks) {
  const acbm::test::SearchFixture fx(acbm::test::random_plane(96, 96, 500),
                                     acbm::test::random_plane(96, 96, 501));
  core::Acbm acbm;
  util::Rng rng(11);
  const int blocks = 40;
  for (int i = 0; i < blocks; ++i) {
    me::BlockContext ctx = fx.context(32, 32, 7);
    ctx.qp = 1 + static_cast<int>(rng.next_below(31));
    (void)acbm.estimate(ctx);
  }
  const core::AcbmStats s = acbm.stats();
  EXPECT_EQ(s.blocks, static_cast<std::uint64_t>(blocks));
  EXPECT_EQ(s.accepted_low_activity + s.accepted_good_match + s.critical,
            s.blocks);
}

// -------------------------------------------- determinism across instances

TEST(DeterminismProperty, IdenticalRunsProduceIdenticalStreams) {
  synth::SequenceRequest req;
  req.name = "table";
  req.size = {64, 48};
  req.frame_count = 4;
  auto encode = [&] {
    const auto frames = synth::make_sequence(req);
    core::Acbm acbm;
    codec::EncoderConfig cfg;
    cfg.qp = 18;
    cfg.search_range = 7;
    codec::Encoder encoder({64, 48}, cfg, acbm);
    for (const auto& f : frames) {
      (void)encoder.encode_frame(f);
    }
    return encoder.finish();
  };
  EXPECT_EQ(encode(), encode());
}

// ----------------------------------------- spec grammar round-trip property

/// Random valid value for one knob, rendered as spec text.
std::string random_param_text(const util::ParamDesc& desc, util::Rng& rng) {
  switch (desc.type) {
    case util::ParamDesc::Type::kBool:
      return rng.next_below(2) == 0 ? "0" : "1";
    case util::ParamDesc::Type::kChoice:
      return desc.choices[rng.next_below(desc.choices.size())];
    case util::ParamDesc::Type::kText:
      return desc.def;
    case util::ParamDesc::Type::kUint:
      return std::to_string(rng.next_below(1000));
    case util::ParamDesc::Type::kInt: {
      const std::int64_t lo = desc.min_int;
      const std::int64_t hi = desc.max_int;
      // Huge declared ranges: sample near the bottom plus the endpoints.
      const std::uint64_t span =
          std::min<std::uint64_t>(static_cast<std::uint64_t>(hi - lo), 1000);
      std::int64_t v = lo + static_cast<std::int64_t>(rng.next_below(span + 1));
      if (rng.next_below(8) == 0) {
        v = rng.next_below(2) == 0 ? lo : hi;
      }
      return std::to_string(v);
    }
    case util::ParamDesc::Type::kDouble: {
      const double lo = desc.min_value;
      const double hi = desc.max_value;
      const double t = static_cast<double>(rng.next_below(9)) / 8.0;
      const double span = std::min(hi - lo, 4000.0);
      std::ostringstream text;
      text << lo + span * t;
      return text.str();
    }
  }
  return "0";
}

// canonical_spec() must be a *projection*: every spelling of a configuration
// (any subset of keys, any key order) maps to one canonical string, and the
// canonical string is a fixed point that parses back to the same estimator.
TEST(SpecRoundTripProperty, CanonicalFormIsOrderInvariantAndIdempotent) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  util::Rng rng(2026);
  for (const std::string& name : registry.names()) {
    const std::vector<util::ParamDesc>& descs = registry.params(name);
    if (descs.empty()) {
      // Knob-less estimators: the bare name is its own canonical form.
      EXPECT_EQ(registry.canonical_spec(name), name);
      continue;
    }
    for (int trial = 0; trial < 25; ++trial) {
      // Random subset of knobs with random valid values...
      std::vector<std::string> pairs;
      for (const util::ParamDesc& desc : descs) {
        if (rng.next_below(2) == 0) {
          pairs.push_back(desc.key + "=" + random_param_text(desc, rng));
        }
      }
      auto render = [&name](const std::vector<std::string>& kv) {
        if (kv.empty()) {
          return name;
        }
        std::string spec = name + ":";
        for (std::size_t i = 0; i < kv.size(); ++i) {
          spec += (i > 0 ? "," : "") + kv[i];
        }
        return spec;
      };
      const std::string spec = render(pairs);
      const std::string canonical = registry.canonical_spec(spec);

      // ...is idempotent under canonicalisation,
      EXPECT_EQ(registry.canonical_spec(canonical), canonical) << spec;
      // carries every declared knob exactly once,
      const auto [parsed_name, tail] = util::split_spec_name(canonical);
      EXPECT_EQ(parsed_name, name);
      EXPECT_EQ(util::parse_kv_list(tail).size(), descs.size()) << canonical;
      // and is key-order independent: any permutation of the same pairs
      // canonicalises identically.
      for (int shuffle = 0; shuffle < 3 && pairs.size() > 1; ++shuffle) {
        for (std::size_t i = pairs.size(); i > 1; --i) {
          std::swap(pairs[i - 1], pairs[rng.next_below(i)]);
        }
        EXPECT_EQ(registry.canonical_spec(render(pairs)), canonical)
            << render(pairs);
      }
      // Both spellings construct successfully.
      EXPECT_NE(registry.create(spec), nullptr);
      EXPECT_NE(registry.create(canonical), nullptr);
    }
  }
}

}  // namespace
}  // namespace acbm
