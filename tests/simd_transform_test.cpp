// Transform kernel parity: every compiled-and-supported SIMD variant of the
// transform table must reproduce the scalar reference bit for bit — forward
// DCT doubles (memcmp), quantised levels over every Qp, dequantised
// coefficients over the whole int16 level range (the ±2047 clamp included),
// and rounded/clamped inverse DCT samples, including exact ±x.5 ties and
// ±limit saturation. A sliced (ACV2) stream must also decode to the same
// samples under every table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"
#include "util/rng.hpp"

namespace acbm::simd {
namespace {

using Samples = std::int16_t[kBlockSamples];

/// Every variant this build/CPU offers beyond the scalar reference.
std::vector<const TransformKernels*> vector_variants() {
  std::vector<const TransformKernels*> tables;
  for (KernelIsa isa : {KernelIsa::kSse2, KernelIsa::kAvx2}) {
    if (const TransformKernels* t = transforms_for(isa)) {
      tables.push_back(t);
    }
  }
  return tables;
}

const TransformKernels& scalar() { return *detail::scalar_transforms(); }

/// Restores the default (auto) selection when a test that pins the global
/// tables exits, so test order never matters.
struct KernelSelectionGuard {
  ~KernelSelectionGuard() { select_kernels(KernelIsa::kAuto); }
};

/// Random int16 block with entries in [lo, hi]; with `sparse`, each entry is
/// zero with probability 7/8 and whole rows/columns are often empty — the
/// shape of real dequantised blocks.
void random_block(util::Rng& rng, int lo, int hi, bool sparse,
                  std::int16_t out[kBlockSamples]) {
  const std::uint32_t zero_rows = sparse ? rng.next_below(256) : 0;
  const std::uint32_t zero_cols = sparse ? rng.next_below(256) : 0;
  for (int i = 0; i < kBlockSamples; ++i) {
    const int r = i / 8;
    const int c = i % 8;
    const bool zero = ((zero_rows >> r) & 1u) != 0 ||
                      ((zero_cols >> c) & 1u) != 0 ||
                      (sparse && rng.next_below(8) != 0);
    out[i] = zero ? 0
                  : static_cast<std::int16_t>(rng.next_in_range(lo, hi));
  }
}

TEST(SimdTransformDispatch, TablesAreFullyPopulatedAndFollowSelection) {
  KernelSelectionGuard guard;
  std::vector<const TransformKernels*> tables = vector_variants();
  tables.push_back(&scalar());
  for (const TransformKernels* t : tables) {
    EXPECT_NE(t->forward_dct, nullptr);
    EXPECT_NE(t->quantize, nullptr);
    EXPECT_NE(t->dequantize, nullptr);
    EXPECT_NE(t->inverse_dct_to_int, nullptr);
  }
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kSse2,
                        KernelIsa::kAvx2, KernelIsa::kAuto}) {
    if (!select_kernels(isa)) {
      EXPECT_EQ(transforms_for(isa), nullptr);
      continue;
    }
    EXPECT_EQ(&active_transforms(), transforms_for(isa));
    EXPECT_STREQ(active_transforms().name, active_kernels().name);
  }
}

TEST(SimdTransformParity, ForwardDctIsBitwiseIdentical) {
  util::Rng rng(0x7f0);
  for (const TransformKernels* t : vector_variants()) {
    SCOPED_TRACE(t->name);
    for (int iter = 0; iter < 3000; ++iter) {
      Samples in;
      switch (iter % 4) {
        case 0: random_block(rng, 0, 255, false, in); break;       // intra
        case 1: random_block(rng, -255, 255, false, in); break;    // residual
        case 2: random_block(rng, -255, 255, true, in); break;     // sparse
        default: random_block(rng, -32768, 32767, false, in); break;
      }
      double want[kBlockSamples];
      double got[kBlockSamples];
      scalar().forward_dct(in, want);
      t->forward_dct(in, got);
      ASSERT_EQ(std::memcmp(want, got, sizeof(want)), 0) << "iter " << iter;
    }
  }
}

TEST(SimdTransformParity, QuantizeMatchesOverEveryQp) {
  util::Rng rng(0x9a4);
  for (const TransformKernels* t : vector_variants()) {
    SCOPED_TRACE(t->name);
    for (int qp = 1; qp <= 31; ++qp) {
      for (bool intra : {false, true}) {
        for (int iter = 0; iter < 60; ++iter) {
          double coeffs[kBlockSamples];
          if (iter % 3 == 0) {
            // Real DCT outputs of residual blocks.
            Samples in;
            random_block(rng, -255, 255, iter % 2 == 0, in);
            scalar().forward_dct(in, coeffs);
          } else {
            // Values on and around every decision boundary k·2qp (+qp/2
            // for inter), both signs, plus ±0 and out-of-range magnitudes.
            for (int i = 0; i < kBlockSamples; ++i) {
              const double k = rng.next_in_range(0, 140);
              const double edge = k * 2.0 * qp + (intra ? 0.0 : qp / 2.0);
              const double nudge =
                  (static_cast<int>(rng.next_below(3)) - 1) *
                  std::ldexp(1.0, -40) * std::max(edge, 1.0);
              double c = edge + nudge;
              if (rng.next_below(16) == 0) {
                c = rng.next_below(2) != 0 ? 0.0 : -0.0;
              }
              coeffs[i] = rng.next_below(2) != 0 ? -c : c;
            }
          }
          Samples want;
          Samples got;
          scalar().quantize(coeffs, want, qp, intra);
          t->quantize(coeffs, got, qp, intra);
          ASSERT_EQ(std::memcmp(want, got, sizeof(want)), 0)
              << "qp " << qp << " intra " << intra << " iter " << iter;
        }
      }
    }
  }
}

TEST(SimdTransformParity, DequantizeMatchesIncludingClamp) {
  util::Rng rng(0xd3c);
  for (const TransformKernels* t : vector_variants()) {
    SCOPED_TRACE(t->name);
    for (int qp = 1; qp <= 31; ++qp) {
      for (bool intra : {false, true}) {
        // Every level around the clamp threshold for this qp, then the
        // int16 extremes and random levels.
        std::vector<int> levels;
        for (int l = 0; l <= 1100; ++l) {
          levels.push_back(l);
          levels.push_back(-l);
        }
        for (int l : {32767, -32767, -32768, 16384, -16384, 2047, -2048}) {
          levels.push_back(l);
        }
        for (int i = 0; i < 512; ++i) {
          levels.push_back(rng.next_in_range(-32768, 32767));
        }
        for (std::size_t base = 0; base < levels.size();
             base += kBlockSamples) {
          Samples in = {};
          for (int i = 0; i < kBlockSamples; ++i) {
            in[i] = static_cast<std::int16_t>(
                levels[(base + i) % levels.size()]);
          }
          Samples want;
          Samples got;
          scalar().dequantize(in, want, qp, intra);
          t->dequantize(in, got, qp, intra);
          ASSERT_EQ(std::memcmp(want, got, sizeof(want)), 0)
              << "qp " << qp << " intra " << intra << " base " << base;
        }
      }
    }
  }
  // The clamp is reached and respected.
  Samples in = {};
  in[1] = 1000;
  in[2] = -1000;
  Samples out;
  scalar().dequantize(in, out, 31, false);
  EXPECT_EQ(out[1], 2047);
  EXPECT_EQ(out[2], -2047);
}

TEST(SimdTransformParity, InverseDctToIntMatchesOnRandomBlocks) {
  util::Rng rng(0x1dc7);
  for (const TransformKernels* t : vector_variants()) {
    SCOPED_TRACE(t->name);
    for (int iter = 0; iter < 4000; ++iter) {
      Samples in;
      switch (iter % 4) {
        case 0: random_block(rng, -2047, 2047, true, in); break;
        case 1: random_block(rng, -2047, 2047, false, in); break;
        case 2: random_block(rng, -60, 60, true, in); break;
        default: random_block(rng, -32768, 32767, iter % 8 == 3, in); break;
      }
      for (int limit : {512, 300, 255, 0, 32767}) {
        Samples want;
        Samples got;
        scalar().inverse_dct_to_int(in, want, limit);
        t->inverse_dct_to_int(in, got, limit);
        ASSERT_EQ(std::memcmp(want, got, sizeof(want)), 0)
            << "iter " << iter << " limit " << limit;
      }
    }
  }
}

TEST(SimdTransformParity, InverseDctRoundsExactTiesAwayFromZero) {
  // Single-coefficient blocks whose unrounded output hits an exact ±x.5
  // somewhere: lround must move those away from zero in every variant.
  int ties_pos = 0;
  int ties_neg = 0;
  for (int pos = 0; pos < kBlockSamples; ++pos) {
    for (int v = -2047; v <= 2047; ++v) {
      double coeffs[kBlockSamples] = {};
      coeffs[pos] = v;
      double spatial[kBlockSamples];
      inverse_dct8x8_scalar(coeffs, spatial);
      int tie = -1;
      for (int i = 0; i < kBlockSamples; ++i) {
        if (std::fabs(spatial[i] - std::trunc(spatial[i])) == 0.5) {
          tie = i;
          break;
        }
      }
      if (tie < 0) {
        continue;
      }
      (spatial[tie] > 0 ? ties_pos : ties_neg) += 1;
      Samples in = {};
      in[pos] = static_cast<std::int16_t>(v);
      Samples want;
      scalar().inverse_dct_to_int(in, want, 32767);
      ASSERT_EQ(want[tie], static_cast<std::int16_t>(
                               spatial[tie] + (spatial[tie] > 0 ? 0.5 : -0.5)));
      for (const TransformKernels* t : vector_variants()) {
        Samples got;
        t->inverse_dct_to_int(in, got, 32767);
        ASSERT_EQ(std::memcmp(want, got, sizeof(want)), 0)
            << t->name << " pos " << pos << " v " << v;
      }
    }
  }
  EXPECT_GT(ties_pos, 10);
  EXPECT_GT(ties_neg, 10);
}

TEST(SimdTransformParity, InverseDctSaturatesAtLimit) {
  Samples in = {};
  in[0] = 2047;  // flat block at ≈ +255.9
  Samples neg = {};
  neg[0] = -2047;
  std::vector<const TransformKernels*> tables = vector_variants();
  tables.push_back(&scalar());
  for (const TransformKernels* t : tables) {
    SCOPED_TRACE(t->name);
    for (int limit : {0, 100, 255}) {
      Samples out;
      t->inverse_dct_to_int(in, out, limit);
      for (std::int16_t s : out) {
        ASSERT_EQ(s, limit);
      }
      t->inverse_dct_to_int(neg, out, limit);
      for (std::int16_t s : out) {
        ASSERT_EQ(s, -limit);
      }
    }
  }
}

TEST(SimdTransformParity, SlicedStreamDecodesIdenticallyUnderEveryTable) {
  KernelSelectionGuard guard;
  synth::SequenceRequest req;
  req.name = "foreman";
  req.frame_count = 6;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  codec::EncoderConfig config;
  config.qp = 6;
  config.slices = 3;  // ACV2
  config.intra_period = 4;
  const auto est = core::builtin_estimators().create("ACBM");
  codec::Encoder encoder(video::kQcif, config, *est);
  for (const video::Frame& frame : frames) {
    encoder.encode_frame(frame);
  }
  const std::vector<std::uint8_t> stream = encoder.finish();

  ASSERT_TRUE(select_kernels(KernelIsa::kScalar));
  const codec::DecodeReport want =
      codec::Decoder(stream, codec::DecoderConfig{}).decode_stream();
  ASSERT_EQ(want.frames, frames.size());
  for (KernelIsa isa : {KernelIsa::kSse2, KernelIsa::kAvx2}) {
    if (!select_kernels(isa)) {
      continue;
    }
    const codec::DecodeReport got =
        codec::Decoder(stream, codec::DecoderConfig{}).decode_stream();
    EXPECT_EQ(got.frames, want.frames) << active_kernel_name();
    EXPECT_EQ(got.sample_digest, want.sample_digest) << active_kernel_name();
  }
}

}  // namespace
}  // namespace acbm::simd
