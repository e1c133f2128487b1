#pragma once
// Shared fixtures/builders for the test suite.

#include <cstdint>
#include <utility>

#include "me/estimator.hpp"
#include "synth/texture.hpp"
#include "util/rng.hpp"
#include "video/frame.hpp"
#include "video/interp.hpp"
#include "video/pad.hpp"
#include "video/plane.hpp"

namespace acbm::test {

/// A plane filled with uniform random samples — maximally textured content,
/// which makes block matches unique (good for optimality checks).
inline video::Plane random_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* row = p.row(y);
    for (int x = 0; x < w; ++x) {
      row[x] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  p.extend_border();
  return p;
}

/// A smooth low-texture plane (ramp + small sinusoid-free) for ambiguous-
/// match scenarios.
inline video::Plane smooth_plane(int w, int h, int base = 96) {
  video::Plane p(w, h);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* row = p.row(y);
    for (int x = 0; x < w; ++x) {
      row[x] = static_cast<std::uint8_t>((base + (x + y) / 8) & 0xFF);
    }
  }
  p.extend_border();
  return p;
}

/// Builds (reference, current) where current equals reference shifted by the
/// integer displacement (dx, dy): block matching from current to reference
/// should find mv = (2·dx, 2·dy) in half-pel units.
inline std::pair<video::Plane, video::Plane> shifted_pair(
    int w, int h, int dx, int dy, std::uint64_t seed, int margin = 24) {
  const video::Plane big = random_plane(w + 2 * margin, h + 2 * margin, seed);
  video::Plane ref = video::crop(big, margin, margin, w, h);
  video::Plane cur = video::crop(big, margin + dx, margin + dy, w, h);
  return {std::move(ref), std::move(cur)};
}

/// Like shifted_pair(), but over *smooth* fractal texture whose SAD landscape
/// decreases monotonically toward the true displacement — the terrain the
/// gradient-following fast searches (TSS/4SS/DS/CDS) are designed for.
/// (On iid random content those algorithms legitimately get lost.)
inline std::pair<video::Plane, video::Plane> smooth_shifted_pair(
    int w, int h, int dx, int dy, std::uint64_t seed, int margin = 24) {
  synth::TextureSpec spec;
  spec.seed = seed;
  spec.scale = 0.025;  // feature size ≫ search range: cone-shaped SAD
  spec.octaves = 2;
  spec.amplitude = 90.0;
  const video::Plane big =
      synth::make_noise_texture(w + 2 * margin, h + 2 * margin, spec);
  video::Plane ref = video::crop(big, margin, margin, w, h);
  video::Plane cur = video::crop(big, margin + dx, margin + dy, w, h);
  return {std::move(ref), std::move(cur)};
}

/// The reference sample at half-pel position (hx, hy) (integer position X
/// is hx = 2X), computed one sample at a time through the bounds-checked
/// Plane::at with H.263 rounding. The per-sample oracle that the library's
/// per-block interpolation (codec::predict_block, the fused interpolate+SAD
/// kernels) is checked against. Coordinates may reach into the border,
/// minus the one sample an interpolation reads past them.
inline std::uint8_t sample_halfpel(const video::Plane& p, int hx, int hy) {
  const int phase_h = hx & 1;
  const int phase_v = hy & 1;
  const int x = (hx - phase_h) / 2;
  const int y = (hy - phase_v) / 2;
  if (phase_h == 0 && phase_v == 0) {
    return p.at(x, y);
  }
  if (phase_v == 0) {
    return static_cast<std::uint8_t>((p.at(x, y) + p.at(x + 1, y) + 1) >> 1);
  }
  if (phase_h == 0) {
    return static_cast<std::uint8_t>((p.at(x, y) + p.at(x, y + 1) + 1) >> 1);
  }
  return static_cast<std::uint8_t>(
      (p.at(x, y) + p.at(x + 1, y) + p.at(x, y + 1) + p.at(x + 1, y + 1) + 2) >>
      2);
}

/// The (phase_h, phase_v) phase plane of `src`, sampled one position at a
/// time with sample_halfpel(): an independent oracle for the fused
/// interpolate+SAD kernels and on-the-fly motion compensation. Interpolation
/// consumes one sample on the +x/+y side, so the result carries one less
/// border sample than `src`.
inline video::Plane phase_plane(const video::Plane& src, int phase_h,
                                int phase_v) {
  const int b = src.border() - 1;
  video::Plane out(src.width(), src.height(), b);
  for (int y = -b; y < src.height() + b; ++y) {
    for (int x = -b; x < src.width() + b; ++x) {
      out.set(x, y, sample_halfpel(src, 2 * x + phase_h, 2 * y + phase_v));
    }
  }
  return out;
}

/// Standard BlockContext for a block at (x, y) with a ±p window.
///
/// `ref_half` views this fixture's own `ref`, so the fixture can be neither
/// copied nor moved: a copy would leave its view on the original's plane.
struct SearchFixture {
  video::Plane ref;
  video::Plane cur;
  video::HalfpelPlanes ref_half;

  SearchFixture(video::Plane r, video::Plane c)
      : ref(std::move(r)), cur(std::move(c)), ref_half(ref) {}
  SearchFixture(const SearchFixture&) = delete;
  SearchFixture& operator=(const SearchFixture&) = delete;

  [[nodiscard]] me::BlockContext context(int x, int y, int range = 15) const {
    me::BlockContext ctx;
    ctx.cur = &cur;
    ctx.ref = &ref_half;
    ctx.x = x;
    ctx.y = y;
    ctx.bx = x / me::kBlockSize;
    ctx.by = y / me::kBlockSize;
    ctx.window = me::unrestricted_window(range);
    return ctx;
  }
};

}  // namespace acbm::test
