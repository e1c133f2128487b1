#pragma once
// Distortion metrics between planes/frames. PSNR over luma is the quality
// axis of the paper's Figs. 5 and 6.

#include "video/frame.hpp"
#include "video/plane.hpp"

namespace acbm::video {

/// Mean squared error over the visible areas; planes must match in size.
[[nodiscard]] double mse(const Plane& a, const Plane& b);

/// Peak signal-to-noise ratio in dB for 8-bit samples:
/// 10·log10(255² / MSE). Identical planes return +infinity.
[[nodiscard]] double psnr(const Plane& a, const Plane& b);

/// Luma-only PSNR between two frames (the paper reports Y-PSNR).
[[nodiscard]] double psnr_luma(const Frame& a, const Frame& b);

/// psnr_luma() and the combined 4:2:0 PSNR (Y:Cb:Cr weighted 4:1:1 by
/// sample count), from one pass over each plane.
struct FramePsnr {
  double y = 0.0;
  double yuv = 0.0;
};
[[nodiscard]] FramePsnr psnr_frame(const Frame& a, const Frame& b);

}  // namespace acbm::video
