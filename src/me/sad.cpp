#include "me/sad.hpp"

#include <cstdlib>

#include "simd/dispatch.hpp"

namespace acbm::me {

std::uint32_t sad_block(const video::Plane& cur, int cx, int cy,
                        const video::Plane& ref, int rx, int ry, int bw,
                        int bh) {
  const simd::SadKernels& k = simd::active_kernels();
  return k.sad(cur.row(cy) + cx, cur.stride(), ref.row(ry) + rx, ref.stride(),
               bw, bh);
}

std::uint32_t sad_block_halfpel(const video::Plane& cur, int cx, int cy,
                                const video::HalfpelPlanes& ref, int hx,
                                int hy, int bw, int bh) {
  const video::HalfpelSplit sx = video::split_halfpel(hx);
  const video::HalfpelSplit sy = video::split_halfpel(hy);
  // Fused interpolate+SAD straight off the integer plane: no phase plane is
  // read or built.
  const video::Plane& p = ref.integer_plane();
  const simd::SadKernels& k = simd::active_kernels();
  return k.sad_halfpel(cur.row(cy) + cx, cur.stride(),
                       p.row(sy.integer) + sx.integer, p.stride(), sx.phase,
                       sy.phase, bw, bh);
}

std::uint32_t block_sum(const video::Plane& cur, int cx, int cy, int bw,
                        int bh) {
  std::uint32_t sum = 0;
  for (int y = 0; y < bh; ++y) {
    const std::uint8_t* a = cur.row(cy + y) + cx;
    for (int x = 0; x < bw; ++x) {
      sum += a[x];
    }
  }
  return sum;
}

std::uint32_t block_mean(const video::Plane& cur, int cx, int cy, int bw,
                         int bh) {
  const std::uint32_t n = static_cast<std::uint32_t>(bw * bh);
  return n > 0 ? (block_sum(cur, cx, cy, bw, bh) + n / 2) / n : 0;
}

std::uint32_t intra_sad(const video::Plane& cur, int cx, int cy, int bw,
                        int bh) {
  const int mu = static_cast<int>(block_mean(cur, cx, cy, bw, bh));
  std::uint32_t total = 0;
  for (int y = 0; y < bh; ++y) {
    const std::uint8_t* a = cur.row(cy + y) + cx;
    for (int x = 0; x < bw; ++x) {
      total += static_cast<std::uint32_t>(std::abs(static_cast<int>(a[x]) - mu));
    }
  }
  return total;
}

}  // namespace acbm::me
