#pragma once
// Picture-extension helpers beyond the per-plane replicated border.

#include "video/frame.hpp"
#include "video/plane.hpp"

namespace acbm::video {

/// Crops the visible area [x0, x0+w) × [y0, y0+h) of `src` into a new plane
/// with the requested border. The source rectangle may extend into `src`'s
/// border region. The result's border is edge-replicated.
Plane crop(const Plane& src, int x0, int y0, int w, int h,
           int border = Plane::kDefaultBorder);

/// Like crop(), but the result's border is filled with the *actual source
/// content* surrounding the rectangle instead of edge replication. Used by
/// the §3.1 truth sequences: a window that slides over a larger still image
/// must expose real context in its border, or unrestricted search at the
/// picture edge would compare against fabricated (replicated) samples.
/// Requires the expanded rectangle to fit within src's visible+border area.
Plane crop_with_context(const Plane& src, int x0, int y0, int w, int h,
                        int border = Plane::kDefaultBorder);

}  // namespace acbm::video
