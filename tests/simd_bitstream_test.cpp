// End-to-end kernel-dispatch invariant: selecting any SAD kernel variant is
// a pure throughput knob — encoding the same input under --kernel=scalar and
// every other variant this build/CPU offers (sse2, avx2, auto) must produce
// byte-identical ACV1 bitstreams, for estimators exercising the full-block
// kernel (ACBM, FSBM), the decimated kernels (FSBM-adec, FSBM-sub) and the
// fast searches, serial and threaded alike.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "codec/encoder.hpp"
#include "core/builtin_estimators.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"

namespace acbm::codec {
namespace {

std::vector<video::Frame> test_sequence(const std::string& name, int frames) {
  synth::SequenceRequest req;
  req.name = name;
  req.size = {64, 48};
  req.frame_count = frames;
  req.fps = 30;
  return synth::make_sequence(req);
}

std::vector<std::uint8_t> encode_with(const std::vector<video::Frame>& frames,
                                      const std::string& algorithm,
                                      const EncoderConfig& config) {
  const auto estimator = core::builtin_estimators().create(algorithm);
  Encoder encoder({frames[0].width(), frames[0].height()}, config,
                  *estimator);
  for (const video::Frame& frame : frames) {
    (void)encoder.encode_frame(frame);
  }
  return encoder.finish();
}

struct KernelSelectionGuard {
  ~KernelSelectionGuard() { simd::select_kernels(simd::KernelIsa::kAuto); }
};

TEST(SimdBitstream, ScalarAndAutoKernelsEncodeIdentically) {
  if (simd::kernels_for(simd::KernelIsa::kAuto) ==
      simd::kernels_for(simd::KernelIsa::kScalar)) {
    GTEST_SKIP() << "scalar-only build/CPU: nothing to compare";
  }
  KernelSelectionGuard guard;
  const auto frames = test_sequence("foreman", 6);
  EncoderConfig config;
  config.qp = 16;
  // ACBM/FSBM drive the full-block and four-candidate kernels, FSBM-adec/
  // FSBM-sub the quincunx and row-skip decimation kernels, DS a fast-search
  // candidate pattern. Every compiled variant — not only the one auto picks
  // — is held to the scalar stream.
  for (const std::string& algorithm :
       {std::string("ACBM"), std::string("FSBM"), std::string("FSBM-adec"),
        std::string("FSBM-sub"), std::string("DS")}) {
    ASSERT_TRUE(simd::select_kernels(simd::KernelIsa::kScalar));
    const auto scalar_stream = encode_with(frames, algorithm, config);
    for (const std::string& kernel : simd::available_kernel_names()) {
      if (kernel == "scalar") {
        continue;
      }
      ASSERT_TRUE(simd::select_kernels_by_name(kernel));
      const auto simd_stream = encode_with(frames, algorithm, config);
      EXPECT_EQ(scalar_stream, simd_stream)
          << algorithm << " bitstream differs between scalar and " << kernel;
    }
  }
}

TEST(SimdBitstream, KernelChoiceOrthogonalToThreadCount) {
  if (simd::kernels_for(simd::KernelIsa::kAuto) ==
      simd::kernels_for(simd::KernelIsa::kScalar)) {
    GTEST_SKIP() << "scalar-only build/CPU: nothing to compare";
  }
  KernelSelectionGuard guard;
  const auto frames = test_sequence("carphone", 5);
  EncoderConfig serial_config;
  serial_config.qp = 18;
  EncoderConfig threaded_config = serial_config;
  threaded_config.parallel.threads = 3;

  ASSERT_TRUE(simd::select_kernels(simd::KernelIsa::kScalar));
  const auto scalar_serial = encode_with(frames, "ACBM", serial_config);
  ASSERT_TRUE(simd::select_kernels(simd::KernelIsa::kAuto));
  const auto simd_threaded = encode_with(frames, "ACBM", threaded_config);
  EXPECT_EQ(scalar_serial, simd_threaded)
      << "kernel x thread-count grid must be one equivalence class";
}

}  // namespace
}  // namespace acbm::codec
