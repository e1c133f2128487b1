// libFuzzer entry point for the decoder — the frontier layer of the
// verification pyramid (docs/TESTING.md).
//
// Two properties are enforced on every input:
//   1. Robustness: codec::Decoder must either decode or throw DecodeError.
//      Any other escape (crash, sanitizer report, uncaught exception) is a
//      finding.
//   2. Differential correctness: on small inputs the naive RefDecoder must
//      reach the same outcome — same frame count, same samples, same
//      concealment count, or an error on both sides — in BOTH decode
//      policies: the default strict-directory mode and conceal=resync,
//      where each implementation independently follows the normative
//      recovery rules of docs/RESILIENCE.md. The reference decoder is
//      orders of magnitude slower, so the differential check is gated on
//      input/geometry size to keep fuzzing throughput useful; the optimized
//      decoder still runs (under sanitizers) on every input.
//
// Build: cmake -DACBM_BUILD_FUZZERS=ON with a clang toolchain, then run
// build/decode_fuzzer tests/fuzz/corpus. Without clang the same entry point
// links into decode_fuzzer_driver, which replays a corpus directory and
// backs the fuzz_corpus_regression ctest (see tests/fuzz/fuzz_driver_main.cpp
// and scripts/make_corpus.py).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "codec/decoder.hpp"
#include "codec/ref_decoder.hpp"

namespace {

constexpr std::size_t kDifferentialMaxBytes = 1 << 16;
constexpr int kDifferentialMaxDimension = 352;

struct Outcome {
  bool error = false;
  std::size_t frames = 0;
  std::uint64_t concealed = 0;
  std::uint64_t resync_skips = 0;
  std::uint64_t digest = 0;
};

void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

Outcome optimized_outcome(std::span<const std::uint8_t> input, bool resync) {
  Outcome out;
  try {
    acbm::codec::DecoderConfig config;
    config.conceal = resync ? acbm::codec::Concealment::kResync
                            : acbm::codec::Concealment::kSlice;
    acbm::codec::Decoder decoder(input, config);
    while (auto frame = decoder.decode_frame()) {
      ++out.frames;
      for (int y = 0; y < frame->height(); ++y) {
        for (int x = 0; x < frame->width(); ++x) {
          mix(out.digest, frame->y().row(y)[x]);
        }
      }
      for (int y = 0; y < frame->height() / 2; ++y) {
        for (int x = 0; x < frame->width() / 2; ++x) {
          mix(out.digest, frame->cb().row(y)[x]);
          mix(out.digest, frame->cr().row(y)[x]);
        }
      }
    }
    out.concealed = decoder.report().concealed_slices;
    out.resync_skips = decoder.report().resync_skips;
  } catch (const acbm::codec::DecodeError&) {
    out.error = true;
  }
  return out;
}

Outcome reference_outcome(std::span<const std::uint8_t> input, bool resync) {
  Outcome out;
  try {
    acbm::codec::RefDecoder decoder(input, resync);
    while (auto frame = decoder.decode_frame()) {
      ++out.frames;
      for (std::uint8_t s : frame->y) {
        mix(out.digest, s);
      }
      for (std::size_t i = 0; i < frame->cb.size(); ++i) {
        mix(out.digest, frame->cb[i]);
        mix(out.digest, frame->cr[i]);
      }
    }
    out.concealed = decoder.concealed_slices();
    out.resync_skips = decoder.resync_skips();
  } catch (const acbm::codec::RefDecodeError&) {
    out.error = true;
  }
  return out;
}

[[noreturn]] void differential_failure(const char* what, const Outcome& opt,
                                       const Outcome& ref) {
  std::fprintf(stderr,
               "decoder disagreement (%s): optimized{error=%d frames=%zu "
               "concealed=%llu resync=%llu digest=%llx} reference{error=%d "
               "frames=%zu concealed=%llu resync=%llu digest=%llx}\n",
               what, opt.error, opt.frames,
               static_cast<unsigned long long>(opt.concealed),
               static_cast<unsigned long long>(opt.resync_skips),
               static_cast<unsigned long long>(opt.digest), ref.error,
               ref.frames, static_cast<unsigned long long>(ref.concealed),
               static_cast<unsigned long long>(ref.resync_skips),
               static_cast<unsigned long long>(ref.digest));
  std::abort();
}

void check_differential(std::span<const std::uint8_t> input, bool resync) {
  const Outcome opt = optimized_outcome(input, resync);
  const Outcome ref = reference_outcome(input, resync);
  if (ref.error != opt.error) {
    differential_failure(resync ? "error class (resync)" : "error class",
                         opt, ref);
  }
  if (!ref.error &&
      (ref.frames != opt.frames || ref.concealed != opt.concealed ||
       ref.resync_skips != opt.resync_skips || ref.digest != opt.digest)) {
    differential_failure(resync ? "decoded output (resync)"
                                : "decoded output",
                         opt, ref);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);

  bool small = size <= kDifferentialMaxBytes;
  if (small) {
    try {
      const acbm::codec::Decoder probe(input, acbm::codec::DecoderConfig{});
      small = probe.size().width <= kDifferentialMaxDimension &&
              probe.size().height <= kDifferentialMaxDimension;
    } catch (const acbm::codec::DecodeError&) {
      // Sequence-header rejection: still cross-checked below (the reference
      // must reject it too), and trivially cheap.
    }
  }

  if (!small) {
    // Too big to cross-check against the naive decoder at fuzzing speed;
    // still exercise the optimized path fully (under the sanitizers).
    try {
      acbm::codec::Decoder decoder(input, acbm::codec::DecoderConfig{});
      while (decoder.decode_frame()) {
      }
    } catch (const acbm::codec::DecodeError&) {
    }
    return 0;
  }

  check_differential(input, /*resync=*/false);
  check_differential(input, /*resync=*/true);
  return 0;
}
