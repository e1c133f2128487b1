// Engineering microbenchmarks (google-benchmark): the kernels the paper's
// complexity argument counts — SAD variants, half-pel interpolation, the
// search algorithms per block, DCT, and whole-encoder throughput. Not a
// paper artefact; used to sanity-check that the position counts in Table 1
// translate into real time.
//
// The BM_SadKernel/* family and the transform rows BM_ForwardDct8x8Kernel/*,
// BM_InverseDct8x8ToInt/* and BM_QuantizeBlock/* are registered once per
// compiled-and-supported SIMD variant (scalar, sse2, avx2) and call that
// variant's table directly, so one run reports per-variant throughput side
// by side — the measurement behind docs/BENCHMARKING.md's kernel speedup
// tables. Everything else goes through me::sad_block and friends, i.e. the
// globally selected table: `--kernel=scalar|sse2|avx2|auto` (parsed here
// before google-benchmark's own flags) pins it for A/B runs of the search
// and encoder benchmarks.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/rd_sweep.hpp"
#include "codec/dct.hpp"
#include "codec/encoder.hpp"
#include "core/acbm.hpp"
#include "me/block_sums.hpp"
#include "me/decimation.hpp"
#include "me/full_search.hpp"
#include "me/pbm.hpp"
#include "me/sad.hpp"
#include "obs/metrics.hpp"
#include "simd/dispatch.hpp"
#include "synth/sequences.hpp"
#include "util/rng.hpp"
#include "video/interp.hpp"

// test::phase_plane, the one pre-interpolated phase-plane builder.
#include "../tests/test_support.hpp"

namespace {

using namespace acbm;

video::Plane bench_plane(int w, int h, std::uint64_t seed) {
  video::Plane p(w, h);
  util::Rng rng(seed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      p.set(x, y, static_cast<std::uint8_t>(rng.next_below(256)));
    }
  }
  p.extend_border();
  return p;
}

// ------------------------------------------------------ per-variant kernels

/// Full-block 16×16 SAD straight through one variant's table entry.
/// bytes/s across the BM_SadKernel/<variant> rows is the per-variant
/// throughput comparison (256 block bytes per call).
void sad_kernel_variant(benchmark::State& state, const simd::SadKernels* k) {
  const video::Plane a = bench_plane(176, 144, 1);
  const video::Plane b = bench_plane(176, 144, 2);
  int offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k->sad(a.row(32) + 32, a.stride(), b.row(32) + 32 + (offset & 7),
               b.stride(), 16, 16));
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256);
}

/// Four adjacent 16×16 candidates per call through one variant's sad_x4
/// slot. Items are candidates (4 per call), so items/s and the per-item
/// time compare directly with BM_SadKernel16x16/<variant>'s one-per-call.
void sad_kernel_x4_variant(benchmark::State& state,
                           const simd::SadKernels* k) {
  const video::Plane a = bench_plane(176, 144, 1);
  const video::Plane b = bench_plane(176, 144, 2);
  std::uint32_t sads[4];
  int offset = 0;
  for (auto _ : state) {
    k->sad_x4(a.row(32) + 32, a.stride(), b.row(32) + 32 + (offset & 7),
              b.stride(), 16, 16, sads);
    benchmark::DoNotOptimize(sads);
    ++offset;
  }
  state.SetItemsProcessed(4 * state.iterations());
  state.SetBytesProcessed(4 * state.iterations() * 256);
}

void sad_kernel_quincunx_variant(benchmark::State& state,
                                 const simd::SadKernels* k) {
  const video::Plane a = bench_plane(176, 144, 5);
  const video::Plane b = bench_plane(176, 144, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->sad_quincunx(a.row(32) + 32, a.stride(),
                                             b.row(34) + 36, b.stride(), 16,
                                             16));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 64);  // 4:1 of 256
}

/// Half-pel SAD the way the encoder once did it: against a phase plane
/// pre-interpolated once per frame, through one variant's plain `sad`
/// entry. The plane build itself is outside the loop — this row is the
/// per-candidate cost the fused kernel competes with; the fused path also
/// skips that whole-frame interpolation pass.
void sad_halfpel_preinterp_variant(benchmark::State& state,
                                   const simd::SadKernels* k) {
  const video::Plane cur = bench_plane(176, 144, 21);
  const video::Plane ref = bench_plane(176, 144, 22);
  // HV, the expensive phase; one less border sample than `ref`, the
  // layout the baseline rows timed.
  const video::Plane phase = test::phase_plane(ref, 1, 1);
  int offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        k->sad(cur.row(32) + 32, cur.stride(),
               phase.row(30) + 30 + (offset & 7), phase.stride(), 16, 16));
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256);
}

/// The fused interpolate+SAD path (HV phase) through the globally selected
/// table — registered as BM_SadHalfpel/fused. Beating the preinterp
/// /scalar row per call while skipping the whole-frame interpolation pass
/// is the win the reserved sad_halfpel slot existed for.
void BM_SadHalfpelFused(benchmark::State& state) {
  const video::Plane cur = bench_plane(176, 144, 21);
  const video::Plane ref = bench_plane(176, 144, 22);
  const video::HalfpelPlanes hp(ref);
  int offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(me::sad_block_halfpel(
        cur, 32, 32, hp, 2 * (30 + (offset & 7)) + 1, 2 * 30 + 1, 16, 16));
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256);
}

/// A dense ±64 residual block, its coefficients, and its inter levels at
/// Qp 8 after dequantisation (42 of 64 nonzero, every row and column
/// occupied, so the inverse rows time the full product with no skipped
/// terms).
struct TransformBlocks {
  std::int16_t residual[codec::kDctSamples];
  double coeffs[codec::kDctSamples];
  std::int16_t dequantized[codec::kDctSamples];

  TransformBlocks() {
    util::Rng rng(11);
    for (auto& v : residual) {
      v = static_cast<std::int16_t>(rng.next_in_range(-64, 64));
    }
    const simd::TransformKernels& scalar = *simd::transforms_for(
        simd::KernelIsa::kScalar);
    scalar.forward_dct(residual, coeffs);
    std::int16_t levels[codec::kDctSamples];
    scalar.quantize(coeffs, levels, 8, /*intra=*/false);
    scalar.dequantize(levels, dequantized, 8, /*intra=*/false);
  }
};

void forward_dct_variant(benchmark::State& state,
                         const simd::TransformKernels* t) {
  const TransformBlocks blocks;
  double out[codec::kDctSamples];
  for (auto _ : state) {
    t->forward_dct(blocks.residual, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}

void inverse_dct_to_int_variant(benchmark::State& state,
                                const simd::TransformKernels* t) {
  const TransformBlocks blocks;
  std::int16_t out[codec::kDctSamples];
  for (auto _ : state) {
    t->inverse_dct_to_int(blocks.dequantized, out, 512);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}

void quantize_block_variant(benchmark::State& state,
                            const simd::TransformKernels* t) {
  const TransformBlocks blocks;
  std::int16_t levels[codec::kDctSamples];
  for (auto _ : state) {
    t->quantize(blocks.coeffs, levels, 8, /*intra=*/false);
    benchmark::DoNotOptimize(levels);
  }
  state.SetItemsProcessed(state.iterations());
}

/// One per-variant registration for every table the build/CPU offers.
void register_kernel_variant_benchmarks() {
  for (simd::KernelIsa isa : {simd::KernelIsa::kScalar,
                              simd::KernelIsa::kSse2,
                              simd::KernelIsa::kAvx2}) {
    const simd::SadKernels* k = simd::kernels_for(isa);
    if (k == nullptr) {
      continue;
    }
    const std::string suffix = k->name;
    benchmark::RegisterBenchmark(("BM_SadKernel16x16/" + suffix).c_str(),
                                 sad_kernel_variant, k);
    benchmark::RegisterBenchmark(("BM_SadKernelX4/" + suffix).c_str(),
                                 sad_kernel_x4_variant, k);
    benchmark::RegisterBenchmark(
        ("BM_SadKernelQuincunx/" + suffix).c_str(),
        sad_kernel_quincunx_variant, k);
    benchmark::RegisterBenchmark(("BM_SadHalfpel/" + suffix).c_str(),
                                 sad_halfpel_preinterp_variant, k);
    const simd::TransformKernels* t = simd::transforms_for(isa);
    benchmark::RegisterBenchmark(("BM_ForwardDct8x8Kernel/" + suffix).c_str(),
                                 forward_dct_variant, t);
    benchmark::RegisterBenchmark(("BM_InverseDct8x8ToInt/" + suffix).c_str(),
                                 inverse_dct_to_int_variant, t);
    benchmark::RegisterBenchmark(("BM_QuantizeBlock/" + suffix).c_str(),
                                 quantize_block_variant, t);
  }
  benchmark::RegisterBenchmark("BM_SadHalfpel/fused", BM_SadHalfpelFused);
}

// --------------------------------------------- dispatched-path benchmarks

void BM_Sad16x16(benchmark::State& state) {
  const video::Plane a = bench_plane(176, 144, 1);
  const video::Plane b = bench_plane(176, 144, 2);
  int offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        me::sad_block(a, 32, 32, b, 32 + (offset & 7), 32, 16, 16));
    ++offset;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * 256);
}
BENCHMARK(BM_Sad16x16);

void BM_SadDecimatedQuincunx(benchmark::State& state) {
  const video::Plane a = bench_plane(176, 144, 5);
  const video::Plane b = bench_plane(176, 144, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(me::sad_block_decimated(
        a, 32, 32, b, 36, 34, 16, 16, me::DecimationPattern::kQuincunx4to1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SadDecimatedQuincunx);

void BM_IntraSad16x16(benchmark::State& state) {
  const video::Plane a = bench_plane(176, 144, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(me::intra_sad(a, 32, 32, 16, 16));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IntraSad16x16);

template <typename Estimator>
void run_search_benchmark(benchmark::State& state, int range) {
  const video::Plane ref = bench_plane(176, 144, 9);
  const video::Plane cur = bench_plane(176, 144, 10);
  const video::HalfpelPlanes hp(ref);
  Estimator estimator;
  me::BlockContext ctx;
  ctx.cur = &cur;
  ctx.ref = &hp;
  ctx.x = 80;
  ctx.y = 64;
  ctx.window = me::unrestricted_window(range);
  std::uint64_t positions = 0;
  for (auto _ : state) {
    const me::EstimateResult r = estimator.estimate(ctx);
    positions += r.positions;
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["positions/block"] = benchmark::Counter(
      static_cast<double>(positions) / static_cast<double>(state.iterations()));
}

void BM_FullSearchP15(benchmark::State& state) {
  run_search_benchmark<me::FullSearch>(state, 15);
}
BENCHMARK(BM_FullSearchP15)->Unit(benchmark::kMicrosecond);

// Full search as the encoder runs FSBM: per macroblock row, the row's
// block-sum band is built, then each of its blocks is searched with it, so
// the successive elimination bound skips SADs. Two consecutive synthetic
// foreman QCIF frames give the bound real motion to prune on (the
// unrelated random planes of BM_FullSearchP15 take no band). One iteration
// is one frame; the counters are per block.
void run_band_benchmark(benchmark::State& state, double lambda) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.frame_count = 2;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  video::Plane ref = frames[0].y();
  ref.extend_border();
  const video::Plane& cur = frames[1].y();
  const video::HalfpelPlanes hp(ref);
  const me::FullSearch fsbm;
  me::BlockSumBand band;
  constexpr int kRange = 15;
  std::uint64_t blocks = 0;
  std::uint64_t positions = 0;
  std::uint64_t sads = 0;
  for (auto _ : state) {
    for (int y = 0; y + me::kBlockSize <= cur.height(); y += me::kBlockSize) {
      band.build(ref, y, kRange);
      for (int x = 0; x + me::kBlockSize <= cur.width();
           x += me::kBlockSize) {
        me::BlockContext ctx;
        ctx.cur = &cur;
        ctx.ref = &hp;
        ctx.x = x;
        ctx.y = y;
        ctx.window = me::unrestricted_window(kRange);
        ctx.cost = me::MotionCost(lambda);
        ctx.sums = &band;
        const me::EstimateResult r = fsbm.estimate(ctx);
        ++blocks;
        positions += r.positions;
        sads += r.sad_evaluations;
        benchmark::DoNotOptimize(r);
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(blocks));
  state.counters["positions/block"] = benchmark::Counter(
      static_cast<double>(positions) / static_cast<double>(blocks));
  state.counters["SADs/block"] = benchmark::Counter(
      static_cast<double>(sads) / static_cast<double>(blocks));
}

void BM_FullSearchP15Band(benchmark::State& state) {
  run_band_benchmark(state, 0.0);
}
BENCHMARK(BM_FullSearchP15Band)->Unit(benchmark::kMicrosecond);
// The rate-aware row: λ = 0.92·Qp 16 prices every candidate's vector bits.
[[maybe_unused]] const benchmark::internal::Benchmark* const
    kFullSearchP15BandLambda =
        benchmark::RegisterBenchmark("BM_FullSearchP15Band/lambda:14.72",
                                     run_band_benchmark, 14.72)
            ->Unit(benchmark::kMicrosecond);

void BM_PbmP15(benchmark::State& state) {
  run_search_benchmark<me::Pbm>(state, 15);
}
BENCHMARK(BM_PbmP15)->Unit(benchmark::kMicrosecond);

void BM_AcbmP15(benchmark::State& state) {
  run_search_benchmark<core::Acbm>(state, 15);
}
BENCHMARK(BM_AcbmP15)->Unit(benchmark::kMicrosecond);

void BM_ForwardDct8x8(benchmark::State& state) {
  std::int16_t in[codec::kDctSamples];
  util::Rng rng(11);
  for (auto& v : in) {
    v = static_cast<std::int16_t>(rng.next_in_range(-255, 255));
  }
  double out[codec::kDctSamples];
  for (auto _ : state) {
    codec::forward_dct8x8(in, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForwardDct8x8);

void BM_EntropyStage(benchmark::State& state) {
  // Entropy-stage (MVD/entropy coding + reconstruction) scaling across
  // slice counts, reported via the pipeline's own stage clock (the
  // "enc.stage.entropy" histogram's sum, in manual time) so the row keeps
  // measuring the stage it is named after, not the front stage's
  // macroblock planning: slices:1 is the serial legacy path, slices:N
  // writes N independently-predicted slices on N pool workers. Intra
  // frames skip motion/mode, and CIF gives the stage enough macroblocks to
  // amortise dispatch.
  const int slices = static_cast<int>(state.range(0));
  synth::SequenceRequest req;
  req.name = "carphone";
  req.size = video::kCif;
  req.frame_count = 1;
  const auto frames = synth::make_sequence(req);
  core::Acbm acbm;  // never consulted: every frame is intra
  codec::EncoderConfig cfg;
  cfg.qp = 16;
  cfg.intra_period = 1;
  cfg.slices = slices;
  cfg.parallel.threads = slices;
  obs::Registry registry;
  const obs::Histogram& entropy = registry.histogram("enc.stage.entropy");
  for (auto _ : state) {
    // Fresh encoder per iteration (outside the manual-time region): a
    // reused one would accumulate the dead bitstream in its writer, and
    // the destructor joins the pool threads — costs that grow with the
    // slices arg and would bias the scaling this row exists to show.
    auto enc = std::make_unique<codec::Encoder>(video::kCif, cfg, acbm);
    enc->set_metrics(&registry);
    const std::uint64_t before_ns = entropy.sum();
    const codec::FrameReport report = enc->encode_frame(frames[0]);
    state.SetIterationTime(static_cast<double>(entropy.sum() - before_ns) *
                           1e-9);
    benchmark::DoNotOptimize(report.bits);
    enc.reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntropyStage)
    ->ArgName("slices")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_EncodeQcifFrame(benchmark::State& state) {
  // Whole-encoder throughput with ACBM at the paper's operating point.
  synth::SequenceRequest req;
  req.name = "carphone";
  req.frame_count = 2;
  const auto frames = synth::make_sequence(req);
  for (auto _ : state) {
    state.PauseTiming();
    core::Acbm acbm;
    codec::EncoderConfig cfg;
    cfg.qp = 16;
    codec::Encoder enc(video::kQcif, cfg, acbm);
    (void)enc.encode_frame(frames[0]);  // intra frame excluded from timing
    state.ResumeTiming();
    benchmark::DoNotOptimize(enc.encode_frame(frames[1]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeQcifFrame)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: peel our --kernel flag off argv (google-benchmark rejects
// unknown flags), select the global table, then register the per-variant
// benchmarks and hand over to the library.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string kernel = "auto";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      kernel = argv[i] + 9;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!acbm::simd::select_kernels_by_name(kernel)) {
    std::fprintf(stderr,
                 "unknown or unavailable --kernel '%s' on this build/CPU "
                 "(use scalar|sse2|avx2|auto)\n",
                 kernel.c_str());
    return 2;
  }
  std::printf("dispatched SAD kernel: %s\n",
              std::string(acbm::simd::active_kernel_name()).c_str());
  register_kernel_variant_benchmarks();
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
