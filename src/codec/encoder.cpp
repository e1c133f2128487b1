#include "codec/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "codec/block_codec.hpp"
#include "codec/coeff_coding.hpp"
#include "codec/mc.hpp"
#include "codec/mv_coding.hpp"
#include "codec/pipeline.hpp"
#include "obs/metrics.hpp"
#include "codec/quant.hpp"

namespace acbm::codec {

namespace {

constexpr int kMb = me::kBlockSize;  // 16

/// Offsets of the four 8×8 luma blocks inside a macroblock, coding order.
constexpr int kLumaBlockOffsets[4][2] = {{0, 0}, {8, 0}, {0, 8}, {8, 8}};

/// λ for SSD-domain mode decision (TMN-10 convention: 0.85·Qp²).
double mode_lambda(int qp) { return 0.85 * qp * qp; }

}  // namespace

std::uint32_t Encoder::IntraPlan::payload_bits() const {
  std::uint32_t bits = 6 * 8 + 6;
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      bits += block_coeff_bits(levels[b], /*skip_dc=*/true);
    }
  }
  return bits;
}

void Encoder::IntraPlan::reconstruct(int qp, std::uint8_t* y16,
                                     std::uint8_t* cb8,
                                     std::uint8_t* cr8) const {
  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_intra_block(levels[b], dc[b], qp, y16 + oy * kMb + ox, kMb);
  }
  reconstruct_intra_block(levels[4], dc[4], qp, cb8, 8);
  reconstruct_intra_block(levels[5], dc[5], qp, cr8, 8);
}

std::uint32_t Encoder::InterPlan::payload_bits(me::Mv predictor) const {
  std::uint32_t bits = mvd_bits(mv, predictor) + 6;
  for (int b = 0; b < 6; ++b) {
    if ((cbp >> b) & 1u) {
      bits += block_coeff_bits(levels[b]);
    }
  }
  return bits;
}

void Encoder::InterPlan::reconstruct(int qp, std::uint8_t* y16,
                                     std::uint8_t* cb8,
                                     std::uint8_t* cr8) const {
  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_inter_block(levels[b], pred_y + oy * kMb + ox, kMb, qp,
                            y16 + oy * kMb + ox, kMb);
  }
  reconstruct_inter_block(levels[4], pred_cb, 8, qp, cb8, 8);
  reconstruct_inter_block(levels[5], pred_cr, 8, qp, cr8, 8);
}

Encoder::Encoder(video::PictureSize size, const EncoderConfig& config,
                 me::MotionEstimator& estimator)
    : Encoder(size, config, estimator, nullptr) {}

Encoder::Encoder(video::PictureSize size, const EncoderConfig& config,
                 me::MotionEstimator& estimator,
                 util::ThreadPool& shared_pool)
    : Encoder(size, config, estimator, &shared_pool) {}

Encoder::Encoder(video::PictureSize size, const EncoderConfig& config,
                 me::MotionEstimator& estimator,
                 util::ThreadPool* shared_pool)
    : size_(size), config_(config), estimator_(&estimator),
      recon_buf_{video::Frame(size), video::Frame(size)},
      recon_(&recon_buf_[0]), front_ref_(&recon_buf_[1]),
      back_ref_(&recon_buf_[1]), last_recon_(&recon_buf_[0]),
      me_fields_{me::MvField::for_picture(size.width, size.height),
                 me::MvField::for_picture(size.width, size.height)},
      me_field_(&me_fields_[0]), prev_me_field_(&me_fields_[1]),
      last_me_field_(&me_fields_[0]), coded_field_(me_fields_[0]) {
  // Non-positive dimensions would otherwise slip through the modulo check
  // (0 % 16 == 0) and break the slice clamp below.
  if (size.width <= 0 || size.height <= 0 || size.width % kMb != 0 ||
      size.height % kMb != 0) {
    throw std::invalid_argument(
        "encoder: picture dimensions must be positive multiples of 16");
  }
  if (config.qp < kMinQp || config.qp > kMaxQp) {
    throw std::invalid_argument("encoder: qp out of range 1..31");
  }
  // A slice is at least one macroblock row; the wire format caps the count
  // at a u8. Out-of-range requests degrade gracefully instead of throwing
  // so callers can pass "slices = threads" without sizing logic.
  slices_ = std::clamp(config.slices, 1, std::min(size.height / kMb,
                                                  kMaxSlices));
  if (shared_pool == nullptr) {
    const int threads =
        util::ThreadPool::resolve_thread_count(config.parallel.threads);
    own_pool_ = std::make_unique<util::ThreadPool>(threads > 1 ? threads : 0);
    shared_pool = own_pool_.get();
  }
  pipeline_ = std::make_unique<EncoderPipeline>(*this, *shared_pool);
  write_sequence_header();
}

Encoder::~Encoder() = default;

void Encoder::set_metrics(obs::Registry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    stage_metrics_ = StageMetrics{};
    return;
  }
  stage_metrics_.me = &registry->histogram("enc.stage.me");
  stage_metrics_.plan = &registry->histogram("enc.stage.plan");
  stage_metrics_.entropy = &registry->histogram("enc.stage.entropy");
  stage_metrics_.frame_wall = &registry->histogram("enc.frame.wall");
}

void Encoder::write_sequence_header() {
  // Single-slice streams keep the ACV1 magic (and stay byte-identical to
  // the pre-slice encoder); multi-slice streams announce the slice-header
  // syntax up front with ACV2.
  writer_.put_bits(slices_ > 1 ? kSequenceMagicV2 : kSequenceMagic, 32);
  writer_.put_bits(static_cast<std::uint32_t>(size_.width), 16);
  writer_.put_bits(static_cast<std::uint32_t>(size_.height), 16);
  writer_.put_bits(static_cast<std::uint32_t>(config_.fps_num), 16);
  writer_.put_bits(static_cast<std::uint32_t>(config_.fps_den), 16);
}

FrameReport Encoder::encode_frame(const video::Frame& src) {
  assert(!finished_);
  assert(src.width() == size_.width && src.height() == size_.height);
  return pipeline_->encode_frame(src);
}

std::future<EncodedFrame> Encoder::submit_frame(video::Frame src) {
  assert(!finished_);
  assert(src.width() == size_.width && src.height() == size_.height);
  return pipeline_->submit_frame(std::move(src), SubmitOptions{});
}

std::future<EncodedFrame> Encoder::submit_frame(video::Frame src,
                                                const SubmitOptions& options) {
  assert(!finished_);
  assert(src.width() == size_.width && src.height() == size_.height);
  return pipeline_->submit_frame(std::move(src), options);
}

std::optional<std::future<EncodedFrame>> Encoder::try_submit_frame(
    video::Frame src, const SubmitOptions& options) {
  assert(!finished_);
  assert(src.width() == size_.width && src.height() == size_.height);
  return pipeline_->try_submit_frame(std::move(src), options);
}

void Encoder::drain() { pipeline_->drain(); }

bool Encoder::failed() const { return pipeline_->failed(); }

// ---------------------------------------------------------------- planning

Encoder::IntraPlan Encoder::plan_intra_mb(const video::Frame& src, int bx,
                                          int by) const {
  const int x = bx * kMb;
  const int y = by * kMb;
  IntraPlan plan;
  for (int b = 0; b < 4; ++b) {
    const int sx = x + kLumaBlockOffsets[b][0];
    const int sy = y + kLumaBlockOffsets[b][1];
    plan.dc[b] = encode_intra_block(src.y().row(sy) + sx, src.y().stride(),
                                    plan.levels[b], config_.qp);
  }
  plan.dc[4] = encode_intra_block(src.cb().row(y / 2) + x / 2,
                                  src.cb().stride(), plan.levels[4],
                                  config_.qp);
  plan.dc[5] = encode_intra_block(src.cr().row(y / 2) + x / 2,
                                  src.cr().stride(), plan.levels[5],
                                  config_.qp);
  for (int b = 0; b < 6; ++b) {
    if (block_has_coeffs(plan.levels[b], /*skip_dc=*/true)) {
      plan.cbp |= 1u << b;
    }
  }
  return plan;
}

Encoder::InterPlan Encoder::plan_inter_mb(const video::Frame& src, int bx,
                                          int by, me::Mv mv) const {
  const int x = bx * kMb;
  const int y = by * kMb;
  InterPlan plan;
  plan.mv = mv;
  predict_luma(ref_half_, x, y, mv, kMb, kMb, plan.pred_y, kMb);
  const me::Mv cmv = derive_chroma_mv(mv);
  predict_chroma(front_ref_->cb(), x / 2, y / 2, cmv, 8, 8, plan.pred_cb, 8);
  predict_chroma(front_ref_->cr(), x / 2, y / 2, cmv, 8, 8, plan.pred_cr, 8);

  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    encode_inter_block(src.y().row(y + oy) + x + ox, src.y().stride(),
                       plan.pred_y + oy * kMb + ox, kMb, plan.levels[b],
                       config_.qp);
  }
  encode_inter_block(src.cb().row(y / 2) + x / 2, src.cb().stride(),
                     plan.pred_cb, 8, plan.levels[4], config_.qp);
  encode_inter_block(src.cr().row(y / 2) + x / 2, src.cr().stride(),
                     plan.pred_cr, 8, plan.levels[5], config_.qp);
  for (int b = 0; b < 6; ++b) {
    if (block_has_coeffs(plan.levels[b])) {
      plan.cbp |= 1u << b;
    }
  }
  return plan;
}

// ----------------------------------------------------------------- writing

void Encoder::write_intra_plan(const IntraPlan& plan, SliceState& slice) {
  util::BitWriter& writer = *slice.writer;
  const std::uint64_t before = writer.bit_count();
  for (int b = 0; b < 6; ++b) {
    writer.put_bits(plan.dc[b], 8);
  }
  writer.put_bits(plan.cbp, 6);
  for (int b = 0; b < 6; ++b) {
    if ((plan.cbp >> b) & 1u) {
      encode_block_coeffs(writer, plan.levels[b], /*skip_dc=*/true);
    }
  }
  slice.counters.coeff += writer.bit_count() - before;
}

void Encoder::write_inter_plan_payload(const InterPlan& plan, me::Mv predictor,
                                       SliceState& slice) {
  util::BitWriter& writer = *slice.writer;
  const std::uint64_t mv_start = writer.bit_count();
  encode_mvd(writer, plan.mv, predictor);
  slice.counters.mv += writer.bit_count() - mv_start;

  const std::uint64_t coeff_start = writer.bit_count();
  writer.put_bits(plan.cbp, 6);
  for (int b = 0; b < 6; ++b) {
    if ((plan.cbp >> b) & 1u) {
      encode_block_coeffs(writer, plan.levels[b]);
    }
  }
  slice.counters.coeff += writer.bit_count() - coeff_start;
}

// ---------------------------------------------------------- reconstruction

void Encoder::reconstruct_intra_plan(const IntraPlan& plan, int bx, int by) {
  const int x = bx * kMb;
  const int y = by * kMb;
  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_intra_block(plan.levels[b], plan.dc[b], config_.qp,
                            recon_->y().row(y + oy) + x + ox,
                            recon_->y().stride());
  }
  reconstruct_intra_block(plan.levels[4], plan.dc[4], config_.qp,
                          recon_->cb().row(y / 2) + x / 2,
                          recon_->cb().stride());
  reconstruct_intra_block(plan.levels[5], plan.dc[5], config_.qp,
                          recon_->cr().row(y / 2) + x / 2,
                          recon_->cr().stride());
}

void Encoder::reconstruct_inter_plan(const InterPlan& plan, int bx, int by) {
  const int x = bx * kMb;
  const int y = by * kMb;
  for (int b = 0; b < 4; ++b) {
    const int ox = kLumaBlockOffsets[b][0];
    const int oy = kLumaBlockOffsets[b][1];
    reconstruct_inter_block(plan.levels[b], plan.pred_y + oy * kMb + ox, kMb,
                            config_.qp, recon_->y().row(y + oy) + x + ox,
                            recon_->y().stride());
  }
  reconstruct_inter_block(plan.levels[4], plan.pred_cb, 8, config_.qp,
                          recon_->cb().row(y / 2) + x / 2,
                          recon_->cb().stride());
  reconstruct_inter_block(plan.levels[5], plan.pred_cr, 8, config_.qp,
                          recon_->cr().row(y / 2) + x / 2,
                          recon_->cr().stride());
}

void Encoder::reconstruct_skip_mb(int bx, int by) {
  const int x = bx * kMb;
  const int y = by * kMb;
  for (int row = 0; row < kMb; ++row) {
    std::memcpy(recon_->y().row(y + row) + x, back_ref_->y().row(y + row) + x, kMb);
  }
  for (int row = 0; row < kMb / 2; ++row) {
    std::memcpy(recon_->cb().row(y / 2 + row) + x / 2,
                back_ref_->cb().row(y / 2 + row) + x / 2, kMb / 2);
    std::memcpy(recon_->cr().row(y / 2 + row) + x / 2,
                back_ref_->cr().row(y / 2 + row) + x / 2, kMb / 2);
  }
}

std::uint64_t Encoder::mb_ssd(const video::Frame& src, int bx, int by,
                              const std::uint8_t* y16, const std::uint8_t* cb8,
                              const std::uint8_t* cr8) const {
  const int x = bx * kMb;
  const int y = by * kMb;
  std::uint64_t ssd = 0;
  for (int row = 0; row < kMb; ++row) {
    const std::uint8_t* s = src.y().row(y + row) + x;
    const std::uint8_t* r = y16 + row * kMb;
    for (int col = 0; col < kMb; ++col) {
      const int d = int(s[col]) - int(r[col]);
      ssd += static_cast<std::uint64_t>(d * d);
    }
  }
  for (int row = 0; row < 8; ++row) {
    const std::uint8_t* scb = src.cb().row(y / 2 + row) + x / 2;
    const std::uint8_t* scr = src.cr().row(y / 2 + row) + x / 2;
    for (int col = 0; col < 8; ++col) {
      const int dcb = int(scb[col]) - int(cb8[row * 8 + col]);
      const int dcr = int(scr[col]) - int(cr8[row * 8 + col]);
      ssd += static_cast<std::uint64_t>(dcb * dcb + dcr * dcr);
    }
  }
  return ssd;
}

void Encoder::plan_mb(const video::Frame& src, int bx, int by,
                      bool intra_frame, me::Mv mv, bool use_intra,
                      MbPlan& out) const {
  if (intra_frame) {
    out.intra = plan_intra_mb(src, bx, by);
    out.has_intra = true;
    out.has_inter = false;
    out.rd = false;
    return;
  }

  if (config_.mode_decision == ModeDecision::kRateDistortion) {
    // Plan all three candidates and reduce each to the pieces of its
    // Lagrangian cost that do not depend on the MVD predictor; stage 3
    // finishes the comparison. Scratch reconstructions are thrown away —
    // the winner is reconstructed for real from its plan in stage 3.
    out.rd = true;
    out.has_intra = true;
    out.has_inter = true;
    const double lambda = mode_lambda(config_.qp);
    std::uint8_t y16[kMb * kMb];
    std::uint8_t cb8[64];
    std::uint8_t cr8[64];

    out.inter = plan_inter_mb(src, bx, by, mv);
    out.inter.reconstruct(config_.qp, y16, cb8, cr8);
    out.inter_ssd = mb_ssd(src, bx, by, y16, cb8, cr8);
    out.inter_body_bits = 6;
    for (int b = 0; b < 6; ++b) {
      if ((out.inter.cbp >> b) & 1u) {
        out.inter_body_bits += block_coeff_bits(out.inter.levels[b]);
      }
    }

    out.intra = plan_intra_mb(src, bx, by);
    out.intra.reconstruct(config_.qp, y16, cb8, cr8);
    out.j_intra =
        static_cast<double>(mb_ssd(src, bx, by, y16, cb8, cr8)) +
        lambda * (2.0 + out.intra.payload_bits());

    out.j_skip = std::numeric_limits<double>::infinity();
    if (config_.allow_skip) {
      const int x = bx * kMb;
      const int y = by * kMb;
      for (int row = 0; row < kMb; ++row) {
        std::memcpy(y16 + row * kMb, front_ref_->y().row(y + row) + x, kMb);
      }
      for (int row = 0; row < 8; ++row) {
        std::memcpy(cb8 + row * 8, front_ref_->cb().row(y / 2 + row) + x / 2,
                    8);
        std::memcpy(cr8 + row * 8, front_ref_->cr().row(y / 2 + row) + x / 2,
                    8);
      }
      out.j_skip =
          static_cast<double>(mb_ssd(src, bx, by, y16, cb8, cr8)) +
          lambda * 1.0;
    }
    return;
  }

  out.rd = false;
  out.has_intra = use_intra;
  out.has_inter = !use_intra;
  if (use_intra) {
    out.intra = plan_intra_mb(src, bx, by);
  } else {
    out.inter = plan_inter_mb(src, bx, by, mv);
  }
}

// ------------------------------------------------------- macroblock coding

void Encoder::write_mb_from_plan(bool intra_frame, const MbPlan& plan, int bx,
                                 int by, SliceState& slice) {
  if (intra_frame) {
    // I-frame macroblocks carry no COD/mode bits.
    write_intra_plan(plan.intra, slice);
    reconstruct_intra_plan(plan.intra, bx, by);
    coded_field_.set(bx, by, {0, 0});
    ++slice.intra_mbs;
    return;
  }

  if (plan.rd) {
    write_rd_mb_from_plan(plan, bx, by, slice);
    return;
  }

  util::BitWriter& writer = *slice.writer;

  if (plan.has_intra) {
    const std::uint64_t before = writer.bit_count();
    writer.put_bit(false);  // COD = 0 (coded)
    writer.put_bit(true);   // intra
    slice.counters.header += writer.bit_count() - before;
    write_intra_plan(plan.intra, slice);
    reconstruct_intra_plan(plan.intra, bx, by);
    coded_field_.set(bx, by, {0, 0});
    ++slice.intra_mbs;
    return;
  }

  // Heuristic INTER, degrading to SKIP when the zero-vector residual
  // quantised away in the plan stage.
  if (config_.allow_skip && plan.inter.skippable()) {
    const std::uint64_t before = writer.bit_count();
    writer.put_bit(true);  // COD = 1
    slice.counters.header += writer.bit_count() - before;
    reconstruct_skip_mb(bx, by);
    coded_field_.set(bx, by, {0, 0});
    ++slice.skip_mbs;
    ++slice.inter_mbs;  // rebalanced against skip_mbs at frame end
    return;
  }

  const std::uint64_t header_start = writer.bit_count();
  writer.put_bit(false);  // COD = 0
  writer.put_bit(false);  // inter
  slice.counters.header += writer.bit_count() - header_start;

  write_inter_plan_payload(
      plan.inter, coded_field_.median_predictor(bx, by, slice.first_mb_row),
      slice);
  reconstruct_inter_plan(plan.inter, bx, by);
  coded_field_.set(bx, by, plan.inter.mv);
  ++slice.inter_mbs;
}

void Encoder::write_rd_mb_from_plan(const MbPlan& plan, int bx, int by,
                                    SliceState& slice) {
  util::BitWriter& writer = *slice.writer;
  const double lambda = mode_lambda(config_.qp);
  const me::Mv predictor =
      coded_field_.median_predictor(bx, by, slice.first_mb_row);

  // Identical arithmetic to planning the candidates in place: payload bits
  // are the uint32 sum of the MVD code and the precomputed body, so J_inter
  // here equals the pre-plan-stage encoder's value bit for bit.
  const std::uint32_t inter_payload =
      mvd_bits(plan.inter.mv, predictor) + plan.inter_body_bits;
  const double j_inter = static_cast<double>(plan.inter_ssd) +
                         lambda * (2.0 + inter_payload);

  if (plan.j_skip <= j_inter && plan.j_skip <= plan.j_intra) {
    const std::uint64_t before = writer.bit_count();
    writer.put_bit(true);  // COD = 1
    slice.counters.header += writer.bit_count() - before;
    reconstruct_skip_mb(bx, by);
    coded_field_.set(bx, by, {0, 0});
    ++slice.skip_mbs;
    ++slice.inter_mbs;  // rebalanced against skip_mbs at frame end
    return;
  }

  if (plan.j_intra < j_inter) {
    const std::uint64_t before = writer.bit_count();
    writer.put_bit(false);  // COD = 0
    writer.put_bit(true);   // intra
    slice.counters.header += writer.bit_count() - before;
    write_intra_plan(plan.intra, slice);
    reconstruct_intra_plan(plan.intra, bx, by);
    coded_field_.set(bx, by, {0, 0});
    ++slice.intra_mbs;
    return;
  }

  const std::uint64_t header_start = writer.bit_count();
  writer.put_bit(false);  // COD = 0
  writer.put_bit(false);  // inter
  slice.counters.header += writer.bit_count() - header_start;

  write_inter_plan_payload(plan.inter, predictor, slice);
  reconstruct_inter_plan(plan.inter, bx, by);
  coded_field_.set(bx, by, plan.inter.mv);
  ++slice.inter_mbs;
}

std::vector<std::uint8_t> Encoder::finish() {
  assert(!finished_);
  finished_ = true;
  return writer_.take();
}

void Encoder::set_qp(int qp) {
  if (qp < kMinQp || qp > kMaxQp) {
    throw std::invalid_argument("encoder: qp out of range 1..31");
  }
  config_.qp = qp;
}

}  // namespace acbm::codec
