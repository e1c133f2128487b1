#include "codec/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "codec/mv_coding.hpp"
#include "codec/pipeline.hpp"
#include "codec/quant.hpp"
#include "me/sad.hpp"
#include "obs/metrics.hpp"

namespace acbm::codec {

namespace {

constexpr int kMb = me::kBlockSize;  // 16

/// λ for SSD-domain mode decision (TMN-10 convention: 0.85·Qp²).
double mode_lambda(int qp) { return 0.85 * qp * qp; }

/// SSD between source macroblock (bx, by) and a candidate reconstruction.
std::uint64_t mb_ssd(const video::Frame& src, int bx, int by,
                     const MbBuffer& recon) {
  const int x = bx * kMb;
  const int y = by * kMb;
  std::uint64_t ssd = 0;
  for (int row = 0; row < kMb; ++row) {
    const std::uint8_t* s = src.y().row(y + row) + x;
    const std::uint8_t* r = recon.y + row * kMb;
    for (int col = 0; col < kMb; ++col) {
      const int d = int(s[col]) - int(r[col]);
      ssd += static_cast<std::uint64_t>(d * d);
    }
  }
  for (int row = 0; row < 8; ++row) {
    const std::uint8_t* scb = src.cb().row(y / 2 + row) + x / 2;
    const std::uint8_t* scr = src.cr().row(y / 2 + row) + x / 2;
    for (int col = 0; col < 8; ++col) {
      const int dcb = int(scb[col]) - int(recon.cb[row * 8 + col]);
      const int dcr = int(scr[col]) - int(recon.cr[row * 8 + col]);
      ssd += static_cast<std::uint64_t>(dcb * dcb + dcr * dcr);
    }
  }
  return ssd;
}

}  // namespace

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
  stage_metrics_.front = &registry->histogram("enc.stage.front");
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

void Encoder::plan_mb(const video::Frame& src, int bx, int by,
                      bool intra_frame, int qp, const me::EstimateResult& est,
                      MbPlan& out) const {
  out.rd = !intra_frame &&
           config_.mode_decision == ModeDecision::kRateDistortion;
  bool intra = intra_frame;
  if (!intra && !out.rd) {
    // TMN5 heuristic: INTRA when the block's own activity (Intra_SAD)
    // undercuts the motion-compensated SAD by more than the bias. ACBM and
    // FSBM-adec computed it already, over the same 16×16 block.
    const std::int64_t activity =
        est.intra_sad ? *est.intra_sad
                      : me::intra_sad(src.y(), bx * kMb, by * kMb, kMb, kMb);
    intra = activity + config_.intra_bias < static_cast<std::int64_t>(est.sad);
  }
  if (intra) {
    out.mode = MbMode::kIntra;
    encode_intra_mb(src, bx, by, qp, out.intra);
    return;
  }

  out.inter.mv = est.mv;
  predict_mb(*front_ref_, bx, by, est.mv, out.inter.pred);
  encode_inter_mb(src, bx, by, out.inter.pred, qp, out.inter.levels);
  if (!out.rd) {
    // INTER, degrading to SKIP when the zero-vector residual quantised away.
    out.mode = config_.allow_skip && out.inter.skippable() ? MbMode::kSkip
                                                           : MbMode::kInter;
    return;
  }

  // Plan all three candidates and reduce each to the pieces of its
  // Lagrangian cost that do not depend on the MVD predictor; write_mb
  // finishes the comparison. Scratch reconstructions are thrown away — the
  // winner is reconstructed for real from its plan by write_mb.
  const double lambda = mode_lambda(qp);
  MbBuffer scratch{};
  reconstruct_inter_mb(out.inter.levels, out.inter.pred, qp,
                       MbSamples(scratch));
  out.inter_ssd = mb_ssd(src, bx, by, scratch);
  out.inter_body_bits = inter_body_bits(out.inter.levels);

  encode_intra_mb(src, bx, by, qp, out.intra);
  reconstruct_intra_mb(out.intra, qp, MbSamples(scratch));
  out.j_intra = static_cast<double>(mb_ssd(src, bx, by, scratch)) +
                lambda * (2.0 + intra_payload_bits(out.intra));

  out.j_skip = std::numeric_limits<double>::infinity();
  if (config_.allow_skip) {
    copy_mb(*front_ref_, bx, by, MbSamples(scratch));
    out.j_skip = static_cast<double>(mb_ssd(src, bx, by, scratch)) +
                 lambda * 1.0;
  }
}

// ------------------------------------------------------- macroblock coding

void Encoder::write_mb(bool intra_frame, int qp, const MbPlan& plan, int bx,
                       int by, SliceState& slice) {
  util::BitWriter& writer = *slice.writer;
  FrameReport& tally = slice.tally;
  const me::Mv predictor =
      coded_field_.median_predictor(bx, by, slice.first_mb_row);

  MbMode mode = plan.mode;
  if (plan.rd) {
    // Identical arithmetic to planning the candidates in place: payload
    // bits are the uint32 sum of the MVD code and the precomputed body.
    const std::uint32_t inter_payload =
        mvd_bits(plan.inter.mv, predictor) + plan.inter_body_bits;
    const double j_inter = static_cast<double>(plan.inter_ssd) +
                           mode_lambda(qp) * (2.0 + inter_payload);
    mode = plan.j_skip <= j_inter && plan.j_skip <= plan.j_intra
               ? MbMode::kSkip
           : plan.j_intra < j_inter ? MbMode::kIntra
                                    : MbMode::kInter;
  }

  // I-frame macroblocks carry no COD/mode bits.
  if (!intra_frame) {
    const std::uint64_t before = writer.bit_count();
    writer.put_bit(mode == MbMode::kSkip);  // COD
    if (mode != MbMode::kSkip) {
      writer.put_bit(mode == MbMode::kIntra);
    }
    tally.header_bits += writer.bit_count() - before;
  }

  const MbSamples dst(*recon_, bx, by);
  me::Mv coded{0, 0};
  const std::uint64_t payload_start = writer.bit_count();
  switch (mode) {
    case MbMode::kSkip:
      copy_mb(*back_ref_, bx, by, dst);
      ++tally.skip_mbs;
      break;
    case MbMode::kIntra:
      write_intra_payload(writer, plan.intra);
      tally.coeff_bits += writer.bit_count() - payload_start;
      reconstruct_intra_mb(plan.intra, qp, dst);
      ++tally.intra_mbs;
      break;
    case MbMode::kInter: {
      encode_mvd(writer, plan.inter.mv, predictor);
      const std::uint64_t body_start = writer.bit_count();
      tally.mv_bits += body_start - payload_start;
      write_inter_body(writer, plan.inter.levels);
      tally.coeff_bits += writer.bit_count() - body_start;
      reconstruct_inter_mb(plan.inter.levels, plan.inter.pred, qp, dst);
      coded = plan.inter.mv;
      ++tally.inter_mbs;
      break;
    }
  }
  coded_field_.set(bx, by, coded);
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
