#include "codec/service.hpp"

#include <cassert>
#include <chrono>
#include <utility>

#include "util/kv.hpp"

namespace acbm::codec {

namespace {

/// The overload keys, defaults from `policy`. degrade= is not among them:
/// it is the verbatim tail overload_policy_from_spec cuts off first.
std::vector<util::ParamDesc> overload_keys(const OverloadPolicy& policy) {
  using util::ParamDesc;
  return {
      ParamDesc::integer("queue", policy.queue_limit, 0, 100000,
                         "admission queue limit in frames (0 = unbounded)"),
      ParamDesc::integer("deadline_ms", policy.deadline_ms, 0, 3600000,
                         "per-frame dispatch deadline from submit (0 = "
                         "none)"),
  };
}

}  // namespace

std::string overload_spec_usage() {
  return "overload spec grammar: overload:key=val[,key=val...] over the "
         "keys\n" +
         util::describe_params(overload_keys({})) +
         "  degrade=SPEC: estimator spec to encode with while overloaded\n"
         "      instead of shedding; must be the LAST key (the rest of the\n"
         "      spec is taken verbatim)\n";
}

OverloadPolicy overload_policy_from_spec(std::string_view spec) {
  auto [name, kv] = util::split_spec_name(spec);
  if (name != "overload") {
    throw util::SpecError("overload: spec must start with \"overload\", got \"" +
                          name + "\"; " + overload_spec_usage());
  }

  OverloadPolicy policy;
  // degrade= swallows the remainder verbatim — estimator specs contain ':'
  // and ',', so it cannot go through the kv splitter and must come last.
  if (const std::size_t at = kv.find("degrade="); at != std::string_view::npos) {
    if (at != 0 && kv[at - 1] != ',') {
      throw util::SpecError("overload: malformed key before degrade=; " +
                            overload_spec_usage());
    }
    policy.degrade = std::string(kv.substr(at + 8));
    if (policy.degrade.empty()) {
      throw util::SpecError("overload: degrade= needs an estimator spec");
    }
    kv = kv.substr(0, at == 0 ? 0 : at - 1);
  }
  const util::ParamSet params = util::ParamSet::bind(
      std::move(name), kv, overload_keys(policy), "overload");
  policy.queue_limit = static_cast<int>(params.get_int("queue"));
  policy.deadline_ms = static_cast<int>(params.get_int("deadline_ms"));
  return policy;
}

std::string to_spec(const OverloadPolicy& policy) {
  std::string out =
      util::ParamSet::bind("overload", "", overload_keys(policy), "overload")
          .to_spec();
  if (!policy.degrade.empty()) {
    out += ",degrade=" + policy.degrade;
  }
  return out;
}

EncodeSession::EncodeSession(EncoderService& service, video::PictureSize size,
                             const EncoderConfig& config,
                             std::unique_ptr<me::MotionEstimator> estimator)
    : estimator_(std::move(estimator)), id_(service.allocate_session_id()) {
  assert(estimator_ != nullptr);
  encoder_ =
      std::make_unique<Encoder>(size, config, *estimator_, service.pool());
  encoder_->set_stats_sink(&service.stats_sink());
  encoder_->set_metrics(&service.metrics());
  encoder_->set_trace_session(id_);
  if (service.fault_ != nullptr) {
    encoder_->set_fault_injector(service.fault_, id_);
  }
}

EncodeSession::~EncodeSession() {
  // The encoder's pipeline drains its own lane on destruction; draining
  // here first just keeps the teardown path identical to finish().
  if (encoder_) {
    encoder_->drain();
  }
}

SubmitOptions EncodeSession::options_from_policy() const {
  SubmitOptions options;
  options.queue_limit = policy_.queue_limit;
  options.degrade_on_overload = !policy_.degrade.empty();
  if (policy_.deadline_ms > 0) {
    options.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(policy_.deadline_ms);
  }
  return options;
}

void EncodeSession::configure_overload(
    const OverloadPolicy& policy,
    std::unique_ptr<me::MotionEstimator> degraded_estimator) {
  policy_ = policy;
  if (degraded_estimator != nullptr) {
    encoder_->set_degraded_estimator(std::move(degraded_estimator));
  }
}

std::future<Packet> EncodeSession::submit(video::Frame frame) {
  return encoder_->submit_frame(std::move(frame), options_from_policy());
}

std::future<Packet> EncodeSession::submit(video::Frame frame,
                                          const SubmitOptions& options) {
  return encoder_->submit_frame(std::move(frame), options);
}

std::optional<std::future<Packet>> EncodeSession::try_submit(
    video::Frame frame) {
  return encoder_->try_submit_frame(std::move(frame), options_from_policy());
}

std::optional<std::future<Packet>> EncodeSession::try_submit(
    video::Frame frame, const SubmitOptions& options) {
  return encoder_->try_submit_frame(std::move(frame), options);
}

void EncodeSession::drain() { encoder_->drain(); }

bool EncodeSession::failed() const { return encoder_->failed(); }

std::vector<std::uint8_t> EncodeSession::finish() {
  encoder_->drain();
  return encoder_->finish();
}

}  // namespace acbm::codec
