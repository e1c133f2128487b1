// EstimatorRegistry: lookup, unknown-name error, registration discipline,
// the reads_current_field() declaration the encoder's row scheduling relies
// on, and the sharing contract: one instance of every registered estimator,
// called from several threads at once, decides every block as a serial
// pass does (for ACBM: the same statistics and decision log too).

#include "me/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "me/mv_field.hpp"
#include "me/pbm.hpp"
#include "synth/sequences.hpp"
#include "test_support.hpp"

namespace acbm {
namespace {

using acbm::test::SearchFixture;
using acbm::test::shifted_pair;

// ------------------------------------------------------ registry mechanics

TEST(EstimatorRegistry, BuiltinsCoverEveryAlgorithm) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  const std::vector<std::string> expected = {
      "ACBM", "FSBM", "PBM",   "TSS",       "NTSS",    "4SS",
      "DS",   "HEXBS", "CDS", "FSBM-adec", "FSBM-sub"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.size(), expected.size());
}

TEST(EstimatorRegistry, CreateReturnsEstimatorWithMatchingName) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const auto estimator = registry.create(name);
    ASSERT_NE(estimator, nullptr) << name;
    EXPECT_EQ(estimator->name(), name);
  }
}

TEST(EstimatorRegistry, CreateReturnsFreshInstances) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  const auto a = registry.create("ACBM");
  const auto b = registry.create("ACBM");
  EXPECT_NE(a.get(), b.get());
}

TEST(EstimatorRegistry, UnknownNameThrowsAndListsOptions) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  EXPECT_FALSE(registry.contains("UMHEX"));
  try {
    (void)registry.create("UMHEX");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("UMHEX"), std::string::npos);
    EXPECT_NE(message.find("ACBM"), std::string::npos);  // lists options
  }
}

/// A knob-less factory: registered with no keys, ignores its ParamSet.
std::unique_ptr<me::MotionEstimator> make_pbm(const util::ParamSet&) {
  return std::make_unique<me::Pbm>();
}

TEST(EstimatorRegistry, DuplicateAndEmptyRegistrationsThrow) {
  me::EstimatorRegistry registry;
  registry.add("PBM", {}, make_pbm);
  EXPECT_TRUE(registry.contains("PBM"));
  EXPECT_THROW(registry.add("PBM", {}, make_pbm), std::invalid_argument);
  EXPECT_THROW(registry.add("", {}, make_pbm), std::invalid_argument);
  EXPECT_THROW(registry.add("X", {}, nullptr), std::invalid_argument);
}

TEST(EstimatorRegistry, CustomRegistryCreates) {
  me::EstimatorRegistry registry;
  registry.add("mine", {}, make_pbm);
  const auto estimator = registry.create("mine");
  EXPECT_EQ(estimator->name(), "PBM");
}

TEST(EstimatorRegistry, CustomParameterizedFactoryReceivesBoundParams) {
  me::EstimatorRegistry registry;
  double seen = -1.0;
  registry.add("mine",
               {util::ParamDesc::number("knob", 2.5, 0.0, 10.0, "a knob")},
               [&seen](const util::ParamSet& params) {
                 seen = params.get_double("knob");
                 return std::make_unique<me::Pbm>();
               });
  (void)registry.create("mine");
  EXPECT_DOUBLE_EQ(seen, 2.5);  // default applied
  (void)registry.create("mine:knob=7");
  EXPECT_DOUBLE_EQ(seen, 7.0);  // explicit value bound
  EXPECT_THROW((void)registry.create("mine:knob=11"), std::invalid_argument);
  EXPECT_EQ(registry.canonical_spec("mine"), "mine:knob=2.5");
}

// ------------------------------------------------- current-field declaration

TEST(ReadsCurrentField, ExactlyPbmAndAcbmDeclareIt) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const bool expected = name == "PBM" || name == "ACBM";
    EXPECT_EQ(registry.create(name)->reads_current_field(), expected) << name;
  }
}

// The encoder builds a row's block-sum band only for an estimator that
// declares it; plain FSBM is the one that prunes with it.
TEST(WantsBlockSums, ExactlyFsbmDeclaresIt) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    EXPECT_EQ(registry.create(name)->wants_block_sums(), name == "FSBM")
        << name;
  }
}

/// Every block of a QCIF pair, estimated by a fresh `name` at λ = 0 with
/// `cur_field` as the current field.
std::vector<me::EstimateResult> estimate_qcif(const std::string& name,
                                              const SearchFixture& fx,
                                              const me::MvField* cur_field) {
  const auto estimator = core::builtin_estimators().create(name);
  std::vector<me::EstimateResult> results;
  for (int y = 0; y + me::kBlockSize <= fx.cur.height(); y += me::kBlockSize) {
    for (int x = 0; x + me::kBlockSize <= fx.cur.width();
         x += me::kBlockSize) {
      me::BlockContext ctx = fx.context(x, y);
      ctx.cur_field = cur_field;
      results.push_back(estimator->estimate(ctx));
    }
  }
  return results;
}

// The encoder hands cur_field only to estimators that declare they read it
// (the others run without the wavefront stagger and see null). An estimator
// that reads the field without declaring it would change its output here.
TEST(ReadsCurrentField, UndeclaredEstimatorsIgnoreTheField) {
  auto [ref, cur] = shifted_pair(176, 144, 5, -3, 41);
  const SearchFixture fx(std::move(ref), std::move(cur));
  // A populated field: the true vector on some blocks, far-off ones on the
  // rest, so a reader's predictor candidates differ from the null case.
  me::MvField field = me::MvField::for_picture(176, 144);
  for (int by = 0; by < field.mbs_y(); ++by) {
    for (int bx = 0; bx < field.mbs_x(); ++bx) {
      field.set(bx, by, (bx + by) % 3 == 0 ? me::Mv{10, -6}
                                           : me::Mv{-2 * bx, 2 * by - 9});
    }
  }

  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const std::vector<me::EstimateResult> with =
        estimate_qcif(name, fx, &field);
    const std::vector<me::EstimateResult> without =
        estimate_qcif(name, fx, nullptr);
    ASSERT_EQ(with.size(), without.size());
    bool identical = true;
    for (std::size_t i = 0; i < with.size(); ++i) {
      identical = identical && with[i].mv == without[i].mv &&
                  with[i].sad == without[i].sad &&
                  with[i].positions == without[i].positions;
    }
    // The declared readers must show the field matters, or this check
    // could not catch an undeclared one.
    EXPECT_EQ(identical, !registry.create(name)->reads_current_field())
        << name;
  }
}

// Without a block-sum band nothing is pruned: every estimator computes a
// SAD for each position it counts.
TEST(SadEvaluations, EqualPositionsWithoutABand) {
  auto [ref, cur] = shifted_pair(176, 144, 5, -3, 43);
  const SearchFixture fx(std::move(ref), std::move(cur));
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    for (const me::EstimateResult& r : estimate_qcif(name, fx, nullptr)) {
      ASSERT_EQ(r.sad_evaluations, r.positions) << name;
    }
  }
}

// ----------------------------------------------------------- shared use

/// The blocks of a CIF pair (foreman, frames 0 → 1), each estimated by
/// `estimator` with `prev_field` as the temporal predictor field, on
/// `threads` threads that take every threads-th block (0 = the calling
/// thread alone). Results are in raster order.
std::vector<me::EstimateResult> estimate_cif(
    const me::MotionEstimator& estimator, const SearchFixture& fx,
    const me::MvField& prev_field, int threads) {
  const int mbs_x = fx.cur.width() / me::kBlockSize;
  const int blocks = mbs_x * (fx.cur.height() / me::kBlockSize);
  std::vector<me::EstimateResult> results(static_cast<std::size_t>(blocks));
  const auto run = [&](int first, int step) {
    for (int i = first; i < blocks; i += step) {
      me::BlockContext ctx = fx.context((i % mbs_x) * me::kBlockSize,
                                        (i / mbs_x) * me::kBlockSize);
      ctx.prev_field = &prev_field;
      ctx.frame = 1;
      results[static_cast<std::size_t>(i)] = estimator.estimate(ctx);
    }
  };
  if (threads == 0) {
    run(0, 1);
    return results;
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(run, t, threads);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
  return results;
}

TEST(SharedEstimator, ConcurrentCallsDecideEveryBlockAsASerialPass) {
  synth::SequenceRequest req;
  req.name = "foreman";
  req.size = {352, 288};
  req.frame_count = 2;
  req.fps = 30;
  const std::vector<video::Frame> frames = synth::make_sequence(req);
  video::Plane ref = frames[0].y();
  video::Plane cur = frames[1].y();
  ref.extend_border();
  cur.extend_border();
  const SearchFixture fx(std::move(ref), std::move(cur));
  me::MvField prev_field = me::MvField::for_picture(352, 288);
  for (int by = 0; by < prev_field.mbs_y(); ++by) {
    for (int bx = 0; bx < prev_field.mbs_x(); ++bx) {
      prev_field.set(bx, by, me::Mv{(bx % 5) - 2, (by % 3) - 1});
    }
  }

  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const auto serial_estimator = registry.create(name);
    const auto shared_estimator = registry.create(name);
    auto* serial_acbm = dynamic_cast<core::Acbm*>(serial_estimator.get());
    auto* shared_acbm = dynamic_cast<core::Acbm*>(shared_estimator.get());
    if (serial_acbm != nullptr) {
      serial_acbm->set_record_log(true);
      shared_acbm->set_record_log(true);
    }
    const std::vector<me::EstimateResult> serial =
        estimate_cif(*serial_estimator, fx, prev_field, 0);
    const std::vector<me::EstimateResult> shared =
        estimate_cif(*shared_estimator, fx, prev_field, 4);
    ASSERT_EQ(shared.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(shared[i].mv, serial[i].mv) << name << " block " << i;
      EXPECT_EQ(shared[i].sad, serial[i].sad) << name << " block " << i;
      EXPECT_EQ(shared[i].positions, serial[i].positions)
          << name << " block " << i;
    }
    if (serial_acbm != nullptr) {
      const core::AcbmStats stats = serial_acbm->stats();
      EXPECT_EQ(stats.blocks, serial.size());
      // Both branches of the test ran, so both kinds of counter were hit.
      EXPECT_GT(stats.critical, 0u);
      EXPECT_GT(stats.accepted_low_activity + stats.accepted_good_match, 0u);
      EXPECT_EQ(shared_acbm->stats(), stats);
      EXPECT_EQ(shared_acbm->decision_log(), serial_acbm->decision_log());
    }
  }
}

TEST(SharedEstimator, AcbmLogsInEncodeOrderWhateverTheCallOrder) {
  auto [ref, cur] = shifted_pair(96, 96, 3, 2, 34);
  const SearchFixture fx(std::move(ref), std::move(cur));
  core::Acbm acbm;
  acbm.set_record_log(true);
  // Row 1 finishes before row 0, and frame 2 before frame 1.
  for (const auto& [frame, x, y] :
       {std::tuple{2, 16, 16}, std::tuple{1, 32, 32}, std::tuple{1, 48, 16}}) {
    me::BlockContext ctx = fx.context(x, y);
    ctx.frame = frame;
    (void)acbm.estimate(ctx);
  }
  const std::vector<core::BlockDecision> log = acbm.decision_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ((std::tuple{log[0].frame, log[0].by, log[0].bx}),
            (std::tuple{1, 1, 3}));
  EXPECT_EQ((std::tuple{log[1].frame, log[1].by, log[1].bx}),
            (std::tuple{1, 2, 2}));
  EXPECT_EQ((std::tuple{log[2].frame, log[2].by, log[2].bx}),
            (std::tuple{2, 1, 1}));
}

}  // namespace
}  // namespace acbm
