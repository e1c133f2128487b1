// EstimatorRegistry: lookup, unknown-name error, registration discipline,
// and the clone()/merge_stats() contract — in particular that ACBM clones
// share parameters but never statistics — plus the reads_current_field()
// declaration the encoder's row scheduling relies on.

#include "me/registry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/acbm.hpp"
#include "core/builtin_estimators.hpp"
#include "me/mv_field.hpp"
#include "me/pbm.hpp"
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

// ----------------------------------------------------------- clone contract

TEST(EstimatorClone, EveryBuiltinClonesToSameAlgorithm) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const auto original = registry.create(name);
    const auto copy = original->clone();
    ASSERT_NE(copy, nullptr) << name;
    EXPECT_NE(copy.get(), original.get()) << name;
    EXPECT_EQ(copy->name(), original->name()) << name;
  }
}

TEST(EstimatorClone, AcbmClonePreservesParamsAndLogFlag) {
  core::Acbm acbm(core::AcbmParams{123.0, 4.5, 0.5});
  acbm.set_record_log(true);
  const auto copy = acbm.clone();
  auto* cloned = dynamic_cast<core::Acbm*>(copy.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_DOUBLE_EQ(cloned->params().alpha, 123.0);
  EXPECT_DOUBLE_EQ(cloned->params().beta, 4.5);
  EXPECT_DOUBLE_EQ(cloned->params().gamma, 0.5);

  auto [ref, cur] = shifted_pair(96, 96, 14, 14, 31);
  const SearchFixture fx(std::move(ref), std::move(cur));
  (void)cloned->estimate(fx.context(32, 32));
  EXPECT_EQ(cloned->decision_log().size(), 1u);  // flag was copied
}

TEST(EstimatorClone, AcbmStatsDoNotLeakBetweenClones) {
  auto [ref, cur] = shifted_pair(96, 96, 14, 14, 32);
  const SearchFixture fx(std::move(ref), std::move(cur));

  core::Acbm original;
  (void)original.estimate(fx.context(32, 32));
  ASSERT_EQ(original.stats().blocks, 1u);

  // A clone taken from a used estimator starts from zero.
  const auto copy = original.clone();
  auto* cloned = dynamic_cast<core::Acbm*>(copy.get());
  ASSERT_NE(cloned, nullptr);
  EXPECT_EQ(cloned->stats().blocks, 0u);
  EXPECT_EQ(cloned->stats().total_positions, 0u);

  // Running the clone leaves the original untouched, and vice versa.
  (void)cloned->estimate(fx.context(32, 32));
  (void)cloned->estimate(fx.context(48, 48));
  EXPECT_EQ(original.stats().blocks, 1u);
  EXPECT_EQ(cloned->stats().blocks, 2u);
}

// ------------------------------------------------- current-field declaration

TEST(ReadsCurrentField, ExactlyPbmAndAcbmDeclareIt) {
  const me::EstimatorRegistry& registry = core::builtin_estimators();
  for (const std::string& name : registry.names()) {
    const bool expected = name == "PBM" || name == "ACBM";
    EXPECT_EQ(registry.create(name)->reads_current_field(), expected) << name;
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

// ------------------------------------------------------------- merge_stats

TEST(MergeStats, DefaultIsNoOpForStatelessEstimators) {
  me::Pbm primary;
  const auto worker = primary.clone();
  primary.merge_stats(*worker);  // must not throw
  SUCCEED();
}

TEST(MergeStats, AcbmTotalsAreSumOfWorkerPartitions) {
  auto [ref, cur] = shifted_pair(96, 96, 14, 14, 33);
  const SearchFixture fx(std::move(ref), std::move(cur));

  core::Acbm primary;
  const auto w1 = primary.clone();
  const auto w2 = primary.clone();
  auto* worker1 = dynamic_cast<core::Acbm*>(w1.get());
  auto* worker2 = dynamic_cast<core::Acbm*>(w2.get());
  ASSERT_NE(worker1, nullptr);
  ASSERT_NE(worker2, nullptr);

  (void)worker1->estimate(fx.context(16, 16));
  (void)worker1->estimate(fx.context(32, 32));
  (void)worker2->estimate(fx.context(48, 48));
  const std::uint64_t expected_positions =
      worker1->stats().total_positions + worker2->stats().total_positions;
  const std::uint64_t expected_critical =
      worker1->stats().critical + worker2->stats().critical;

  primary.merge_stats(*worker1);
  primary.merge_stats(*worker2);

  EXPECT_EQ(primary.stats().blocks, 3u);
  EXPECT_EQ(primary.stats().total_positions, expected_positions);
  EXPECT_EQ(primary.stats().critical, expected_critical);

  // Drain semantics: merging again must not double count.
  EXPECT_EQ(worker1->stats().blocks, 0u);
  EXPECT_EQ(worker2->stats().blocks, 0u);
  primary.merge_stats(*worker1);
  EXPECT_EQ(primary.stats().blocks, 3u);
}

TEST(MergeStats, AcbmMergeSortsDecisionLogIntoEncodeOrder) {
  auto [ref, cur] = shifted_pair(96, 96, 3, 2, 34);
  const SearchFixture fx(std::move(ref), std::move(cur));

  core::Acbm primary;
  primary.set_record_log(true);
  const auto w1 = primary.clone();
  const auto w2 = primary.clone();
  auto* worker1 = dynamic_cast<core::Acbm*>(w1.get());
  auto* worker2 = dynamic_cast<core::Acbm*>(w2.get());

  // Worker 2 handles row 1, worker 1 handles row 0; merge in worker order
  // must still yield raster order.
  me::BlockContext row1 = fx.context(32, 32);
  row1.bx = 0;
  row1.by = 1;
  (void)worker2->estimate(row1);
  me::BlockContext row0 = fx.context(16, 16);
  row0.bx = 1;
  row0.by = 0;
  (void)worker1->estimate(row0);

  primary.merge_stats(*worker2);
  primary.merge_stats(*worker1);
  ASSERT_EQ(primary.decision_log().size(), 2u);
  EXPECT_EQ(primary.decision_log()[0].by, 0);
  EXPECT_EQ(primary.decision_log()[1].by, 1);
}

TEST(MergeStats, AcbmRejectsForeignWorkerType) {
  core::Acbm acbm;
  me::Pbm pbm;
  EXPECT_THROW(acbm.merge_stats(pbm), std::invalid_argument);
}

}  // namespace
}  // namespace acbm
