// Randomized property tests for the evaluation metrics: for arbitrary
// classifiers and test-set layouts, the derived rates must satisfy the
// standard identities. Also the accounting invariant of batched inference:
// the batch-occupancy gauge must stay a valid ratio in (0, 1].

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "nn/infer.h"
#include "obs/metrics.h"
#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "util/rng.h"

namespace ucad::eval {
namespace {

/// Builds a random six-set layout and a pseudo-random classifier; returns
/// both the framework's metrics and a hand-computed confusion matrix.
struct Scenario {
  std::vector<LabeledSet> sets;
  SessionClassifier classifier;
  int tp = 0, fp = 0, tn = 0, fn = 0;
};

Scenario MakeScenario(uint64_t seed) {
  util::Rng rng(seed);
  Scenario sc;
  const sql::SessionLabel labels[] = {
      sql::SessionLabel::kNormal,        sql::SessionLabel::kNormalSwapped,
      sql::SessionLabel::kNormalReduced, sql::SessionLabel::kPrivilegeAbuse,
      sql::SessionLabel::kCredentialTheft, sql::SessionLabel::kMisoperation,
  };
  // Classifier: flags a session iff its first key is odd.
  sc.classifier = [](const std::vector<int>& s) {
    return !s.empty() && s[0] % 2 == 1;
  };
  for (sql::SessionLabel label : labels) {
    LabeledSet set;
    set.label = label;
    const int n = 1 + static_cast<int>(rng.UniformU64(20));
    for (int i = 0; i < n; ++i) {
      const int first = static_cast<int>(rng.UniformU64(10));
      set.sessions.push_back({first, 2, 3});
      const bool flagged = first % 2 == 1;
      if (sql::IsAbnormalLabel(label)) {
        (flagged ? sc.tp : sc.fn) += 1;
      } else {
        (flagged ? sc.fp : sc.tn) += 1;
      }
    }
    sc.sets.push_back(std::move(set));
  }
  return sc;
}

class MetricsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsPropertyTest, ConfusionMatrixMatchesHandCount) {
  const Scenario sc = MakeScenario(GetParam());
  const EvalResult r = Evaluate(sc.classifier, sc.sets);
  EXPECT_EQ(r.true_positives, sc.tp);
  EXPECT_EQ(r.false_positives, sc.fp);
  EXPECT_EQ(r.true_negatives, sc.tn);
  EXPECT_EQ(r.false_negatives, sc.fn);
}

TEST_P(MetricsPropertyTest, StandardIdentitiesHold) {
  const Scenario sc = MakeScenario(GetParam());
  const EvalResult r = Evaluate(sc.classifier, sc.sets);
  // Rates in [0, 1].
  for (const auto& [label, rate] : r.per_set_rate) {
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  EXPECT_GE(r.precision, 0.0);
  EXPECT_LE(r.precision, 1.0);
  EXPECT_GE(r.recall, 0.0);
  EXPECT_LE(r.recall, 1.0);
  // F1 is the harmonic mean when both parts are nonzero.
  if (r.precision + r.recall > 0) {
    EXPECT_NEAR(r.f1,
                2 * r.precision * r.recall / (r.precision + r.recall),
                1e-12);
    // Harmonic mean is bounded by min and max of its parts.
    EXPECT_LE(r.f1, std::max(r.precision, r.recall) + 1e-12);
    EXPECT_GE(r.f1, std::min(r.precision, r.recall) - 1e-12);
  } else {
    EXPECT_EQ(r.f1, 0.0);
  }
  // Precision/recall recomputed from the confusion matrix.
  if (r.true_positives + r.false_positives > 0) {
    EXPECT_NEAR(r.precision,
                static_cast<double>(r.true_positives) /
                    (r.true_positives + r.false_positives),
                1e-12);
  }
  if (r.true_positives + r.false_negatives > 0) {
    EXPECT_NEAR(r.recall,
                static_cast<double>(r.true_positives) /
                    (r.true_positives + r.false_negatives),
                1e-12);
  }
}

TEST_P(MetricsPropertyTest, FlagEverythingGivesPerfectRecall) {
  const Scenario sc = MakeScenario(GetParam());
  const EvalResult r =
      Evaluate([](const std::vector<int>&) { return true; }, sc.sets);
  EXPECT_DOUBLE_EQ(r.recall, 1.0);
  for (const auto& [label, rate] : r.per_set_rate) {
    if (sql::IsAbnormalLabel(label)) {
      EXPECT_DOUBLE_EQ(rate, 0.0);  // FNR
    } else {
      EXPECT_DOUBLE_EQ(rate, 1.0);  // FPR
    }
  }
}

TEST_P(MetricsPropertyTest, BinaryAgreesWithSetEvaluation) {
  const Scenario sc = MakeScenario(GetParam());
  // Flatten the sets into a binary-labeled list and compare.
  std::vector<std::vector<int>> sessions;
  std::vector<bool> labels;
  for (const auto& set : sc.sets) {
    for (const auto& s : set.sessions) {
      sessions.push_back(s);
      labels.push_back(sql::IsAbnormalLabel(set.label));
    }
  }
  const BinaryMetrics b = EvaluateBinary(sc.classifier, sessions, labels);
  const EvalResult r = Evaluate(sc.classifier, sc.sets);
  EXPECT_NEAR(b.precision, r.precision, 1e-12);
  EXPECT_NEAR(b.recall, r.recall, 1e-12);
  EXPECT_NEAR(b.f1, r.f1, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u,
                                           31337u, 271828u, 314159u));

// ---------- Batched inference accounting invariants ----------

class InferAccountingPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(InferAccountingPropertyTest, BatchOccupancyGaugeStaysARatio) {
  util::Rng rng(GetParam() + 17);
  transdas::TransDasConfig config;
  config.vocab_size = 18;
  config.window = 5;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  transdas::TransDasModel model(config, &rng);
  transdas::DetectorOptions opts;
  opts.batch_windows = 2 + static_cast<int>(rng.UniformU64(4));
  const transdas::TransDasDetector detector(&model, opts);

  const uint64_t windows0 = nn::internal::BatchedWindowsTotal();
  const uint64_t slots0 = nn::internal::BatchedSlotsTotal();
  const uint64_t batches0 = nn::internal::BatchForwardsTotal();
  std::vector<std::vector<int>> sessions(6);
  for (std::vector<int>& keys : sessions) {
    keys.resize(2 + rng.UniformU64(25));
    for (int& key : keys) {
      key = static_cast<int>(rng.UniformU64(config.vocab_size));
    }
  }
  detector.DetectSessions(sessions);
  const uint64_t windows = nn::internal::BatchedWindowsTotal() - windows0;
  const uint64_t slots = nn::internal::BatchedSlotsTotal() - slots0;
  const uint64_t batches = nn::internal::BatchForwardsTotal() - batches0;
  ASSERT_GT(batches, 0u);
  // Each batch contributes capacity slots and 1..capacity windows, so the
  // occupancy ratio is bounded by (0, 1] and the slot count is exactly
  // batches * batch_windows.
  EXPECT_EQ(slots, batches * static_cast<uint64_t>(opts.batch_windows));
  EXPECT_GE(windows, batches);  // at least one window per batch
  EXPECT_LE(windows, slots);
  // The published gauge is the cumulative ratio and must stay in (0, 1].
  obs::MetricsRegistry registry;
  nn::PublishInferMetrics(&registry);
  const double occupancy =
      registry.GetGauge("nn/infer/batch_occupancy")->Value();
  EXPECT_GT(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InferAccountingPropertyTest,
                         ::testing::Values(3u, 19u, 777u, 4242u));

}  // namespace
}  // namespace ucad::eval
