// Locks down cross-session scoring: DetectSessions, which fans the spans of
// all sessions out across the pool together, must be verdict-identical to
// per-session DetectSession at any thread count, degenerate sessions
// included. Also the weight-version staleness contract: a
// MarkWeightsUpdated landing mid-forward (or mid-session) can never mix
// weight versions within one pass.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/infer.h"
#include "nn/tensor.h"
#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/tape_reference.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ucad {
namespace {

/// Restores single-thread mode even when a test fails mid-way, so later
/// tests in this binary never inherit a parallel pool unexpectedly.
class ThreadGuard {
 public:
  ~ThreadGuard() { util::SetNumThreads(1); }
};

std::vector<int> RandomWindow(const transdas::TransDasConfig& config,
                              util::Rng* rng) {
  std::vector<int> window(config.window);
  for (int& key : window) {
    key = static_cast<int>(rng->UniformU64(config.vocab_size));
  }
  return window;
}

void ExpectOperationEqual(const transdas::OperationVerdict& a,
                          const transdas::OperationVerdict& b) {
  ASSERT_EQ(a.position, b.position);
  ASSERT_EQ(a.rank, b.rank);
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.score, b.score);
  ASSERT_EQ(a.margin, b.margin);
}

void ExpectVerdictEqual(const transdas::SessionVerdict& a,
                        const transdas::SessionVerdict& b) {
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.operations.size(), b.operations.size());
  for (size_t i = 0; i < a.operations.size(); ++i) {
    ExpectOperationEqual(a.operations[i], b.operations[i]);
  }
}

// ---------- Cross-session scoring: verdict identity ----------

std::vector<std::vector<int>> RandomSessions(int count, int vocab,
                                             util::Rng* rng) {
  std::vector<std::vector<int>> sessions(count);
  for (std::vector<int>& keys : sessions) {
    const int n = static_cast<int>(rng->UniformU64(40));
    keys.resize(n);
    for (int& key : keys) {
      // Mostly in-vocab, with occasional unknown (negative / >= vocab) keys
      // to exercise sanitization across the cross-session fan-out.
      const uint64_t pick = rng->UniformU64(20);
      if (pick == 0) {
        key = -3;
      } else if (pick == 1) {
        key = vocab + static_cast<int>(rng->UniformU64(5));
      } else {
        key = static_cast<int>(rng->UniformU64(vocab));
      }
    }
  }
  return sessions;
}

TEST(BatchedDetectorTest, DetectSessionsMatchesPerSessionVerdicts) {
  ThreadGuard guard;
  transdas::TransDasConfig config;
  config.vocab_size = 25;
  config.window = 7;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(99);
  transdas::TransDasModel model(config, &rng);
  const std::vector<std::vector<int>> sessions =
      RandomSessions(24, config.vocab_size, &rng);
  for (const bool batched : {true, false}) {
    transdas::DetectorOptions options;
    options.batched = batched;
    const transdas::TransDasDetector detector(&model, options);
    util::SetNumThreads(1);
    std::vector<transdas::SessionVerdict> expected;
    for (const std::vector<int>& keys : sessions) {
      expected.push_back(detector.DetectSession(keys));
    }
    for (int threads : {1, 2, 8}) {
      util::SetNumThreads(threads);
      // Spans of all sessions fan out across the pool together.
      const std::vector<transdas::SessionVerdict> many =
          detector.DetectSessions(sessions);
      ASSERT_EQ(many.size(), sessions.size());
      for (size_t s = 0; s < sessions.size(); ++s) {
        ExpectVerdictEqual(expected[s], many[s]);
      }
    }
  }
  util::SetNumThreads(1);
}

TEST(BatchedDetectorTest, DetectSessionsHandlesDegenerateSessions) {
  transdas::TransDasConfig config;
  config.vocab_size = 15;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(3);
  transdas::TransDasModel model(config, &rng);
  const transdas::TransDasDetector detector(&model,
                                            transdas::DetectorOptions{});
  // Empty and single-key sessions produce empty verdicts in place without
  // perturbing their scored neighbors.
  const std::vector<std::vector<int>> sessions = {
      {}, {1, 2, 3, 4, 5, 6, 7, 8}, {9}, {2, 3}};
  const std::vector<transdas::SessionVerdict> verdicts =
      detector.DetectSessions(sessions);
  ASSERT_EQ(verdicts.size(), 4u);
  EXPECT_TRUE(verdicts[0].operations.empty());
  EXPECT_FALSE(verdicts[0].abnormal);
  EXPECT_EQ(verdicts[1].operations.size(), 7u);
  EXPECT_TRUE(verdicts[2].operations.empty());
  EXPECT_EQ(verdicts[3].operations.size(), 1u);
  ExpectVerdictEqual(detector.DetectSession(sessions[1]), verdicts[1]);
  ExpectVerdictEqual(detector.DetectSession(sessions[3]), verdicts[3]);
}

TEST(IncrementalDetectorTest, MidSessionWeightHotSwapStaysIdentical) {
  transdas::TransDasConfig config;
  config.vocab_size = 21;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(57);
  transdas::TransDasModel model(config, &rng);
  const transdas::DetectorOptions options;
  const transdas::TransDasDetector detector(&model, options);
  std::vector<int> preceding;
  for (int step = 0; step < 16; ++step) {
    if (step == 8) {
      // Fine-tune-style hot swap mid-session: the streaming scorer's pooled
      // contexts must track the new weights from the very next operation.
      nn::Tensor& table = model.embedding().table().value();
      for (int i = 1; i < table.rows(); ++i) {
        for (int j = 0; j < table.cols(); ++j) table.at(i, j) *= 1.25f;
      }
      model.FreezePaddingRow();  // bumps weight_version
    }
    const int next = static_cast<int>(rng.UniformU64(config.vocab_size));
    ExpectOperationEqual(transdas::TapeScoreNextOperation(&model, preceding,
                                                          next, options.top_p),
                         detector.ScoreNextOperation(preceding, next));
    preceding.push_back(next);
  }
}

// ---------- Weight-version staleness: no mixing within one pass ----------

TEST(WeightVersionTest, MidForwardBumpNeverMixesVersionsInOnePass) {
  transdas::TransDasConfig config;
  config.vocab_size = 18;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(71);
  transdas::TransDasModel model(config, &rng);
  const int L = config.window;
  // The last block's first-head wq: Params() pushes, per block, 3 weights
  // per head then wo, 2 layer-norm params, w1, b1, w2, b2, 2 more norm
  // params — so the final block's params are the trailing 3m+9 entries.
  std::vector<nn::Parameter*> params = model.Params();
  const size_t per_block = 3 * config.num_heads + 9;
  nn::Parameter* last_wq = params[params.size() - per_block];
  ASSERT_EQ(last_wq->value().rows(), config.hidden_dim);
  ASSERT_EQ(last_wq->value().cols(),
            config.hidden_dim / config.num_heads);

  nn::InferenceContext ctx;
  const std::vector<int> window = RandomWindow(config, &rng);
  // Warm every block's packed-QKV cache at the current version, and take
  // the reference logits.
  const nn::Tensor reference = model.AllKeyLogitsInference(
      &ctx, model.ForwardInference(&ctx, window, L - 1), L - 1);
  const nn::Tensor saved_wq = last_wq->value();

  // Scribble the last block's wq and bump the version *between* block 0's
  // weight resolution and block 1's, mid-forward. The pass pinned its
  // version at entry, so block 1 must resolve the packed weights cached at
  // that version — never rebuild from the scribbled values.
  const uint64_t entry_version = model.weight_version();
  int scribbles = 0;
  model.SetBlockWeightsHookForTest(
      [&](int block_idx, uint64_t wv) {
        EXPECT_EQ(wv, entry_version);  // both blocks see the entry snapshot
        if (block_idx == 0 && scribbles == 0) {
          ++scribbles;
          nn::Tensor& w = last_wq->value();
          for (int i = 0; i < w.rows(); ++i) {
            for (int j = 0; j < w.cols(); ++j) w.at(i, j) += 1000.0f;
          }
          model.MarkWeightsUpdated();
        }
      });
  const nn::Tensor& mid_bump = model.AllKeyLogitsInference(
      &ctx, model.ForwardInference(&ctx, window, L - 1), L - 1);
  ASSERT_EQ(scribbles, 1);
  for (int j = 0; j < reference.cols(); ++j) {
    ASSERT_EQ(mid_bump.at(L - 1, j), reference.at(L - 1, j))
        << "a mid-forward version bump leaked into the pass at col " << j;
  }
  model.SetBlockWeightsHookForTest(nullptr);

  // Control: the scribbled weights + bumped version ARE picked up by the
  // next pass (the cache really does rebuild on version changes).
  const nn::Tensor& after = model.AllKeyLogitsInference(
      &ctx, model.ForwardInference(&ctx, window, L - 1), L - 1);
  bool any_diff = false;
  for (int j = 0; j < reference.cols() && !any_diff; ++j) {
    any_diff = after.at(L - 1, j) != reference.at(L - 1, j);
  }
  EXPECT_TRUE(any_diff) << "version bump must rebuild derived weights";

  // Restore and bump again: back to the reference bitwise.
  last_wq->value() = saved_wq;
  model.MarkWeightsUpdated();
  const nn::Tensor& restored = model.AllKeyLogitsInference(
      &ctx, model.ForwardInference(&ctx, window, L - 1), L - 1);
  for (int j = 0; j < reference.cols(); ++j) {
    ASSERT_EQ(restored.at(L - 1, j), reference.at(L - 1, j));
  }
}

}  // namespace
}  // namespace ucad
