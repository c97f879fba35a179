// Locks down batched scoring: the multi-window batched forward must be
// bitwise-identical to the per-window fused engine on every computed row —
// across configs, batch sizes, partial batches, and thread counts — and the
// detector paths built on it (DetectSessions, batch_windows) must be
// verdict-identical to per-window scoring. Also the weight-version
// staleness contract: a MarkWeightsUpdated landing mid-forward can never
// mix weight versions within one pass.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "nn/infer.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
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

std::vector<transdas::TransDasConfig> ParityConfigs() {
  // Spans window length, head count (incl. non-power-of-two head_dim),
  // depth, mask mode, and the position-embedding ablation.
  std::vector<transdas::TransDasConfig> configs(3);
  configs[0].vocab_size = 20;
  configs[0].window = 6;
  configs[0].hidden_dim = 8;
  configs[0].num_heads = 2;
  configs[0].num_blocks = 1;
  configs[1].vocab_size = 37;
  configs[1].window = 12;
  configs[1].hidden_dim = 15;
  configs[1].num_heads = 3;
  configs[1].num_blocks = 2;
  configs[1].use_position_embedding = true;
  configs[1].mask_mode = transdas::MaskMode::kCausal;
  configs[2].vocab_size = 29;
  configs[2].window = 10;
  configs[2].hidden_dim = 10;
  configs[2].num_heads = 2;
  configs[2].num_blocks = 3;
  return configs;
}

// ---------- Batched forward: bitwise parity with per-window ----------

TEST(BatchedInferTest, BatchedLogitsMatchPerWindowBitwise) {
  ThreadGuard guard;
  util::Rng rng(4242);
  for (const transdas::TransDasConfig& config : ParityConfigs()) {
    transdas::TransDasModel model(config, &rng);
    const int L = config.window;
    nn::InferenceContext ref_ctx;
    nn::InferenceContext batch_ctx;
    for (int B : {1, 3, 5}) {
      // Capacity above B exercises partially filled batches: unused slots
      // must never disturb the occupied rows.
      const int capacity = B + (B % 2);
      std::vector<int> keys;
      std::vector<int> rows_from(B);
      std::vector<std::vector<int>> windows(B);
      for (int b = 0; b < B; ++b) {
        windows[b] = RandomWindow(config, &rng);
        keys.insert(keys.end(), windows[b].begin(), windows[b].end());
        rows_from[b] = static_cast<int>(rng.UniformU64(L));
      }
      // Per-window references (full forwards; computed rows >= rows_from
      // agree bitwise with tail-restricted ones per the PR 5 contract).
      std::vector<nn::Tensor> refs;
      refs.reserve(B);
      for (int b = 0; b < B; ++b) {
        refs.push_back(model.AllKeyLogitsInference(
            &ref_ctx, model.ForwardInference(&ref_ctx, windows[b])));
      }
      for (int threads : {1, 2, 8}) {
        util::SetNumThreads(threads);
        const nn::Tensor& batched = model.AllKeyLogitsInferenceBatched(
            &batch_ctx,
            model.ForwardInferenceBatched(&batch_ctx, keys, rows_from,
                                          capacity),
            rows_from, capacity);
        ASSERT_EQ(batched.rows(), capacity * L);
        for (int b = 0; b < B; ++b) {
          for (int i = rows_from[b]; i < L; ++i) {
            for (int j = 0; j < refs[b].cols(); ++j) {
              ASSERT_EQ(batched.at(b * L + i, j), refs[b].at(i, j))
                  << "B " << B << " window " << b << " at (" << i << ", " << j
                  << ") threads " << threads;
            }
          }
        }
      }
      util::SetNumThreads(1);
    }
  }
}

// ---------- Detector tiers: verdict identity ----------

std::vector<std::vector<int>> RandomSessions(int count, int vocab,
                                             util::Rng* rng) {
  std::vector<std::vector<int>> sessions(count);
  for (std::vector<int>& keys : sessions) {
    const int n = static_cast<int>(rng->UniformU64(40));
    keys.resize(n);
    for (int& key : keys) {
      // Mostly in-vocab, with occasional unknown (negative / >= vocab) keys
      // to exercise sanitization through the batcher.
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

TEST(BatchedDetectorTest, BatchWindowsTierIsVerdictIdentical) {
  ThreadGuard guard;
  transdas::TransDasConfig config;
  config.vocab_size = 25;
  config.window = 7;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(99);
  transdas::TransDasModel model(config, &rng);
  const transdas::TransDasDetector reference(&model,
                                             transdas::DetectorOptions{});
  transdas::DetectorOptions batch_opts;
  batch_opts.batch_windows = 3;
  const transdas::TransDasDetector batcher(&model, batch_opts);
  const std::vector<std::vector<int>> sessions =
      RandomSessions(24, config.vocab_size, &rng);
  for (int threads : {1, 2, 8}) {
    util::SetNumThreads(threads);
    // Per-session batched tier.
    for (const std::vector<int>& keys : sessions) {
      transdas::SessionVerdict expected = reference.DetectSession(keys);
      transdas::SessionVerdict got = batcher.DetectSession(keys);
      ExpectVerdictEqual(expected, got);
    }
    // Cross-session batcher: spans of all sessions packed in input order.
    const std::vector<transdas::SessionVerdict> many =
        batcher.DetectSessions(sessions);
    ASSERT_EQ(many.size(), sessions.size());
    for (size_t s = 0; s < sessions.size(); ++s) {
      ExpectVerdictEqual(reference.DetectSession(sessions[s]), many[s]);
    }
  }
  util::SetNumThreads(1);
  // Without batching, the cross-session loop must match per-session calls.
  const std::vector<transdas::SessionVerdict> fallback =
      reference.DetectSessions(sessions);
  for (size_t s = 0; s < sessions.size(); ++s) {
    ExpectVerdictEqual(reference.DetectSession(sessions[s]), fallback[s]);
  }
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
  transdas::DetectorOptions opts;
  opts.batch_windows = 4;
  const transdas::TransDasDetector detector(&model, opts);
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

TEST(WeightVersionTest, MidForwardBumpDuringBatchedPassStaysConsistent) {
  transdas::TransDasConfig config;
  config.vocab_size = 16;
  config.window = 5;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(83);
  transdas::TransDasModel model(config, &rng);
  const int L = config.window;
  std::vector<nn::Parameter*> params = model.Params();
  const size_t per_block = 3 * config.num_heads + 9;
  nn::Parameter* last_wq = params[params.size() - per_block];

  nn::InferenceContext ctx;
  const int B = 3;
  std::vector<int> keys;
  std::vector<int> rows_from(B, 0);
  for (int b = 0; b < B; ++b) {
    const std::vector<int> w = RandomWindow(config, &rng);
    keys.insert(keys.end(), w.begin(), w.end());
  }
  const nn::Tensor reference = model.AllKeyLogitsInferenceBatched(
      &ctx, model.ForwardInferenceBatched(&ctx, keys, rows_from, B), rows_from,
      B);
  const nn::Tensor saved_wq = last_wq->value();
  int scribbles = 0;
  model.SetBlockWeightsHookForTest([&](int block_idx, uint64_t) {
    if (block_idx == 0 && scribbles == 0) {
      ++scribbles;
      nn::Tensor& w = last_wq->value();
      for (int i = 0; i < w.rows(); ++i) {
        for (int j = 0; j < w.cols(); ++j) w.at(i, j) -= 500.0f;
      }
      model.MarkWeightsUpdated();
    }
  });
  const nn::Tensor& mid_bump = model.AllKeyLogitsInferenceBatched(
      &ctx, model.ForwardInferenceBatched(&ctx, keys, rows_from, B), rows_from,
      B);
  ASSERT_EQ(scribbles, 1);
  for (int r = 0; r < B * L; ++r) {
    for (int j = 0; j < reference.cols(); ++j) {
      ASSERT_EQ(mid_bump.at(r, j), reference.at(r, j))
          << "batched pass mixed weight versions at (" << r << ", " << j
          << ")";
    }
  }
  model.SetBlockWeightsHookForTest(nullptr);
  last_wq->value() = saved_wq;
  model.MarkWeightsUpdated();
}

// ---------- Observability of batched scoring ----------

TEST(BatchedInferTest, PublishesBatchMetrics) {
  transdas::TransDasConfig config;
  config.vocab_size = 12;
  config.window = 4;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(5);
  transdas::TransDasModel model(config, &rng);
  nn::InferenceContext ctx;
  const std::vector<int> window = RandomWindow(config, &rng);
  std::vector<int> keys;
  for (int b = 0; b < 2; ++b) {
    keys.insert(keys.end(), window.begin(), window.end());
  }
  const std::vector<int> rows_from(2, 0);
  model.ForwardInferenceBatched(&ctx, keys, rows_from, 4);
  obs::MetricsRegistry registry;
  nn::PublishInferMetrics(&registry);
  EXPECT_GE(registry.GetCounter("nn/infer/batches_total")->Value(), 1u);
  EXPECT_GE(registry.GetCounter("nn/infer/batched_windows_total")->Value(),
            2u);
  const double occupancy =
      registry.GetGauge("nn/infer/batch_occupancy")->Value();
  EXPECT_GT(occupancy, 0.0);
  EXPECT_LE(occupancy, 1.0);
}

}  // namespace
}  // namespace ucad
