// Locks down the tentpole guarantee of the tape-free inference engine
// (src/nn/infer): for any model config, window, and thread count, the fused
// forward kernels produce all-key logits BITWISE-identical to the recording
// autograd tape, while performing zero tensor allocations at steady state.
// The detector's session loop is held to the tape reference scorer
// (transdas/tape_reference.h) verdict-for-verdict, bitwise, across both
// scoring modes and every thread count. Also covers the fused
// masked-softmax's numerical stability at extreme magnitudes and the
// unknown-key contract of the shared Eq. 10 scorer.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eval/dataset.h"
#include "eval/experiment_config.h"
#include "nn/infer.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/tape_reference.h"
#include "transdas/trainer.h"
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

void ExpectBitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  ASSERT_TRUE(a.SameShape(b));
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      ASSERT_EQ(a.at(i, j), b.at(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

std::vector<int> RandomWindow(const transdas::TransDasConfig& config,
                              util::Rng* rng) {
  std::vector<int> window(config.window);
  for (int& key : window) {
    key = static_cast<int>(rng->UniformU64(config.vocab_size));
  }
  return window;
}

/// Tape-path all-key logits for one window (the reference engine).
nn::Tensor TapeLogits(transdas::TransDasModel* model,
                      const std::vector<int>& window) {
  nn::Tape tape;
  nn::VarId outputs =
      model->Forward(&tape, window, /*training=*/false, nullptr);
  return tape.value(model->AllKeyLogits(&tape, outputs));
}

// ---------- Bitwise parity: tape engine == inference engine ----------

TEST(InferParityTest, LogitsMatchTapeBitwiseAcrossConfigsAndThreadCounts) {
  ThreadGuard guard;
  // Three configs spanning window length, head count, depth, mask mode,
  // and the position-embedding ablation.
  std::vector<transdas::TransDasConfig> configs(3);
  configs[0].vocab_size = 20;
  configs[0].window = 6;
  configs[0].hidden_dim = 8;
  configs[0].num_heads = 2;
  configs[0].num_blocks = 1;
  configs[1].vocab_size = 37;
  configs[1].window = 12;
  configs[1].hidden_dim = 12;
  configs[1].num_heads = 3;
  configs[1].num_blocks = 2;
  configs[1].use_position_embedding = true;
  configs[1].mask_mode = transdas::MaskMode::kCausal;
  configs[2].vocab_size = 51;
  configs[2].window = 30;
  configs[2].hidden_dim = 10;
  configs[2].num_heads = 2;
  configs[2].num_blocks = 3;

  util::Rng rng(1234);
  for (size_t c = 0; c < configs.size(); ++c) {
    transdas::TransDasModel model(configs[c], &rng);
    nn::InferenceContext ctx;
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<int> window = RandomWindow(configs[c], &rng);
      util::SetNumThreads(1);
      const nn::Tensor serial_tape = TapeLogits(&model, window);
      for (int threads : {1, 2, 8}) {
        util::SetNumThreads(threads);
        // Tape at this thread count must equal the serial tape (the PR 4
        // guarantee), and the fused engine must equal the tape — and hence
        // the serial reference — bitwise, reusing one context across every
        // trial and thread count.
        ExpectBitwiseEqual(TapeLogits(&model, window), serial_tape);
        const nn::Tensor& fused = model.AllKeyLogitsInference(
            &ctx, model.ForwardInference(&ctx, window));
        ExpectBitwiseEqual(fused, serial_tape);
      }
      util::SetNumThreads(1);
    }
  }
}

TEST(InferParityTest, TailRestrictedRowsMatchFullForwardBitwise) {
  ThreadGuard guard;
  // The detector only reads logits rows >= rows_from, so the engine skips
  // the final block's row-wise tail below that row. Every computed row must
  // still be bitwise what the full forward (and hence the tape) produces,
  // for any cut point, including the streaming scorer's L-1.
  transdas::TransDasConfig config;
  config.vocab_size = 23;
  config.window = 10;
  config.hidden_dim = 10;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(99);
  transdas::TransDasModel model(config, &rng);
  nn::InferenceContext full_ctx;
  nn::InferenceContext tail_ctx;
  for (int trial = 0; trial < 3; ++trial) {
    const std::vector<int> window = RandomWindow(config, &rng);
    const nn::Tensor reference = TapeLogits(&model, window);
    for (int rows_from : {0, 1, 4, config.window - 1}) {
      const nn::Tensor& restricted = model.AllKeyLogitsInference(
          &tail_ctx, model.ForwardInference(&tail_ctx, window, rows_from),
          rows_from);
      ASSERT_TRUE(restricted.SameShape(reference));
      for (int i = rows_from; i < config.window; ++i) {
        for (int j = 0; j < reference.cols(); ++j) {
          ASSERT_EQ(restricted.at(i, j), reference.at(i, j))
              << "rows_from " << rows_from << " at (" << i << ", " << j << ")";
        }
      }
    }
    // A full forward on a context that previously ran restricted frames
    // must also stay exact (workspace slots are shared across cut points).
    ExpectBitwiseEqual(model.AllKeyLogitsInference(
                           &full_ctx, model.ForwardInference(&full_ctx, window)),
                       reference);
  }
}

TEST(InferParityTest, FineTuneInvalidatesCachedTransposedTable) {
  transdas::TransDasConfig config;
  config.vocab_size = 16;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(77);
  transdas::TransDasModel model(config, &rng);
  nn::InferenceContext ctx;
  const std::vector<int> window = RandomWindow(config, &rng);
  ExpectBitwiseEqual(
      model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, window)),
      TapeLogits(&model, window));
  // Mutate the embedding table the way fine-tuning does (optimizer step +
  // FreezePaddingRow bumps weight_version): the cached M^T must rebuild.
  nn::Tensor& table = model.embedding().table().value();
  for (int i = 0; i < table.rows(); ++i) {
    for (int j = 0; j < table.cols(); ++j) table.at(i, j) += 0.25f;
  }
  model.FreezePaddingRow();
  ExpectBitwiseEqual(
      model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, window)),
      TapeLogits(&model, window));
}

// ---------- Verdict identity on Table 2 workloads ----------

TEST(InferParityTest, DetectSessionVerdictsIdenticalOnScenarioWorkloads) {
  ThreadGuard guard;
  eval::ScenarioConfig config = eval::ScenarioIConfig(eval::Scale::kSmoke);
  const eval::ScenarioDataset dataset =
      eval::BuildScenarioDataset(config.spec, config.dataset);
  config.model.vocab_size = dataset.vocab.size();
  util::Rng rng(5);
  transdas::TransDasModel model(config.model, &rng);
  config.training.epochs = 2;
  transdas::TransDasTrainer trainer(&model, config.training);
  trainer.Train(dataset.train);

  const transdas::TransDasDetector infer_engine(&model, config.detection);

  int sessions = 0;
  for (const eval::LabeledSet& set : dataset.TestSets()) {
    for (const std::vector<int>& keys : set.sessions) {
      const transdas::SessionVerdict expected =
          transdas::TapeDetectSession(&model, keys, config.detection.top_p,
                                      config.detection.batched);
      for (int threads : {1, 4}) {
        util::SetNumThreads(threads);
        const transdas::SessionVerdict got = infer_engine.DetectSession(keys);
        ASSERT_EQ(expected.abnormal, got.abnormal);
        ASSERT_EQ(expected.operations.size(), got.operations.size());
        for (size_t i = 0; i < expected.operations.size(); ++i) {
          ASSERT_EQ(expected.operations[i].position, got.operations[i].position);
          ASSERT_EQ(expected.operations[i].rank, got.operations[i].rank);
          ASSERT_EQ(expected.operations[i].abnormal, got.operations[i].abnormal);
          ASSERT_EQ(expected.operations[i].score, got.operations[i].score);
          ASSERT_EQ(expected.operations[i].margin, got.operations[i].margin);
        }
      }
      util::SetNumThreads(1);
      ++sessions;
    }
  }
  EXPECT_GT(sessions, 0);
}

TEST(InferParityTest, StreamingScorerMatchesAcrossEngines) {
  transdas::TransDasConfig config;
  config.vocab_size = 24;
  config.window = 8;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(11);
  transdas::TransDasModel model(config, &rng);
  const transdas::DetectorOptions options;
  const transdas::TransDasDetector infer_engine(&model, options);
  std::vector<int> preceding;
  for (int step = 0; step < 12; ++step) {
    const int next = 1 + static_cast<int>(rng.UniformU64(config.vocab_size - 1));
    const transdas::OperationVerdict a = transdas::TapeScoreNextOperation(
        &model, preceding, next, options.top_p);
    const transdas::OperationVerdict b =
        infer_engine.ScoreNextOperation(preceding, next);
    ASSERT_EQ(a.rank, b.rank);
    ASSERT_EQ(a.score, b.score);
    ASSERT_EQ(a.margin, b.margin);
    ASSERT_EQ(a.abnormal, b.abnormal);
    preceding.push_back(next);
  }
}

// ---------- Tape-reference contract of the session loop ----------

void ExpectVerdictBitwise(const transdas::SessionVerdict& a,
                          const transdas::SessionVerdict& b) {
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.operations.size(), b.operations.size());
  for (size_t i = 0; i < a.operations.size(); ++i) {
    const transdas::OperationVerdict& x = a.operations[i];
    const transdas::OperationVerdict& y = b.operations[i];
    ASSERT_EQ(x.position, y.position) << "op " << i;
    ASSERT_EQ(x.rank, y.rank) << "op " << i;
    ASSERT_EQ(x.abnormal, y.abnormal) << "op " << i;
    ASSERT_EQ(x.score, y.score) << "op " << i;
    ASSERT_EQ(x.margin, y.margin) << "op " << i;
  }
}

TEST(TapeReferenceContractTest, SessionLoopMatchesTapeReferenceBitwise) {
  ThreadGuard guard;
  transdas::TransDasConfig config;
  config.vocab_size = 21;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(606);
  transdas::TransDasModel model(config, &rng);
  const int L = config.window;
  // Empty, single-key, sub-window, exact-window, one-past and multi-window
  // sessions, with an unknown key mixed into the longer ones.
  std::vector<std::vector<int>> sessions;
  for (int n : {0, 1, 2, L - 1, L, L + 1, 3 * L + 2}) {
    std::vector<int> keys(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      keys[static_cast<size_t>(i)] =
          i == 4 ? config.vocab_size + 3
                 : static_cast<int>(rng.UniformU64(config.vocab_size));
    }
    sessions.push_back(std::move(keys));
  }
  for (bool batched : {true, false}) {
    std::vector<transdas::SessionVerdict> expected;
    for (const std::vector<int>& keys : sessions) {
      expected.push_back(
          transdas::TapeDetectSession(&model, keys, /*top_p=*/3, batched));
    }
    transdas::DetectorOptions options;
    options.top_p = 3;
    options.batched = batched;
    const transdas::TransDasDetector detector(&model, options);
    for (int threads : {1, 2, 8}) {
      util::SetNumThreads(threads);
      SCOPED_TRACE(::testing::Message()
                   << "batched " << batched << " threads " << threads);
      const std::vector<transdas::SessionVerdict> all =
          detector.DetectSessions(sessions);
      ASSERT_EQ(all.size(), sessions.size());
      for (size_t i = 0; i < sessions.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "session length "
                                          << sessions[i].size());
        ExpectVerdictBitwise(expected[i], all[i]);
        ExpectVerdictBitwise(expected[i],
                             detector.DetectSession(sessions[i]));
        ExpectVerdictBitwise(expected[i],
                             detector.ShadowDetectSession(sessions[i]));
      }
    }
    util::SetNumThreads(1);
  }
}

// ---------- Masked-softmax numerical stability ----------

TEST(MaskedSoftmaxKernelTest, ExtremeMagnitudesStayFinite) {
  // Rows mixing |x| >= 80 entries of both signs with -1e9 mask terms: the
  // max-subtracted exp keeps every probability finite and normalized.
  nn::Tensor scores(4, 6);
  nn::Tensor mask(4, 6);
  util::Rng rng(3);
  for (int r = 0; r < scores.rows(); ++r) {
    for (int c = 0; c < scores.cols(); ++c) {
      const float magnitude = 80.0f + static_cast<float>(rng.UniformU64(40));
      scores.at(r, c) = rng.Bernoulli(0.5) ? magnitude : -magnitude;
      mask.at(r, c) = (c == (r + 1) % scores.cols()) ? -1e9f : 0.0f;
    }
  }
  nn::MaskedSoftmaxKernel(nn::KernelTier::kReference, &scores, 1.0f, mask);
  for (int r = 0; r < scores.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < scores.cols(); ++c) {
      ASSERT_TRUE(std::isfinite(scores.at(r, c)));
      ASSERT_GE(scores.at(r, c), 0.0f);
      sum += scores.at(r, c);
      if (mask.at(r, c) < 0.0f) {
        EXPECT_EQ(scores.at(r, c), 0.0f);
      }
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);
  }
}

TEST(MaskedSoftmaxKernelTest, ExtremeWeightsStayFiniteInBothEngines) {
  transdas::TransDasConfig config;
  config.vocab_size = 14;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(21);
  transdas::TransDasModel model(config, &rng);
  // Blow the embedding magnitudes up so attention scores clear |x| >= 80
  // before masking; both engines must stay NaN/Inf-free and agree bitwise.
  nn::Tensor& table = model.embedding().table().value();
  for (int i = 1; i < table.rows(); ++i) {
    for (int j = 0; j < table.cols(); ++j) table.at(i, j) *= 60.0f;
  }
  model.MarkWeightsUpdated();
  const std::vector<int> window = RandomWindow(config, &rng);
  const nn::Tensor tape_logits = TapeLogits(&model, window);
  nn::InferenceContext ctx;
  const nn::Tensor& fused = model.AllKeyLogitsInference(
      &ctx, model.ForwardInference(&ctx, window));
  for (int i = 0; i < fused.rows(); ++i) {
    for (int j = 0; j < fused.cols(); ++j) {
      ASSERT_TRUE(std::isfinite(fused.at(i, j)));
    }
  }
  ExpectBitwiseEqual(fused, tape_logits);
}

// ---------- Unknown-key contract of the shared scorer ----------

TEST(ScoreLogitsRowTest, UnknownKeysKeepInfiniteNegativeMargin) {
  const std::vector<float> logits = {0.0f, 3.0f, 2.0f, 1.0f, -1.0f};
  for (int key : {0, -3, 5, 99}) {
    const nn::RowScore rs =
        nn::ScoreLogitsRow(logits.data(), static_cast<int>(logits.size()),
                           key, /*top_p=*/2);
    EXPECT_EQ(rs.rank, static_cast<int>(logits.size()) + 1);
    EXPECT_EQ(rs.score, 0.0f);
    EXPECT_TRUE(std::isinf(rs.margin));
    EXPECT_LT(rs.margin, 0.0f);
    EXPECT_TRUE(rs.abnormal);
  }
}

TEST(ScoreLogitsRowTest, RankAndMarginAgreeOnKnownKeys) {
  const std::vector<float> logits = {0.0f, 3.0f, 2.0f, 1.0f, -1.0f};
  // key 2 has logit 2.0: rank 2, cutoff = 2nd-largest = 2.0 -> margin 0.
  nn::RowScore rs = nn::ScoreLogitsRow(logits.data(), 5, 2, /*top_p=*/2);
  EXPECT_EQ(rs.rank, 2);
  EXPECT_EQ(rs.score, 2.0f);
  EXPECT_EQ(rs.margin, 0.0f);
  EXPECT_FALSE(rs.abnormal);
  // key 4 has the worst logit: rank 4 > p, margin < 0.
  rs = nn::ScoreLogitsRow(logits.data(), 5, 4, /*top_p=*/2);
  EXPECT_EQ(rs.rank, 4);
  EXPECT_EQ(rs.score, -1.0f);
  EXPECT_LT(rs.margin, 0.0f);
  EXPECT_TRUE(rs.abnormal);
}

TEST(ScoreLogitsRowTest, DetectorFlagsUnknownKeyWithInfiniteMargin) {
  transdas::TransDasConfig config;
  config.vocab_size = 12;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(9);
  transdas::TransDasModel model(config, &rng);
  const transdas::TransDasDetector detector(&model,
                                            transdas::DetectorOptions{});
  // Key 0 (k0/unknown) mid-session must be flagged with margin -inf under
  // the fused engine.
  const transdas::SessionVerdict verdict =
      detector.DetectSession({1, 2, 0, 4, 5, 6});
  ASSERT_TRUE(verdict.abnormal);
  bool found = false;
  for (const transdas::OperationVerdict& op : verdict.operations) {
    if (op.position == 2) {
      EXPECT_EQ(op.rank, config.vocab_size + 1);
      EXPECT_TRUE(std::isinf(op.margin));
      EXPECT_LT(op.margin, 0.0f);
      EXPECT_TRUE(op.abnormal);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// ---------- Workspace reuse: zero steady-state allocations ----------

TEST(WorkspaceTest, SteadyStateForwardsAllocateNothing) {
  transdas::TransDasConfig config;
  config.vocab_size = 30;
  config.window = 10;
  config.hidden_dim = 12;
  config.num_heads = 2;
  config.num_blocks = 2;
  util::Rng rng(13);
  transdas::TransDasModel model(config, &rng);
  nn::InferenceContext ctx;
  const std::vector<int> warm = RandomWindow(config, &rng);
  model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, warm));

  nn::SetTensorMemTrackingEnabled(true);
  const uint64_t allocs_before = nn::TensorMemStats().alloc_count;
  const uint64_t forwards_before = nn::internal::InferForwardsTotal();
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<int> window = RandomWindow(config, &rng);
    model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, window));
  }
  const uint64_t allocs_after = nn::TensorMemStats().alloc_count;
  nn::SetTensorMemTrackingEnabled(false);
  EXPECT_EQ(allocs_after, allocs_before)
      << "warm inference forwards must not allocate tensors";
  EXPECT_EQ(nn::internal::InferForwardsTotal(), forwards_before + 8);
  EXPECT_GT(ctx.workspace().TotalBytes(), 0u);
  EXPECT_GT(ctx.workspace().NumBuffers(), 0u);
}

TEST(WorkspaceTest, PublishesInferMetrics) {
  transdas::TransDasConfig config;
  config.vocab_size = 10;
  config.window = 4;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(17);
  transdas::TransDasModel model(config, &rng);
  {
    nn::InferenceContext ctx;
    const std::vector<int> window = RandomWindow(config, &rng);
    model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, window));
    obs::MetricsRegistry registry;
    nn::PublishInferMetrics(&registry);
    EXPECT_GE(registry.GetCounter("nn/infer/contexts_total")->Value(), 1u);
    EXPECT_GE(registry.GetCounter("nn/infer/forwards_total")->Value(), 1u);
    EXPECT_GE(registry.GetGauge("nn/infer/live_contexts")->Value(), 1.0);
    EXPECT_GT(registry.GetGauge("nn/infer/workspace_live_bytes")->Value(),
              0.0);
    EXPECT_GT(registry.GetGauge("nn/infer/workspace_peak_bytes")->Value(),
              0.0);
  }
}

}  // namespace
}  // namespace ucad
