// Locks down the kernel-tier contract (docs/INFERENCE.md "Kernel tiers"):
// the vectorized tier (runtime-dispatched SIMD kernels with relaxed
// rounding) must be VERDICT-identical to the reference tier across configs,
// thread counts, and scoring modes (batched, per-op, streaming), and
// its per-kernel outputs must stay within tight error bounds of the scalar
// reference. Also: the dispatcher's forced-scalar override, tier plumbing
// defaults, and the nn/infer tier metrics — including that a detector's
// tier reaches every forward its pool workers run.

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/dataset.h"
#include "eval/experiment_config.h"
#include "nn/infer.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "obs/metrics.h"
#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/trainer.h"
#include "util/cpu_features.h"
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

/// Clears any ISA override on scope exit, so a failing dispatch test can't
/// leave the rest of the binary pinned to scalar.
class IsaOverrideGuard {
 public:
  ~IsaOverrideGuard() { util::ClearSimdIsaOverride(); }
};

std::vector<int> RandomSession(const transdas::TransDasConfig& config,
                               int length, util::Rng* rng) {
  std::vector<int> keys(length);
  for (int& key : keys) {
    key = 1 + static_cast<int>(rng->UniformU64(config.vocab_size - 1));
  }
  return keys;
}

/// Verdict identity as the kernel-tier contract defines it: the same
/// positions flagged, with the same ranks. On untrained random-init
/// models (every cross-tier config below) adjacent rank candidates can
/// sit within one ulp of each other, and the *reference* kernels round
/// differently across -march levels — so ranks are held to within one
/// step here, while flags stay exact. The trained Scenario-I test below
/// asserts exact rank identity, which is the contract on real models.
void ExpectVerdictEqual(const transdas::SessionVerdict& a,
                        const transdas::SessionVerdict& b) {
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.operations.size(), b.operations.size());
  for (size_t i = 0; i < a.operations.size(); ++i) {
    ASSERT_EQ(a.operations[i].position, b.operations[i].position);
    ASSERT_LE(std::abs(a.operations[i].rank - b.operations[i].rank), 1)
        << "op " << i << ": rank " << a.operations[i].rank << " vs "
        << b.operations[i].rank;
    ASSERT_EQ(a.operations[i].abnormal, b.operations[i].abnormal);
  }
}

/// Exact rank identity — the contract on trained models, where margins
/// dwarf the fast tiers' rounding differences.
void ExpectVerdictExact(const transdas::SessionVerdict& a,
                        const transdas::SessionVerdict& b) {
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.operations.size(), b.operations.size());
  for (size_t i = 0; i < a.operations.size(); ++i) {
    ASSERT_EQ(a.operations[i].position, b.operations[i].position);
    ASSERT_EQ(a.operations[i].rank, b.operations[i].rank);
    ASSERT_EQ(a.operations[i].abnormal, b.operations[i].abnormal);
  }
}

std::vector<transdas::TransDasConfig> ParityConfigs() {
  // Spans window length, head count, depth, mask mode, and the
  // position-embedding ablation; config 2 is the paper's Scenario-I shape.
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
  return configs;
}

nn::Tensor RandomTensor(int rows, int cols, util::Rng* rng,
                        float scale = 1.0f) {
  nn::Tensor t(rows, cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      t.at(i, j) = scale * static_cast<float>(rng->Normal());
    }
  }
  return t;
}

float MaxAbs(const nn::Tensor& t) {
  float m = 0.0f;
  for (int i = 0; i < t.rows(); ++i) {
    for (int j = 0; j < t.cols(); ++j) {
      m = std::max(m, std::abs(t.at(i, j)));
    }
  }
  return m;
}

// ---------- Tier plumbing defaults ----------

TEST(KernelTierTest, NamesParseRoundTrip) {
  for (nn::KernelTier tier :
       {nn::KernelTier::kReference, nn::KernelTier::kVectorized}) {
    nn::KernelTier parsed;
    ASSERT_TRUE(nn::ParseKernelTier(nn::KernelTierName(tier), &parsed));
    EXPECT_EQ(parsed, tier);
  }
  nn::KernelTier parsed = nn::KernelTier::kVectorized;
  EXPECT_FALSE(nn::ParseKernelTier("avx512-extreme", &parsed));
  EXPECT_FALSE(nn::ParseKernelTier("int8", &parsed));
  EXPECT_EQ(parsed, nn::KernelTier::kVectorized);  // junk leaves *out alone
}

TEST(SimdDispatchTest, ScalarOverrideNarrowsDispatch) {
  IsaOverrideGuard guard;
  // Whatever the hardware offers, a scalar override must win (the CI
  // fallback leg and the bench's pinned-reference runs rely on it)...
  util::SetSimdIsaOverride(util::SimdIsa::kScalar);
  EXPECT_EQ(util::ActiveSimdIsa(), util::SimdIsa::kScalar);
  util::ClearSimdIsaOverride();
  // ...and a widening override must NOT: dispatch never exceeds what the
  // build + CPU support.
  const util::SimdIsa native = util::ActiveSimdIsa();
  util::SetSimdIsaOverride(util::SimdIsa::kAvx2);
  EXPECT_EQ(util::ActiveSimdIsa(), native);
  util::ClearSimdIsaOverride();

  util::SimdIsa parsed;
  for (util::SimdIsa isa :
       {util::SimdIsa::kScalar, util::SimdIsa::kAvx2, util::SimdIsa::kNeon}) {
    ASSERT_TRUE(util::ParseSimdIsa(util::SimdIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  EXPECT_FALSE(util::ParseSimdIsa("mmx", &parsed));
  EXPECT_FALSE(util::CpuFeaturesString().empty());
}

// ---------- Per-kernel error bounds: vectorized vs scalar reference ----------

TEST(FastKernelBoundsTest, PolynomialExpMatchesLibm) {
  // The softmax only ever feeds x <= 0 (max-subtracted), but hold the bound
  // on both sides of the clamp range.
  float max_rel = 0.0f;
  for (float x = -87.0f; x <= 88.0f; x += 0.0137f) {
    const float ref = std::exp(x);
    const float got = nn::fast::Exp(x);
    if (ref > 0.0f) {
      max_rel = std::max(max_rel, std::abs(got - ref) / ref);
    }
  }
  EXPECT_LT(max_rel, 3e-7f);
  // Deep underflow (the attention mask's -1e9) is exactly zero, never a
  // clamped subnormal-bound value.
  EXPECT_EQ(nn::fast::Exp(-1e9f), 0.0f);
  EXPECT_EQ(nn::fast::Exp(-88.0f), 0.0f);
}

TEST(FastKernelBoundsTest, MatMulSliceWithinTolerance) {
  util::Rng rng(404);
  for (const auto& [rows, k, cols] : std::vector<std::array<int, 3>>{
           {30, 10, 32}, {12, 15, 51}, {7, 8, 9}, {30, 10, 200}}) {
    const nn::Tensor a = RandomTensor(rows, k, &rng);
    const nn::Tensor b = RandomTensor(k, cols, &rng);
    nn::Tensor ref(rows, cols);
    nn::MatMulSliceKernel(nn::KernelTier::kReference, a, 0, k, b, 0, &ref,
                          0.5f);
    nn::Tensor got(rows, cols);
    nn::fast::MatMulSlice(a, 0, k, b, 0, rows, 0.5f, &got);
    // Relaxed accumulation order + FMA: error grows with depth, bounded by
    // a few ULP per accumulation step.
    const float tol = 1e-5f * std::max(1.0f, MaxAbs(ref));
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        ASSERT_NEAR(got.at(i, j), ref.at(i, j), tol)
            << rows << "x" << k << "x" << cols << " at (" << i << "," << j
            << ")";
      }
    }
  }
}

TEST(FastKernelBoundsTest, MaskedSoftmaxWithinTolerance) {
  util::Rng rng(405);
  const int L = 30;
  nn::Tensor mask(L, L);
  for (int i = 0; i + 1 < L; ++i) mask.at(i, i + 1) = -1e9f;
  nn::Tensor ref = RandomTensor(L, L, &rng, 4.0f);
  nn::Tensor got = ref;
  nn::MaskedSoftmaxKernel(nn::KernelTier::kReference, &ref, 0.25f, mask);
  nn::fast::MaskedSoftmax(&got, 0.25f, mask, 0);
  for (int i = 0; i < L; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < L; ++j) {
      ASSERT_NEAR(got.at(i, j), ref.at(i, j), 2e-6f)
          << "at (" << i << "," << j << ")";
      sum += got.at(i, j);
      if (mask.at(i, j) < 0.0f) {
        // Masked terms are exactly zero, like the reference's libm exp — a
        // subnormal here would cost microcode assists downstream.
        EXPECT_EQ(got.at(i, j), 0.0f) << "at (" << i << "," << j << ")";
      }
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(FastKernelBoundsTest, ResidualLayerNormBiasAndContextWithinTolerance) {
  util::Rng rng(406);
  const int L = 30, h = 10;
  const nn::Tensor x = RandomTensor(L, h, &rng);
  const nn::Tensor res = RandomTensor(L, h, &rng);
  const nn::Tensor gain = RandomTensor(1, h, &rng, 0.5f);
  const nn::Tensor bias = RandomTensor(1, h, &rng, 0.5f);
  nn::Tensor ref(L, h);
  nn::ResidualLayerNormKernel(nn::KernelTier::kReference, x, res, gain, bias,
                              1e-5f, &ref);
  nn::Tensor got(L, h);
  nn::fast::ResidualLayerNorm(x, res, gain, bias, 1e-5f, &got, 0, L);
  for (int i = 0; i < L; ++i) {
    for (int j = 0; j < h; ++j) {
      ASSERT_NEAR(got.at(i, j), ref.at(i, j), 1e-4f);
    }
  }

  // BiasReluKernel and BiasAddKernel have no relaxed body: both tiers run
  // the reference loop, which infer_test's tape-parity suites hold bitwise.

  // Head widths: the Scenario-I width, and one wider than the generic
  // body's 64-column register tile (a loaded model may set it), each on
  // the native and the forced-scalar dispatch.
  IsaOverrideGuard isa_guard;
  nn::Tensor att = RandomTensor(L, L, &rng);
  nn::MaskedSoftmaxKernel(nn::KernelTier::kReference, &att, 1.0f,
                          nn::Tensor(L, L));
  for (const int hd : {5, 80}) {
    const nn::Tensor qkv = RandomTensor(L, 20 + hd, &rng);
    nn::Tensor ctx_ref(L, hd);
    nn::AttnContextKernel(nn::KernelTier::kReference, att, 0, qkv, 20, hd, 0,
                          &ctx_ref);
    for (const bool scalar : {false, true}) {
      if (scalar) util::SetSimdIsaOverride(util::SimdIsa::kScalar);
      nn::Tensor ctx_got(L, hd);
      nn::fast::AttnContext(att, 0, qkv, 20, hd, 0, &ctx_got);
      util::ClearSimdIsaOverride();
      for (int i = 0; i < L; ++i) {
        for (int j = 0; j < hd; ++j) {
          ASSERT_NEAR(ctx_got.at(i, j), ctx_ref.at(i, j), 1e-5f)
              << "hd " << hd << " scalar " << scalar;
        }
      }
    }
  }
}

// ---------- Verdict identity: vectorized vs reference ----------

void ExpectVerdictIdentityAcrossTiers(nn::KernelTier tier) {
  ThreadGuard guard;
  util::Rng rng(1234);
  for (const transdas::TransDasConfig& config : ParityConfigs()) {
    transdas::TransDasModel model(config, &rng);
    transdas::DetectorOptions ref_opts;
    transdas::DetectorOptions fast_opts;
    fast_opts.kernel_tier = tier;
    transdas::DetectorOptions ref_per_op = ref_opts;
    ref_per_op.batched = false;
    transdas::DetectorOptions fast_per_op = fast_opts;
    fast_per_op.batched = false;
    const transdas::TransDasDetector reference(&model, ref_opts);
    const transdas::TransDasDetector vectorized(&model, fast_opts);
    const transdas::TransDasDetector ref_per_op_engine(&model, ref_per_op);
    const transdas::TransDasDetector fast_per_op_engine(&model, fast_per_op);
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<int> keys =
          RandomSession(config, 3 * config.window + trial, &rng);
      for (int threads : {1, 2, 8}) {
        util::SetNumThreads(threads);
        const transdas::SessionVerdict expected = reference.DetectSession(keys);
        ExpectVerdictEqual(expected, vectorized.DetectSession(keys));
        ExpectVerdictEqual(ref_per_op_engine.DetectSession(keys),
                           fast_per_op_engine.DetectSession(keys));
      }
      util::SetNumThreads(1);
    }
    // Streaming next-operation scoring.
    std::vector<int> preceding;
    for (int step = 0; step < 2 * config.window; ++step) {
      const int next =
          1 + static_cast<int>(rng.UniformU64(config.vocab_size - 1));
      const transdas::OperationVerdict a =
          reference.ScoreNextOperation(preceding, next);
      const transdas::OperationVerdict b =
          vectorized.ScoreNextOperation(preceding, next);
      ASSERT_EQ(a.rank, b.rank) << "step " << step;
      ASSERT_EQ(a.abnormal, b.abnormal);
      preceding.push_back(next);
    }
  }
}

TEST(SimdVerdictIdentityTest, VectorizedMatchesReferenceAcrossTiers) {
  ExpectVerdictIdentityAcrossTiers(nn::KernelTier::kVectorized);
}

TEST(SimdVerdictIdentityTest, ForcedScalarDispatchMatchesReference) {
  // Pin dispatch to the generic bodies (what the non-AVX2 CI leg and
  // aarch64 run) and re-run the whole identity suite: the relaxed math
  // must be verdict-safe regardless of which body computes it.
  IsaOverrideGuard guard;
  util::SetSimdIsaOverride(util::SimdIsa::kScalar);
  ASSERT_EQ(util::ActiveSimdIsa(), util::SimdIsa::kScalar);
  ExpectVerdictIdentityAcrossTiers(nn::KernelTier::kVectorized);
}

TEST(SimdVerdictIdentityTest, TrainedScenarioVerdictsAcrossAllTiers) {
  ThreadGuard guard;
  // The acceptance contract: on a trained Table 2 scenario workload the
  // vectorized tier is verdict-identical, ranks included.
  eval::ScenarioConfig config = eval::ScenarioIConfig(eval::Scale::kSmoke);
  const eval::ScenarioDataset dataset =
      eval::BuildScenarioDataset(config.spec, config.dataset);
  config.model.vocab_size = dataset.vocab.size();
  util::Rng rng(5);
  transdas::TransDasModel model(config.model, &rng);
  config.training.epochs = 2;
  transdas::TransDasTrainer trainer(&model, config.training);
  trainer.Train(dataset.train);

  transdas::DetectorOptions ref_opts = config.detection;
  transdas::DetectorOptions vec_opts = config.detection;
  vec_opts.kernel_tier = nn::KernelTier::kVectorized;
  const transdas::TransDasDetector reference(&model, ref_opts);
  const transdas::TransDasDetector vectorized(&model, vec_opts);

  int64_t ops = 0;
  for (const eval::LabeledSet& set : dataset.TestSets()) {
    for (const std::vector<int>& keys : set.sessions) {
      for (int threads : {1, 4}) {
        util::SetNumThreads(threads);
        const transdas::SessionVerdict expected = reference.DetectSession(keys);
        ExpectVerdictExact(expected, vectorized.DetectSession(keys));
        if (threads == 1) {
          ops += static_cast<int64_t>(expected.operations.size());
        }
      }
      util::SetNumThreads(1);
    }
  }
  ASSERT_GT(ops, 0);
}

// ---------- Metrics ----------

TEST(KernelTierMetricsTest, PublishesTierSeries) {
  ThreadGuard guard;
  EXPECT_EQ(transdas::DetectorOptions{}.kernel_tier,
            nn::KernelTier::kReference);
  EXPECT_EQ(nn::InferenceContext().kernel_tier(), nn::KernelTier::kReference);
  transdas::TransDasConfig config;
  config.vocab_size = 16;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 1;
  util::Rng rng(17);
  transdas::TransDasModel model(config, &rng);
  transdas::DetectorOptions vec_opts;
  vec_opts.kernel_tier = nn::KernelTier::kVectorized;
  const transdas::TransDasDetector reference(&model,
                                             transdas::DetectorOptions{});
  const transdas::TransDasDetector vectorized(&model, vec_opts);
  util::Rng wrng(18);
  const std::vector<int> keys = RandomSession(config, 2 * config.window, &wrng);
  reference.DetectSession(keys);
  vectorized.DetectSession(keys);

  // The pool-worker case: at 4 lanes DetectSessions runs its span forwards
  // on pool threads, and every one of them must count under the
  // vectorized tier the detector's contexts carry.
  util::SetNumThreads(4);
  std::vector<std::vector<int>> sessions;
  const int L = config.window;
  for (int n : {1, 2, L, 3 * L + 2, 4 * L}) {
    sessions.push_back(RandomSession(config, n, &wrng));
  }
  const uint64_t forwards0 = nn::internal::InferForwardsTotal();
  const uint64_t vec0 =
      nn::internal::TierForwardsTotal(nn::KernelTier::kVectorized);
  const uint64_t ref0 =
      nn::internal::TierForwardsTotal(nn::KernelTier::kReference);
  vectorized.DetectSessions(sessions);
  const uint64_t forwards = nn::internal::InferForwardsTotal() - forwards0;
  EXPECT_GT(forwards, 0u);
  EXPECT_EQ(nn::internal::TierForwardsTotal(nn::KernelTier::kVectorized) -
                vec0,
            forwards);
  EXPECT_EQ(nn::internal::TierForwardsTotal(nn::KernelTier::kReference),
            ref0);
  util::SetNumThreads(1);

  obs::MetricsRegistry registry;
  nn::PublishInferMetrics(&registry);
  EXPECT_GE(registry
                .GetCounter("nn/infer/tier_forwards_total",
                            {{"tier", "vectorized"}})
                ->Value(),
            1u);
  EXPECT_GE(registry
                .GetCounter("nn/infer/tier_forwards_total",
                            {{"tier", "reference"}})
                ->Value(),
            1u);
  // Only the two tiers publish forward counters.
  size_t tier_series = 0;
  registry.ForEachSeries([&](const obs::MetricsRegistry::SeriesRef& ref) {
    if (ref.name == "nn/infer/tier_forwards_total") ++tier_series;
  });
  EXPECT_EQ(tier_series, 2u);
  // The vectorized detector ran last on this thread's pool, but another
  // test may have run since; the gauge only promises a valid tier code.
  const double tier = registry.GetGauge("nn/infer/kernel_tier")->Value();
  EXPECT_GE(tier, 0.0);
  EXPECT_LE(tier, 1.0);
  const double isa = registry.GetGauge("nn/infer/simd_isa")->Value();
  EXPECT_GE(isa, 0.0);
  EXPECT_LE(isa, 2.0);
}

}  // namespace
}  // namespace ucad
