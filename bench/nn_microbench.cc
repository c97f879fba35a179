// Microbenchmarks (google-benchmark) for the substrate kernels on the
// training/detection hot paths: matmul, softmax, a full attention block,
// one Trans-DAS training step, preprocessing primitives, and the per-tier
// inference kernels (reference vs vectorized) at the detector's Scenario-I
// shapes.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "nn/infer.h"
#include "nn/simd.h"
#include "nn/tape.h"
#include "nn/tensor.h"
#include "prep/ngram.h"
#include "sql/statement.h"
#include "transdas/model.h"
#include "transdas/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ucad;  // NOLINT

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  nn::Tensor a = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor b = nn::Tensor::Randn(n, n, 1.0f, &rng);
  nn::Tensor out(n, n);
  for (auto _ : state) {
    nn::MatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SoftmaxRows(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  for (auto _ : state) {
    nn::Tape tape;
    nn::VarId a = tape.Constant(nn::Tensor::Randn(n, n, 1.0f, &rng));
    benchmark::DoNotOptimize(tape.value(tape.SoftmaxRows(a)).data());
  }
}
BENCHMARK(BM_SoftmaxRows)->Arg(50)->Arg(100);

void BM_TransDasForward(benchmark::State& state) {
  const int L = static_cast<int>(state.range(0));
  const int h = static_cast<int>(state.range(1));
  transdas::TransDasConfig config;
  config.vocab_size = 256;
  config.window = L;
  config.hidden_dim = h;
  config.num_heads = std::max(1, h / 8);
  config.num_blocks = 3;
  util::Rng rng(3);
  transdas::TransDasModel model(config, &rng);
  std::vector<int> window(L);
  for (int i = 0; i < L; ++i) window[i] = 1 + (i % 200);
  for (auto _ : state) {
    nn::Tape tape;
    nn::VarId out = model.Forward(&tape, window, false, nullptr);
    benchmark::DoNotOptimize(tape.value(out).data());
  }
}
BENCHMARK(BM_TransDasForward)->Args({30, 16})->Args({50, 32})->Args({100, 64});

void BM_TransDasTrainStep(benchmark::State& state) {
  const int L = static_cast<int>(state.range(0));
  transdas::TransDasConfig config;
  config.vocab_size = 128;
  config.window = L;
  config.hidden_dim = 32;
  config.num_heads = 4;
  config.num_blocks = 3;
  util::Rng rng(4);
  transdas::TransDasModel model(config, &rng);
  transdas::TrainOptions options;
  options.epochs = 1;
  transdas::TransDasTrainer trainer(&model, options);
  std::vector<int> session(2 * L);
  for (size_t i = 0; i < session.size(); ++i) {
    session[i] = 1 + static_cast<int>(i % 100);
  }
  for (auto _ : state) {
    trainer.Train({session});
  }
}
BENCHMARK(BM_TransDasTrainStep)->Arg(30)->Arg(50);

// ---- Per-tier inference kernels (docs/INFERENCE.md "Kernel tiers") ----
//
// Arg 0 selects the tier (0 = reference, 1 = vectorized); shapes are the
// detection hot path's: [L=30 x h=10] activations against the packed Q|K|V
// ([10 x 32]) and all-key-logits ([10 x vocab]) weights.

void BM_InferMatMulSlice(benchmark::State& state) {
  const auto tier = static_cast<nn::KernelTier>(state.range(0));
  const int cols = static_cast<int>(state.range(1));
  const int L = 30, h = 10;
  util::Rng rng(6);
  const nn::Tensor a = nn::Tensor::Randn(L, h, 1.0f, &rng);
  const nn::Tensor b = nn::Tensor::Randn(h, cols, 1.0f, &rng);
  nn::Tensor out(L, cols);
  nn::ScopedKernelTier scope(tier);
  for (auto _ : state) {
    nn::MatMulSliceKernel(a, 0, h, b, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * L * h * cols);
}
BENCHMARK(BM_InferMatMulSlice)
    ->Args({0, 32})
    ->Args({1, 32})
    ->Args({0, 512})
    ->Args({1, 512});

void BM_InferMaskedSoftmax(benchmark::State& state) {
  const auto tier = static_cast<nn::KernelTier>(state.range(0));
  const int L = 30;
  util::Rng rng(7);
  const nn::Tensor src = nn::Tensor::Randn(L, L, 2.0f, &rng);
  nn::Tensor mask(L, L);
  for (int i = 0; i + 1 < L; ++i) mask.at(i, i + 1) = -1e9f;
  nn::Tensor scores(L, L);
  nn::ScopedKernelTier scope(tier);
  for (auto _ : state) {
    // Both tiers pay the same refill; softmax runs on identical inputs.
    std::memcpy(scores.data(), src.data(),
                static_cast<size_t>(L) * L * sizeof(float));
    nn::MaskedSoftmaxKernel(&scores, 0.316f, mask);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * L * L);
}
BENCHMARK(BM_InferMaskedSoftmax)->Arg(0)->Arg(1);

void BM_InferResidualLayerNorm(benchmark::State& state) {
  const auto tier = static_cast<nn::KernelTier>(state.range(0));
  const int L = 30, h = 10;
  util::Rng rng(8);
  const nn::Tensor x = nn::Tensor::Randn(L, h, 1.0f, &rng);
  const nn::Tensor res = nn::Tensor::Randn(L, h, 1.0f, &rng);
  const nn::Tensor gain = nn::Tensor::Randn(1, h, 0.5f, &rng);
  const nn::Tensor bias = nn::Tensor::Randn(1, h, 0.5f, &rng);
  nn::Tensor out(L, h);
  nn::ScopedKernelTier scope(tier);
  for (auto _ : state) {
    nn::ResidualLayerNormKernel(x, res, gain, bias, 1e-5f, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * L * h);
}
BENCHMARK(BM_InferResidualLayerNorm)->Arg(0)->Arg(1);

void BM_InferAttnContext(benchmark::State& state) {
  const auto tier = static_cast<nn::KernelTier>(state.range(0));
  const int L = 30, h = 10, hd = 5;
  util::Rng rng(9);
  nn::Tensor att = nn::Tensor::Randn(L, L, 1.0f, &rng);
  nn::MaskedSoftmaxKernel(&att, 1.0f, nn::Tensor(L, L));
  const nn::Tensor qkv = nn::Tensor::Randn(L, 32, 1.0f, &rng);
  nn::Tensor concat(L, h);
  nn::ScopedKernelTier scope(tier);
  for (auto _ : state) {
    nn::AttnContextKernel(att, 0, qkv, 20, hd, 0, &concat);
    benchmark::DoNotOptimize(concat.data());
  }
  state.SetItemsProcessed(state.iterations() * 2ll * L * L * hd);
}
BENCHMARK(BM_InferAttnContext)->Arg(0)->Arg(1);

void BM_InferForwardTier(benchmark::State& state) {
  const auto tier = static_cast<nn::KernelTier>(state.range(0));
  transdas::TransDasConfig config;
  config.vocab_size = 512;
  config.window = 30;
  config.hidden_dim = 10;
  config.num_heads = 2;
  config.num_blocks = 6;
  util::Rng rng(10);
  transdas::TransDasModel model(config, &rng);
  nn::InferenceContext ctx;
  std::vector<int> window(config.window);
  for (int i = 0; i < config.window; ++i) window[i] = 1 + (i * 17) % 500;
  nn::ScopedKernelTier scope(tier);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.AllKeyLogitsInference(&ctx, model.ForwardInference(&ctx, window))
            .data());
  }
  state.SetItemsProcessed(state.iterations() * config.window);
}
BENCHMARK(BM_InferForwardTier)->Arg(0)->Arg(1);

void BM_StatementAbstraction(benchmark::State& state) {
  const std::string sql =
      "INSERT INTO t_cell_fp_3 (pnci, gridId, fps) VALUES (101, 102, 103), "
      "(104, 105, 106), (107, 108, 109), (110, 111, 112)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::AbstractLiterals(sql));
  }
}
BENCHMARK(BM_StatementAbstraction);

void BM_NgramJaccard(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  util::Rng rng(5);
  std::vector<int> a(len), b(len);
  for (int i = 0; i < len; ++i) {
    a[i] = static_cast<int>(rng.UniformU64(64));
    b[i] = static_cast<int>(rng.UniformU64(64));
  }
  prep::NgramProfile pa(a, 2), pb(b, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pa.Jaccard(pb));
  }
}
BENCHMARK(BM_NgramJaccard)->Arg(30)->Arg(130);

}  // namespace

// Like BENCHMARK_MAIN() but strips a --threads[=| ]N flag first, sizing the
// global pool before any benchmark runs (same effect as UCAD_THREADS; the
// CI speedup smoke compares --threads 1 vs --threads 4 on one binary).
int main(int argc, char** argv) {
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      ucad::util::SetNumThreads(std::atoi(arg.c_str() + 10));
    } else if (arg == "--threads" && i + 1 < argc) {
      ucad::util::SetNumThreads(std::atoi(argv[++i]));
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
