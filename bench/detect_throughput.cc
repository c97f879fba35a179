// Detection-throughput benchmark: the tape-free inference engine
// (src/nn/infer, fused kernels + reusable workspaces) against the recording
// autograd tape (the tape reference scorer, transdas/tape_reference.h) on
// the same trained Scenario-I model and Table 2 test sessions. Reports
// windows/sec per engine and the fused/tape speedup, and
// — when UCAD_BENCH_ASSERT_SPEEDUP is set — exits non-zero if the fused
// engine falls below that multiple, which is how CI enforces the win.
// UCAD_BENCH_EXPLAIN=1 additionally runs verdict attribution (attention
// capture + leave-one-out counterfactuals) for every abnormal verdict,
// interleaved with scoring exactly as `ucad_cli --explain` does. The
// attribution work is timed separately and reported, while the verdict
// slices exclude it — so the same speedup gate proves explanation stays
// off the verdict hot path even while attribution shares the context pool.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "nn/simd.h"
#include "obs/canary.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/tape_reference.h"
#include "transdas/trainer.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"
#include "workload/scenario.h"

namespace {

using namespace ucad;  // NOLINT

struct EngineResult {
  std::string name;
  double best_pass_ms = 0.0;
  double windows_per_sec = 0.0;
};

/// Windows the batched detector runs for one session: one forward per
/// disjoint span of L scored positions.
int64_t SessionWindows(size_t session_len, int L) {
  if (session_len < 2) return 0;
  const int64_t scored = static_cast<int64_t>(session_len) - 1;
  return (scored + L - 1) / L;
}

/// Times both engines over the same session stream, interleaved per
/// session so machine-load shifts (shared hosts, frequency scaling) hit
/// tape and fused passes equally — a sequential tape-then-fused layout
/// lets a load spike land on one engine only and skew the ratio. Each
/// engine's pass time is the sum of its per-session slices; the reported
/// figure is the best pass, matching bench_compare's min-of-N convention.
///
/// With `explain`, every abnormal verdict is additionally attributed
/// (attention capture + top-3 leave-one-out counterfactuals) between the
/// timed slices — the production interleaving of `--explain`, which leases
/// contexts from the same pool the fused engine scores through. The
/// attribution time is accumulated into `attrib_ms` and reported, but the
/// verdict slices exclude it: the speedup gate then proves explanation
/// stays off the verdict hot path (no pool contention, workspace churn, or
/// capture-hook overhead leaking into scoring).
std::pair<EngineResult, EngineResult> RunEngines(
    transdas::TransDasModel* model,
    const transdas::TransDasDetector& fused_engine,
    const std::vector<std::vector<int>>& sessions, int64_t total_windows,
    int passes, bool explain, double* attrib_ms, int64_t* attrib_ops,
    const std::function<void()>& after_pass) {
  const transdas::DetectorOptions& options = fused_engine.options();
  const auto tape_detect = [model, &options](const std::vector<int>& keys) {
    return transdas::TapeDetectSession(model, keys, options.top_p,
                                       options.batched);
  };
  // One untimed pass per engine warms caches (and, for the fused engine,
  // sizes the context workspaces so the timed passes run at steady state).
  for (const std::vector<int>& keys : sessions) {
    tape_detect(keys);
    fused_engine.DetectSession(keys);
  }
  EngineResult tape{"tape", 0.0, 0.0};
  EngineResult fused{"fused", 0.0, 0.0};
  obs::Histogram* tape_hist =
      obs::DefaultMetrics().GetHistogram("bench/detect/tape_pass_ms");
  obs::Histogram* fused_hist =
      obs::DefaultMetrics().GetHistogram("bench/detect/fused_pass_ms");
  for (int pass = 0; pass < passes; ++pass) {
    double tape_ms = 0.0;
    double fused_ms = 0.0;
    for (const std::vector<int>& keys : sessions) {
      util::Timer timer;
      tape_detect(keys);
      const double mid = timer.ElapsedMillis();
      const transdas::SessionVerdict verdict =
          fused_engine.DetectSession(keys);
      const double end = timer.ElapsedMillis();
      tape_ms += mid;
      fused_ms += end - mid;
      if (explain) {
        for (int pos : verdict.AbnormalPositions()) {
          fused_engine.AttributeOperation(keys, pos, 3);
          ++*attrib_ops;
        }
        *attrib_ms += timer.ElapsedMillis() - end;
      }
    }
    tape_hist->Observe(tape_ms);
    fused_hist->Observe(fused_ms);
    if (tape.best_pass_ms == 0.0 || tape_ms < tape.best_pass_ms) {
      tape.best_pass_ms = tape_ms;
    }
    if (fused.best_pass_ms == 0.0 || fused_ms < fused.best_pass_ms) {
      fused.best_pass_ms = fused_ms;
    }
    // Quality-observability work (canary rounds) runs BETWEEN passes, off
    // the timed slices: the speedup gate then proves the monitoring
    // machinery leaves the verdict hot path untouched.
    if (after_pass) after_pass();
  }
  for (EngineResult* r : {&tape, &fused}) {
    r->windows_per_sec =
        static_cast<double>(total_windows) / (r->best_pass_ms / 1000.0);
    obs::DefaultMetrics()
        .GetGauge("bench/detect/" + r->name + "_windows_per_sec")
        ->Set(r->windows_per_sec);
  }
  return {tape, fused};
}

/// Verdict identity as the kernel-tier contract defines it: the same
/// positions flagged with the same ranks. Scores and margins are allowed
/// to differ in low-order bits (the vectorized tier reassociates float
/// sums), so this does not compare them.
bool SameVerdictStructure(const transdas::SessionVerdict& a,
                          const transdas::SessionVerdict& b) {
  if (a.abnormal != b.abnormal ||
      a.operations.size() != b.operations.size()) {
    return false;
  }
  for (size_t i = 0; i < a.operations.size(); ++i) {
    if (a.operations[i].rank != b.operations[i].rank ||
        a.operations[i].abnormal != b.operations[i].abnormal) {
      return false;
    }
  }
  return true;
}

/// UCAD_BENCH_SIMD=1: the kernel tiers (docs/INFERENCE.md) against each
/// other on the same trained Scenario-I model — reference and vectorized
/// detectors share the model and run back-to-back inside each pass, so
/// machine-load shifts hit both tiers of a pass equally. The warmup pass
/// doubles as the verdict cross-check: the vectorized tier must be
/// verdict-identical (ranks + flags) to reference on every test session.
/// UCAD_BENCH_ASSERT_SIMD_SPEEDUP gates the vectorized tier's windows/sec
/// multiple over reference (a within-run ratio, immune to machine-speed
/// differences).
int RunSimdMode(eval::Scale scale) {
  bench::Banner("Detect throughput simd", scale);
  std::printf("cpu features: %s, active isa: %s\n",
              util::CpuFeaturesString().c_str(),
              util::SimdIsaName(util::ActiveSimdIsa()));
  bench::AddManifestNote("kernel_tiers", "reference,vectorized");

  eval::ScenarioConfig config = eval::ScenarioIConfig(scale);
  // The kernel comparison runs at the paper's Scenario-I dims regardless
  // of scale (scale still sizes the dataset and epochs): smoke shrinks
  // the model to L=12/B=2, below the point where vector width matters,
  // and the resulting ratio would measure detector overhead, not kernels.
  // The vocabulary is likewise padded to a production-sized key space —
  // the all-key logits GEMM is the widest kernel on the verdict path,
  // and a ~21-key smoke vocab reduces it to a sliver.
  config.model.window = 30;
  config.model.hidden_dim = 10;
  config.model.num_heads = 2;
  config.model.num_blocks = 6;
  util::Timer timer;
  const eval::ScenarioDataset ds =
      eval::BuildScenarioDataset(config.spec, config.dataset);
  config.model.vocab_size =
      std::max<int>(static_cast<int>(ds.vocab.size()), 512);
  util::Rng rng(41);
  transdas::TransDasModel model(config.model, &rng);
  transdas::TransDasTrainer trainer(&model, config.training);
  trainer.Train(ds.train);
  std::printf("dataset + training: %.1fs (vocab %d, L=%d)\n",
              timer.ElapsedSeconds(), config.model.vocab_size,
              config.model.window);

  std::vector<std::vector<int>> sessions;
  int64_t total_windows = 0;
  for (const eval::LabeledSet& set : ds.TestSets()) {
    for (const std::vector<int>& keys : set.sessions) {
      total_windows += SessionWindows(keys.size(), config.model.window);
      sessions.push_back(keys);
    }
  }
  std::printf("scoring %zu sessions (%lld windows) per pass\n",
              sessions.size(), static_cast<long long>(total_windows));

  const transdas::DetectorOptions ref_opts = config.detection;
  transdas::DetectorOptions vec_opts = ref_opts;
  vec_opts.kernel_tier = nn::KernelTier::kVectorized;
  const transdas::TransDasDetector ref_engine(&model, ref_opts);
  const transdas::TransDasDetector vec_engine(&model, vec_opts);

  // Warmup (sizes workspaces) + parity: the vectorized tier must be
  // verdict-identical to reference.
  for (size_t s = 0; s < sessions.size(); ++s) {
    if (!SameVerdictStructure(ref_engine.DetectSession(sessions[s]),
                              vec_engine.DetectSession(sessions[s]))) {
      std::fprintf(stderr,
                   "FAIL: vectorized verdicts diverge from reference on "
                   "session %zu\n",
                   s);
      return 1;
    }
  }
  std::printf("vectorized verdict identity: OK (%zu sessions)\n",
              sessions.size());

  struct Tier {
    std::string name;
    const transdas::TransDasDetector* engine;
    double best_ms = 0.0;
  };
  Tier tiers[] = {{"reference", &ref_engine, 0.0},
                  {"vectorized", &vec_engine, 0.0}};
  const int passes = scale == eval::Scale::kSmoke ? 5 : 8;
  for (int pass = 0; pass < passes; ++pass) {
    for (Tier& t : tiers) {
      util::Timer slice;
      for (const std::vector<int>& keys : sessions) {
        t.engine->DetectSession(keys);
      }
      const double ms = slice.ElapsedMillis();
      obs::DefaultMetrics()
          .GetHistogram("bench/detect/" + t.name + "_pass_ms")
          ->Observe(ms);
      if (t.best_ms == 0.0 || ms < t.best_ms) t.best_ms = ms;
    }
  }

  util::TablePrinter table({"Tier", "best pass (ms)", "windows/sec"});
  for (const Tier& t : tiers) {
    const double per_sec =
        static_cast<double>(total_windows) / (t.best_ms / 1000.0);
    obs::DefaultMetrics()
        .GetGauge("bench/detect/" + t.name + "_windows_per_sec")
        ->Set(per_sec);
    table.AddRow({t.name, util::FormatDouble(t.best_ms, 2),
                  util::FormatDouble(per_sec, 0)});
  }
  table.Print(std::cout);

  const double vec_speedup = tiers[0].best_ms / tiers[1].best_ms;
  obs::DefaultMetrics()
      .GetGauge("bench/detect/speedup_vectorized_over_reference")
      ->Set(vec_speedup);
  std::printf("vectorized speedup over reference: %.2fx\n", vec_speedup);

  const char* assert_env = std::getenv("UCAD_BENCH_ASSERT_SIMD_SPEEDUP");
  if (assert_env != nullptr && *assert_env != '\0') {
    const double required = std::atof(assert_env);
    if (!(vec_speedup >= required)) {
      std::fprintf(stderr,
                   "FAIL: vectorized speedup %.2fx below required %.2fx\n",
                   vec_speedup, required);
      return 1;
    }
    std::printf("simd speedup gate: %.2fx >= %.2fx OK\n", vec_speedup,
                required);
  }
  return 0;
}

}  // namespace

int main() {
  const eval::Scale scale = eval::ScaleFromEnv();
  const char* simd_env = std::getenv("UCAD_BENCH_SIMD");
  if (simd_env != nullptr && *simd_env != '\0' &&
      std::string(simd_env) != "0") {
    return RunSimdMode(scale);
  }
  bench::Banner("Detect throughput", scale);

  eval::ScenarioConfig config = eval::ScenarioIConfig(scale);
  util::Timer timer;
  const eval::ScenarioDataset ds =
      eval::BuildScenarioDataset(config.spec, config.dataset);
  config.model.vocab_size = ds.vocab.size();
  util::Rng rng(41);
  transdas::TransDasModel model(config.model, &rng);
  transdas::TransDasTrainer trainer(&model, config.training);
  trainer.Train(ds.train);
  std::printf("dataset + training: %.1fs (vocab %d, L=%d)\n",
              timer.ElapsedSeconds(), config.model.vocab_size,
              config.model.window);

  std::vector<std::vector<int>> sessions;
  int64_t total_windows = 0;
  for (const eval::LabeledSet& set : ds.TestSets()) {
    for (const std::vector<int>& keys : set.sessions) {
      total_windows += SessionWindows(keys.size(), config.model.window);
      sessions.push_back(keys);
    }
  }
  std::printf("scoring %zu sessions (%lld windows) per pass\n",
              sessions.size(), static_cast<long long>(total_windows));

  const transdas::TransDasDetector fused_engine(&model, config.detection);

  const char* explain_env = std::getenv("UCAD_BENCH_EXPLAIN");
  const bool explain = explain_env != nullptr && *explain_env != '\0' &&
                       std::string(explain_env) != "0";
  if (explain) {
    std::printf("explain mode: abnormal verdicts attributed between timed "
                "slices\n");
  }

  // UCAD_BENCH_QUALITY=1 runs the full quality-observability stack
  // alongside the benchmark: the time-series sampler ticking at its
  // default interval on a background thread and one canary round (shadow
  // scoring through the fused engine) between each timed pass. The serial
  // gate below runs unchanged at its default threshold, so CI proves the
  // monitoring machinery does not perturb the verdict hot path.
  const char* quality_env = std::getenv("UCAD_BENCH_QUALITY");
  const bool quality = quality_env != nullptr && *quality_env != '\0' &&
                       std::string(quality_env) != "0";
  std::unique_ptr<obs::TimeSeriesStore> store;
  std::unique_ptr<workload::SessionGenerator> canary_generator;
  std::unique_ptr<obs::CanaryEngine> canary;
  std::function<void()> after_pass;
  if (quality) {
    std::printf("quality mode: sampler ticking + canary rounds between "
                "timed passes\n");
    store = std::make_unique<obs::TimeSeriesStore>(&obs::DefaultMetrics(),
                                                   obs::TimeSeriesOptions{});
    store->Start();
    canary_generator =
        std::make_unique<workload::SessionGenerator>(config.spec);
    obs::CanaryOptions canary_options;
    canary_options.top_p = config.detection.top_p;
    canary = std::make_unique<obs::CanaryEngine>(
        canary_generator.get(), &ds.vocab,
        [&fused_engine](const std::vector<int>& keys) {
          return fused_engine.ShadowDetectSession(keys).abnormal;
        },
        [&fused_engine](const std::vector<int>& keys, int position,
                        int top_k) {
          std::vector<int> out;
          for (const auto& cand :
               fused_engine.ExplainOperation(keys, position, top_k)) {
            out.push_back(cand.key);
          }
          return out;
        },
        canary_options);
    after_pass = [&canary] { canary->RunRound(); };
  }

  const int passes = scale == eval::Scale::kSmoke ? 5 : 8;
  double attrib_ms = 0.0;
  int64_t attrib_ops = 0;
  const auto [tape, fused] =
      RunEngines(&model, fused_engine, sessions, total_windows, passes,
                 explain, &attrib_ms, &attrib_ops, after_pass);
  if (store) store->Stop();
  const double speedup = tape.best_pass_ms / fused.best_pass_ms;
  obs::DefaultMetrics()
      .GetGauge("bench/detect/speedup_fused_over_tape")
      ->Set(speedup);

  util::TablePrinter table({"Engine", "best pass (ms)", "windows/sec"});
  for (const EngineResult& r : {tape, fused}) {
    table.AddRow({r.name, util::FormatDouble(r.best_pass_ms, 2),
                  util::FormatDouble(r.windows_per_sec, 0)});
  }
  table.Print(std::cout);
  std::printf("fused speedup over tape: %.2fx\n", speedup);
  if (explain && attrib_ops > 0) {
    obs::DefaultMetrics()
        .GetGauge("bench/detect/attrib_ms_per_verdict")
        ->Set(attrib_ms / static_cast<double>(attrib_ops));
    std::printf("attribution: %lld abnormal verdicts across %d passes, "
                "%.3f ms each (off the timed verdict slices)\n",
                static_cast<long long>(attrib_ops), passes,
                attrib_ms / static_cast<double>(attrib_ops));
  }

  if (canary) {
    obs::DefaultMetrics().GetGauge("bench/detect/canary_hit_rate")
        ->Set(canary->HitRate());
    std::printf("quality: %llu canary probes (%llu true / %llu missed / "
                "%llu false flags), hit rate %.2f, %zu sampler ticks\n",
                static_cast<unsigned long long>(canary->ProbesTotal()),
                static_cast<unsigned long long>(canary->TrueFlags()),
                static_cast<unsigned long long>(canary->MissedFlags()),
                static_cast<unsigned long long>(canary->FalseFlags()),
                canary->HitRate(), store->TickCount());
  }

  const char* assert_env = std::getenv("UCAD_BENCH_ASSERT_SPEEDUP");
  if (assert_env != nullptr && *assert_env != '\0') {
    const double required = std::atof(assert_env);
    if (!(speedup >= required)) {
      std::fprintf(stderr,
                   "FAIL: fused engine speedup %.2fx below required %.2fx\n",
                   speedup, required);
      return 1;
    }
    std::printf("speedup gate: %.2fx >= %.2fx OK\n", speedup, required);
  }
  return 0;
}
