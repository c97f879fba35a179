// Raw-log-to-verdict benchmark program.
//
// Generates a seeded raw audit log with src/workload, trains a model during
// set-up, then drives the serving path through each layer's public calls in
// the order core::Ucad and `ucad_cli detect` use them:
//
//   sql::ReadSessionLog -> prep::Preprocessor::PrepareActiveSession
//     -> transdas::TransDasDetector -> obs::AuditLog
//
// Workloads (see perfbench/README.md for why each exists):
//   screen-commenting  Scenario-I, 1 lane, detect + explain + audit per session
//   screen-location    Scenario-II paper dims, 1 lane, DetectSessions blocks
//   stream-commenting  Scenario-I, 1 lane, open-loop per-operation scoring
//
// The code under test only receives the generated log text; labels stay in
// memory. A seeded sample of operations is re-scored with the autograd tape
// (the correctness oracle) and every timed verdict is checked.
//
// Prints one JSON object as its last stdout line. With --trace 1 it also
// writes the recorded obs::TraceSpan events to <out-dir>/trace.json; run.py
// turns those into per-layer self times.
//
// Usage: pipeline_bench --workload <name> --seed <n> --seconds <s>
//          --trace <0|1> --out-dir <dir> [--tiny 1] [--corrupt-oracle <n>]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/ucad.h"
#include "nn/infer.h"
#include "nn/tape.h"
#include "obs/audit_log.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "prep/access_control.h"
#include "prep/preprocessor.h"
#include "sql/log_reader.h"
#include "sql/session.h"
#include "sql/statement.h"
#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "transdas/trainer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/anomaly.h"
#include "workload/commenting.h"
#include "workload/location.h"
#include "workload/scenario.h"

namespace {

using namespace ucad;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Command line and workload shapes
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  int corrupt_oracle = 0;
  std::string out_dir = ".";
};

enum class Mode { kScreenCommenting, kScreenLocation, kStreamCommenting };

// Every workload runs on one lane: on a shared 4-vCPU host, 4-lane
// throughput of identical screen-location runs ranged from 5k to 14k
// ops/s, too wide for any bound. The traced run adds a 4-lane comparison.
constexpr int kLocationBlock = 4;     // sessions per DetectSessions call
constexpr int kOpenSessions = 16;     // interleaved sessions on the stream
constexpr double kStreamRate = 1250;  // scheduled operations per second
constexpr int kWarmupSessions = 8;    // scored during each set-up

struct Shape {
  Mode mode;
  int train_sessions = 0;  // normal sessions in the training log
  int train_noisy = 0;     // policy-breaking sessions in the training log
  int test_base = 0;       // V1 sessions; V2/V3/A1/A2/A3 derive one each
  int test_noisy = 0;      // policy-breaking sessions in the test log
  int oracle_samples = 0;
  int setup_repeats = 3;
  transdas::TransDasConfig model;
  transdas::TrainOptions train;
  int top_p = 6;
};

Shape MakeShape(const Args& args) {
  Shape s;
  if (args.workload == "screen-location") {
    s.mode = Mode::kScreenLocation;
    s.train_sessions = 48;
    s.train_noisy = 4;
    s.test_base = 50;
    s.oracle_samples = 48;
    // Paper Scenario-II: L=100, h=64, m=8, B=6, top_p=10.
    s.model.window = 100;
    s.model.hidden_dim = 64;
    s.model.num_heads = 8;
    s.model.num_blocks = 6;
    s.top_p = 10;
    // Fixed small budget: one epoch over non-overlapping windows.
    s.train.epochs = 1;
    s.train.batch_size = 16;
    s.train.window_stride = 100;
  } else {
    s.mode = args.workload == "stream-commenting" ? Mode::kStreamCommenting
                                                  : Mode::kScreenCommenting;
    s.train_sessions = 354;  // paper Table 1, Scenario-I
    s.train_noisy = 12;
    s.test_base = 200;
    s.test_noisy = s.mode == Mode::kScreenCommenting ? 24 : 0;
    s.oracle_samples = 200;
    // Paper Scenario-I: L=30, h=10, m=2, B=6, top_p=6 (config defaults).
    s.top_p = 6;
    s.train.epochs = 3;
  }
  s.train.seed = args.seed * 7919 + 7;
  if (args.tiny) {
    s.train_sessions = s.mode == Mode::kScreenLocation ? 24 : 60;
    s.train_noisy = 2;
    s.test_base = 6;
    s.test_noisy = s.mode == Mode::kScreenCommenting ? 2 : 0;
    s.oracle_samples = 12;
    s.setup_repeats = 1;
    s.train.epochs = 1;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

/// Median over chunks of each chunk's q-quantile.
double ChunkedPercentile(const std::vector<std::vector<double>>& chunks,
                         double q) {
  std::vector<double> per_chunk;
  for (const std::vector<double>& c : chunks) {
    if (!c.empty()) per_chunk.push_back(Percentile(c, q));
  }
  return Median(per_chunk);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Value of a registry series by name: counter value, gauge value, or
/// histogram sum; 0 when the series does not exist.
double SeriesValue(const std::string& name) {
  double out = 0.0;
  obs::DefaultMetrics().ForEachSeries(
      [&](const obs::MetricsRegistry::SeriesRef& ref) {
        if (ref.name != name || !ref.labels.empty()) return;
        if (ref.counter != nullptr) out = static_cast<double>(ref.counter->Value());
        if (ref.gauge != nullptr) out = ref.gauge->Value();
        if (ref.histogram != nullptr) out = ref.histogram->Sum();
      });
  return out;
}

// ---------------------------------------------------------------------------
// Input generation (outside every timed region except setup_s)
// ---------------------------------------------------------------------------

struct Input {
  std::string train_text;
  std::string test_text;
  /// In-memory ground truth, parallel to the sessions of test_text.
  std::vector<bool> truth_abnormal;
  std::vector<bool> noisy;
  std::vector<sql::RawSession> test_sessions;  // oracle and stream only
  workload::ScenarioSpec spec;
};

Input GenerateInput(const Shape& shape, uint64_t seed) {
  Input in;
  in.spec = shape.mode == Mode::kScreenLocation
                ? workload::MakeLocationScenario()
                : workload::MakeCommentingScenario();
  workload::SessionGenerator gen(in.spec);
  workload::AnomalySynthesizer syn(&gen);
  util::Rng rng(seed);

  std::vector<sql::RawSession> train =
      gen.GenerateNormalBatch(shape.train_sessions, &rng);
  for (int i = 0; i < shape.train_noisy; ++i) {
    train.push_back(
        gen.GenerateNoisy(static_cast<workload::NoiseKind>(i % 4), &rng));
  }
  rng.Shuffle(&train);

  // Test log: V1/V2/V3/A1/A2/A3 in equal shares plus policy breakers.
  std::vector<sql::RawSession> test;
  std::vector<bool> noisy;
  const std::vector<sql::RawSession> base =
      gen.GenerateNormalBatch(shape.test_base, &rng);
  double avg_len = 0.0;
  for (const sql::RawSession& b : base) {
    avg_len += static_cast<double>(b.operations.size());
    test.push_back(b);
    test.push_back(syn.PartialSwap(b, &rng));
    test.push_back(syn.PartialRemove(b, &rng));
    test.push_back(syn.PrivilegeAbuse(b, &rng));
    test.push_back(syn.CredentialStealing(b, &rng));
  }
  avg_len /= std::max<size_t>(1, base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    test.push_back(syn.Misoperation(static_cast<int>(avg_len), &rng));
  }
  noisy.assign(test.size(), false);
  for (int i = 0; i < shape.test_noisy; ++i) {
    test.push_back(
        gen.GenerateNoisy(static_cast<workload::NoiseKind>(i % 4), &rng));
    noisy.push_back(true);
  }
  std::vector<size_t> order(test.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  for (size_t i : order) {
    in.truth_abnormal.push_back(noisy[i] || sql::IsAbnormalLabel(test[i].label));
    in.noisy.push_back(noisy[i]);
    in.test_sessions.push_back(test[i]);
  }

  std::ostringstream tr, te;
  sql::WriteSessionLog(train, tr);
  sql::WriteSessionLog(in.test_sessions, te);
  in.train_text = tr.str();
  in.test_text = te.str();
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: generate, prepare, train, warm up
// ---------------------------------------------------------------------------

struct System {
  Input input;
  std::unique_ptr<prep::Preprocessor> pre;
  std::unique_ptr<transdas::TransDasModel> model;
  std::unique_ptr<transdas::TransDasDetector> detector;
  int train_input_sessions = 0;
  int train_kept_sessions = 0;
  int train_windows = 0;
};

/// One complete set-up. Returns false (with a message) when a step failed.
bool SetUp(const Shape& shape, uint64_t seed, System* sys, std::string* err) {
  sys->input = GenerateInput(shape, seed);
  std::istringstream is(sys->input.train_text);
  util::Result<std::vector<sql::RawSession>> log = [&] {
    obs::TraceSpan span("sql.read_train");
    return sql::ReadSessionLog(is);
  }();
  if (!log.ok()) {
    *err = "training log: " + log.status().ToString();
    return false;
  }
  const workload::ScenarioSpec& spec = sys->input.spec;
  sys->pre = std::make_unique<prep::Preprocessor>(
      prep::MakeDefaultPolicyEngine(spec.users, spec.addresses,
                                    spec.business_start_hour,
                                    spec.business_end_hour),
      core::UcadOptions::DefaultFilter());
  util::Rng rng(seed ^ 0x5eedf00dULL);
  std::vector<sql::KeySession> purified;
  {
    obs::TraceSpan span("prep.train_prepare");
    purified = sys->pre->PrepareTrainingData(*log, &rng);
  }
  sys->train_input_sessions = static_cast<int>(log->size());
  sys->train_kept_sessions = static_cast<int>(purified.size());
  if (purified.empty()) {
    *err = "preprocessing removed every training session";
    return false;
  }
  std::vector<std::vector<int>> sessions;
  for (const sql::KeySession& k : purified) sessions.push_back(k.keys);

  transdas::TransDasConfig config = shape.model;
  config.vocab_size = sys->pre->vocabulary().size();
  sys->model = std::make_unique<transdas::TransDasModel>(config, &rng);
  transdas::TransDasTrainer trainer(sys->model.get(), shape.train);
  {
    obs::TraceSpan span("transdas.train");
    const std::vector<transdas::EpochStats> stats = trainer.Train(sessions);
    sys->train_windows = 0;
    for (const transdas::EpochStats& e : stats) sys->train_windows += e.windows;
  }
  // ucad_cli sets only top_p; every other field keeps its default.
  transdas::DetectorOptions options;
  options.top_p = shape.top_p;
  sys->detector =
      std::make_unique<transdas::TransDasDetector>(sys->model.get(), options);

  // Warm-up: the first sessions through the workload's own calls.
  const int warm = std::min<int>(kWarmupSessions,
                                 sys->input.test_sessions.size());
  std::vector<std::vector<int>> warm_keys;
  for (int i = 0; i < warm; ++i) {
    bool known = false;
    warm_keys.push_back(
        sys->pre->PrepareActiveSession(sys->input.test_sessions[i], &known)
            .keys);
  }
  if (shape.mode == Mode::kStreamCommenting) {
    for (const std::vector<int>& keys : warm_keys) {
      for (size_t p = 1; p < keys.size(); ++p) {
        sys->detector->ScoreNextOperation(
            std::vector<int>(keys.begin(), keys.begin() + p), keys[p]);
      }
    }
  } else {
    sys->detector->DetectSessions(warm_keys);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Oracle: the autograd tape re-scores a seeded sample of operations
// ---------------------------------------------------------------------------

struct Expected {
  int rank = 0;
  bool abnormal = false;
};

/// Window the detector's batched DetectSession uses for `position`: windows
/// advance by L from position 1 and the tail window is clamped to the
/// session end. Returns w, the padded index the window ends at; the logits
/// row for `position` is position - w + L - 1.
int BatchedWindowEnd(int n, int L, int position) {
  int next = 1;
  while (next < n) {
    const int w = std::min(next + L - 1, n - 1);
    if (position <= w) return w;
    next = w + 1;
  }
  return n - 1;
}

/// Right-aligned, k0-padded window over keys[0..count), out-of-range keys
/// sanitized to k0 (same placement as the detector).
std::vector<int> RightAlignedWindow(const std::vector<int>& keys, int count,
                                    int L, int vocab) {
  std::vector<int> window(L, 0);
  const int take = std::min(L, count);
  for (int i = 0; i < take; ++i) {
    const int k = keys[count - take + i];
    window[L - take + i] = k >= 0 && k < vocab ? k : 0;
  }
  return window;
}

Expected TapeVerdict(transdas::TransDasModel* model,
                     const std::vector<int>& window, int row, int key,
                     int top_p) {
  nn::Tape tape;
  const nn::VarId out = model->Forward(&tape, window, /*training=*/false,
                                       /*dropout_rng=*/nullptr);
  const nn::VarId logits = model->AllKeyLogits(&tape, out);
  const nn::Tensor& t = tape.value(logits);
  const nn::RowScore rs = nn::ScoreLogitsRow(t.row(row), t.cols(), key, top_p);
  return Expected{rs.rank, rs.abnormal};
}

/// (session, position) -> tape verdict, for a seeded sample of scorable
/// operations of admitted sessions. The stream workload uses the
/// per-operation formulation (preceding keys only), the screen workloads
/// the batched session windows. `corrupt` entries are deliberately wrong
/// (self-check).
std::map<std::pair<int, int>, Expected> BuildOracle(const Shape& shape,
                                                    const System& sys,
                                                    uint64_t seed,
                                                    int corrupt) {
  std::map<std::pair<int, int>, Expected> oracle;
  const auto& sessions = sys.input.test_sessions;
  const int L = sys.model->config().window;
  const int vocab = sys.model->config().vocab_size;
  const bool streaming = shape.mode == Mode::kStreamCommenting;
  util::Rng rng(seed ^ 0x0bac1eULL);
  int attempts = 0;
  while (static_cast<int>(oracle.size()) < shape.oracle_samples &&
         attempts++ < shape.oracle_samples * 20) {
    const int s = static_cast<int>(rng.UniformU64(sessions.size()));
    if (sys.input.noisy[s] || sessions[s].operations.size() < 2) continue;
    const std::vector<int> keys =
        sql::TokenizeSessionFrozen(sessions[s], sys.pre->vocabulary()).keys;
    const int n = static_cast<int>(keys.size());
    const int p = 1 + static_cast<int>(rng.UniformU64(n - 1));
    std::vector<int> window;
    int row = L - 1;
    if (streaming) {
      window = RightAlignedWindow(keys, p, L, vocab);
    } else {
      const int w = BatchedWindowEnd(n, L, p);
      window = RightAlignedWindow(keys, w, L, vocab);
      row = p - w + L - 1;
    }
    oracle[{s, p}] = TapeVerdict(sys.model.get(), window, row, keys[p],
                                 shape.top_p);
  }
  for (auto it = oracle.begin(); corrupt > 0 && it != oracle.end();
       ++it, --corrupt) {
    it->second.abnormal = !it->second.abnormal;
    it->second.rank += 1;
  }
  return oracle;
}

// ---------------------------------------------------------------------------
// Measurement state shared by the workloads
// ---------------------------------------------------------------------------

struct Tally {
  int64_t attempted = 0;  // operations taken from log text to a verdict
  int64_t failed = 0;
  int64_t errors = 0;  // call errors (log parse, count mismatch)
  int64_t mismatches = 0;
  int64_t oracle_checked = 0;
  int64_t dropped_audit = 0;
};

/// Verdict bookkeeping: every verdict is compared with the first verdict
/// seen for the same (session, position) in this run, and sampled positions
/// with the tape oracle.
class Checker {
 public:
  Checker(std::map<std::pair<int, int>, Expected> oracle, size_t sessions)
      : oracle_(std::move(oracle)), reference_(sessions) {}

  /// Returns true when the verdict agrees with the reference and oracle.
  bool Check(int session, int position, int rank, bool abnormal, Tally* t) {
    bool ok = true;
    auto& ref = reference_[session];
    if (static_cast<int>(ref.size()) <= position) ref.resize(position + 1);
    Expected& r = ref[position];
    if (r.rank == 0) {
      r = Expected{rank, abnormal};
    } else if (r.rank != rank || r.abnormal != abnormal) {
      ok = false;
    }
    auto it = oracle_.find({session, position});
    if (it != oracle_.end()) {
      ++t->oracle_checked;
      if (it->second.rank != rank || it->second.abnormal != abnormal) {
        ok = false;
      }
    }
    if (!ok) ++t->mismatches;
    return ok;
  }

 private:
  std::map<std::pair<int, int>, Expected> oracle_;
  std::vector<std::vector<Expected>> reference_;
};

/// Session-level F1 from per-session predictions (-1 = not scored).
double F1(const std::vector<int>& predicted, const std::vector<bool>& truth) {
  double tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] < 0) continue;
    const bool p = predicted[i] == 1;
    if (p && truth[i]) ++tp;
    if (p && !truth[i]) ++fp;
    if (!p && truth[i]) ++fn;
  }
  return tp == 0 ? 0.0 : 2 * tp / (2 * tp + fp + fn);
}

/// Counts gathered in one measured segment, for the per-layer metrics.
struct Counts {
  double wall_s = 0.0;       // wall time of the segment's requests
  int64_t ops = 0;           // operations taken to a verdict
  int64_t sessions = 0;      // sessions through PrepareActiveSession
  int64_t scored_ops = 0;    // verdicts produced by the detector
  int64_t flagged_ops = 0;   // abnormal verdicts
  int64_t unknown_keys = 0;  // keys that resolved to k0
  int64_t detect_windows = 0;
  int64_t score_next_calls = 0;
  int64_t explain_calls = 0;
  int64_t audit_appends = 0;
  int64_t passes = 0;
  double gflop = 0.0;           // computed from model dims
  double gflop_flight = 0.0;    // the part in flight-recorded windows
  double logits_gemm_mb = 0.0;  // computed bytes moved by the logits GEMM
};

/// FLOPs of one forward whose final block and logits cover `rows` query
/// rows (the inference engine restricts only the final block's row-wise
/// tail and the all-key logits; earlier blocks run the full window).
/// Matrix products only: 2*m*n*k each; softmax, layer norm and
/// element-wise work are not counted.
double ForwardFlops(const transdas::TransDasConfig& c, int rows) {
  const double L = c.window, h = c.hidden_dim, V = c.vocab_size, r = rows;
  const double full_block = 2 * L * h * 3 * h + 4 * L * L * h + 6 * L * h * h;
  const double tail_block = 2 * L * h * 3 * h + 4 * r * L * h + 6 * r * h * h;
  return (c.num_blocks - 1) * full_block + tail_block + 2 * r * h * V;
}

/// Bytes the all-key-logits GEMM reads and writes for `rows` rows: the
/// outputs [rows x h], the embedding table [V x h], the logits [rows x V].
double LogitsGemmBytes(const transdas::TransDasConfig& c, int rows) {
  const double h = c.hidden_dim, V = c.vocab_size, r = rows;
  return 4.0 * (r * h + V * h + r * V);
}

/// Adds one forward scoring `rows` rows; `flight` marks forwards the
/// flight recorder times (detect and streaming windows, not explanations).
void CountForward(const transdas::TransDasConfig& c, int rows, bool flight,
                  Counts* counts) {
  const double gflop = ForwardFlops(c, rows) * 1e-9;
  counts->gflop += gflop;
  if (flight) counts->gflop_flight += gflop;
  counts->logits_gemm_mb += LogitsGemmBytes(c, rows) / (1024.0 * 1024.0);
}

/// Adds the batched-plan windows of a session of n keys to `counts`.
void CountDetectWindows(const transdas::TransDasConfig& c, int n,
                        Counts* counts) {
  int next = 1;
  while (next < n) {
    const int w = BatchedWindowEnd(n, c.window, next);
    ++counts->detect_windows;
    CountForward(c, w - next + 1, /*flight=*/true, counts);
    next = w + 1;
  }
}

/// One measured stretch of a run. Its requests are split into chunks: a
/// pass over the log (screen-*) or a second of schedule (stream). Rates
/// and percentiles are taken per chunk and the median over chunks is
/// reported, so a burst of host contention moves one chunk, not the run.
struct Segment {
  Counts counts;
  /// Per chunk: operations per second of wall time (screen-*) or of
  /// service time (stream).
  std::vector<double> ops_per_s;
  /// Per chunk: per-request latencies.
  std::vector<std::vector<double>> latency_ms;
  std::vector<double> issue_late_ms;  // stream
  std::vector<int> predicted;         // per session: -1 unscored, 0, 1
};

// ---------------------------------------------------------------------------
// screen-commenting / screen-location: closed loop, one caller
// ---------------------------------------------------------------------------

/// One pass over the whole test log. When the log cannot be read back,
/// every operation of the pass counts as failed.
void ScreenPass(const Shape& shape, const System& sys, Checker* checker,
                const std::string& audit_path, Segment* seg, Tally* tally) {
  const transdas::TransDasConfig& cfg = sys.model->config();
  const sql::Vocabulary& vocab = sys.pre->vocabulary();
  const size_t expected_sessions = sys.input.test_sessions.size();
  int64_t expected_ops = 0;
  for (const auto& s : sys.input.test_sessions) {
    expected_ops += static_cast<int64_t>(s.operations.size());
  }
  obs::TraceSpan pass_span("bench.pass");
  const Clock::time_point pass_t0 = Clock::now();
  std::istringstream is(sys.input.test_text);
  util::Result<std::vector<sql::RawSession>> log = [&] {
    obs::TraceSpan span("sql.read");
    return sql::ReadSessionLog(is);
  }();
  if (!log.ok() || log->size() != expected_sessions) {
    tally->attempted += expected_ops;
    tally->failed += expected_ops;
    ++tally->errors;
    return;
  }
  const bool audited = shape.mode == Mode::kScreenCommenting;
  std::unique_ptr<obs::AuditLog> audit;
  if (audited) {
    obs::TraceSpan span("obs.audit_open");
    util::Result<std::unique_ptr<obs::AuditLog>> opened =
        obs::AuditLog::Open(audit_path);
    if (!opened.ok()) {
      tally->attempted += expected_ops;
      tally->failed += expected_ops;
      ++tally->errors;
      return;
    }
    audit = std::move(opened.value());
  }
  seg->latency_ms.emplace_back();
  const bool first_pass = seg->predicted.empty();
  if (first_pass) seg->predicted.assign(expected_sessions, -1);
  int64_t pass_ops = 0;

  const int block = audited ? 1 : kLocationBlock;
  for (size_t b0 = 0; b0 < log->size(); b0 += block) {
    const size_t b1 = std::min(log->size(), b0 + block);
    obs::TraceSpan request_span("bench.request");
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<int>> keys(b1 - b0);
    std::vector<bool> known(b1 - b0, false);
    for (size_t i = b0; i < b1; ++i) {
      bool k = false;
      {
        obs::TraceSpan span("prep.admit");
        keys[i - b0] = sys.pre->PrepareActiveSession((*log)[i], &k).keys;
      }
      known[i - b0] = k;
      for (int key : keys[i - b0]) {
        if (key == sql::kPaddingKey) ++seg->counts.unknown_keys;
      }
    }
    std::vector<transdas::SessionVerdict> verdicts;
    if (audited) {
      verdicts.resize(1);
      if (!known[0]) {
        obs::TraceSpan span("transdas.detect");
        verdicts[0] = sys.detector->DetectSession(keys[0]);
      }
    } else {
      obs::TraceSpan span("transdas.detect");
      verdicts = sys.detector->DetectSessions(keys);
    }
    for (size_t i = b0; i < b1; ++i) {
      const std::vector<int>& k = keys[i - b0];
      const transdas::SessionVerdict& v = verdicts[i - b0];
      const int n = static_cast<int>(k.size());
      // The screen-commenting path skips known attacks, as core::Ucad does.
      const bool scored = !audited || !known[i - b0];
      pass_ops += n;
      ++seg->counts.sessions;
      if (scored) CountDetectWindows(cfg, n, &seg->counts);
      if (scored && n >= 2 && static_cast<int>(v.operations.size()) != n - 1) {
        tally->failed += n;
        ++tally->errors;
        continue;
      }
      for (const transdas::OperationVerdict& op : v.operations) {
        ++seg->counts.scored_ops;
        if (op.abnormal) ++seg->counts.flagged_ops;
        if (!checker->Check(static_cast<int>(i), op.position, op.rank,
                            op.abnormal, tally)) {
          ++tally->failed;
        }
        if (!audited) continue;
        // One forensic record per scored operation; flagged operations
        // carry the top-3 expected keys (ucad_cli detect --audit-out).
        obs::AuditRecord record;
        record.session_id = "s" + std::to_string(i + 1);
        record.position = op.position;
        record.key = k[op.position];
        record.observed = record.key > 0 && record.key < vocab.size()
                              ? vocab.TemplateOf(record.key)
                              : (*log)[i].operations[op.position].sql;
        record.rank = op.rank;
        record.score = op.score;
        record.margin = op.margin;
        record.abnormal = op.abnormal;
        if (op.abnormal) {
          obs::TraceSpan span("transdas.explain");
          const auto expected = sys.detector->ExplainOperation(k, op.position, 3);
          if (static_cast<int>(expected.size()) != std::min(3, vocab.size() - 1)) {
            ++tally->failed;
            ++tally->errors;
          }
          for (const auto& c : expected) {
            record.expected.push_back(obs::AuditCandidate{c.key, c.score});
          }
          ++seg->counts.explain_calls;
          CountForward(cfg, 1, /*flight=*/false, &seg->counts);
        }
        obs::TraceSpan span("obs.audit_append");
        audit->Append(std::move(record));
        ++seg->counts.audit_appends;
      }
      if (first_pass) {
        seg->predicted[i] = known[i - b0] || v.abnormal ? 1 : 0;
      }
    }
    seg->latency_ms.back().push_back(SecondsSince(t0) * 1e3);
  }
  if (audit != nullptr) {
    obs::TraceSpan span("obs.audit_close");
    audit->Close();
    const int64_t dropped = static_cast<int64_t>(audit->dropped());
    tally->dropped_audit += dropped;
    tally->failed += dropped;
  }
  const double pass_s = SecondsSince(pass_t0);
  tally->attempted += pass_ops;
  seg->counts.ops += pass_ops;
  seg->counts.wall_s += pass_s;
  ++seg->counts.passes;
  seg->ops_per_s.push_back(static_cast<double>(pass_ops) / pass_s);
}

void RunScreen(const Shape& shape, const System& sys, Checker* checker,
               const std::string& audit_path, double seconds, int max_passes,
               Segment* seg, Tally* tally) {
  const Clock::time_point t0 = Clock::now();
  do {
    ScreenPass(shape, sys, checker, audit_path, seg, tally);
  } while (SecondsSince(t0) < seconds &&
           (max_passes <= 0 || seg->counts.passes < max_passes));
}

// ---------------------------------------------------------------------------
// stream-commenting: open loop, one lane, per-operation scoring
// ---------------------------------------------------------------------------

/// Round-robin interleaving of `open` concurrently open sessions: each slot
/// plays one session at a time and takes the next session of the (cyclic)
/// test order when it finishes.
class StreamSource {
 public:
  StreamSource(const Input& input, int open) : input_(input) {
    for (size_t s = 0; s < input.test_sessions.size(); ++s) {
      if (!input.noisy[s] && !input.test_sessions[s].operations.empty()) {
        order_.push_back(static_cast<int>(s));
      }
    }
    slots_.resize(open);
    for (Slot& slot : slots_) Assign(&slot);
  }

  struct Event {
    int slot;
    int session;
    int position;
    const std::string* sql;
  };

  Event Next() {
    Slot& slot = slots_[turn_];
    const int slot_id = static_cast<int>(turn_);
    turn_ = (turn_ + 1) % slots_.size();
    const auto& ops = input_.test_sessions[slot.session].operations;
    Event e{slot_id, slot.session, slot.position, &ops[slot.position].sql};
    if (++slot.position == static_cast<int>(ops.size())) Assign(&slot);
    return e;
  }

 private:
  struct Slot {
    int session = 0;
    int position = 0;
  };
  void Assign(Slot* slot) {
    slot->session = order_[next_ % order_.size()];
    slot->position = 0;
    ++next_;
  }
  const Input& input_;
  std::vector<int> order_;
  std::vector<Slot> slots_;
  size_t turn_ = 0;
  size_t next_ = 0;
};

void RunStream(const System& sys, Checker* checker, double seconds,
               Segment* seg, Tally* tally) {
  const sql::Vocabulary& vocab = sys.pre->vocabulary();
  const transdas::TransDasConfig& cfg = sys.model->config();
  StreamSource source(sys.input, kOpenSessions);
  std::vector<std::vector<int>> context(kOpenSessions);
  std::vector<int> session_of_slot(kOpenSessions, -1);
  std::vector<int> any_flag(sys.input.test_sessions.size(), 0);
  if (seg->predicted.empty()) {
    seg->predicted.assign(sys.input.test_sessions.size(), -1);
  }
  const int64_t total = static_cast<int64_t>(kStreamRate * seconds);
  const double period_s = 1.0 / kStreamRate;
  // A chunk is one second of schedule: at 1250 ops/s its p99 has 12
  // samples beyond it.
  const int64_t ops_per_chunk = std::llround(kStreamRate);
  std::vector<double> chunk_busy_s;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  Clock::time_point previous_done = start;
  for (int64_t i = 0; i < total; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s * i));
    // Spin until the due time: sleeping overshoots by milliseconds on
    // virtualized hosts. Issue lateness counts only the generator's own
    // delay, not the wait for the previous operation to finish.
    while (Clock::now() < due) {
    }
    const Clock::time_point issued = Clock::now();
    seg->issue_late_ms.push_back(
        std::chrono::duration<double, std::milli>(
            issued - std::max(due, previous_done))
            .count());

    const StreamSource::Event e = source.Next();
    obs::TraceSpan request_span("bench.request");
    if (e.position == 0) {
      // A new session opened on this connection: the previous one ended,
      // and its first complete play gives its session-level verdict.
      const int prev = session_of_slot[e.slot];
      if (prev >= 0 && seg->predicted[prev] < 0) {
        seg->predicted[prev] = any_flag[prev];
      }
      context[e.slot].clear();
      session_of_slot[e.slot] = e.session;
      any_flag[e.session] = 0;
    }
    sql::Statement stmt;
    {
      obs::TraceSpan span("sql.parse");
      stmt = sql::ParseStatement(*e.sql);
    }
    sql::Key key;
    {
      obs::TraceSpan span("sql.lookup");
      key = vocab.Lookup(stmt.template_text);
    }
    if (key == sql::kPaddingKey) ++seg->counts.unknown_keys;
    std::vector<int>& ctx = context[e.slot];
    if (!ctx.empty()) {
      transdas::OperationVerdict v;
      {
        obs::TraceSpan span("transdas.score_next");
        v = sys.detector->ScoreNextOperation(ctx, key);
      }
      ++seg->counts.score_next_calls;
      ++seg->counts.scored_ops;
      CountForward(cfg, 1, /*flight=*/true, &seg->counts);
      if (v.abnormal) {
        ++seg->counts.flagged_ops;
        any_flag[e.session] = 1;
      }
      if (!checker->Check(e.session, static_cast<int>(ctx.size()), v.rank,
                          v.abnormal, tally)) {
        ++tally->failed;
      }
    }
    ctx.push_back(key);
    const Clock::time_point done = Clock::now();
    previous_done = done;
    if (i % ops_per_chunk == 0) {
      seg->latency_ms.emplace_back();
      chunk_busy_s.push_back(0.0);
    }
    chunk_busy_s.back() += std::chrono::duration<double>(done - issued).count();
    seg->latency_ms.back().push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    ++tally->attempted;
    ++seg->counts.ops;
  }
  for (size_t c = 0; c < chunk_busy_s.size(); ++c) {
    const size_t first = seg->latency_ms.size() - chunk_busy_s.size();
    seg->ops_per_s.push_back(
        static_cast<double>(seg->latency_ms[first + c].size()) /
        chunk_busy_s[c]);
    seg->counts.wall_s += chunk_busy_s[c];
  }
  seg->counts.passes += 1;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

double StageSum(const char* stage) {
  return SeriesValue(std::string("detector/stage/") + stage + "_ms");
}

constexpr const char* kNnStages[] = {"context_acquire", "embed", "attention",
                                     "ffn", "logits", "score"};

struct Snapshot {
  double forwards = 0, slide_hits = 0, slide_misses = 0;
  double stage_ms[7] = {};

  static Snapshot Take() {
    nn::PublishInferMetrics(&obs::DefaultMetrics());
    Snapshot s;
    s.forwards = SeriesValue("nn/infer/forwards_total");
    s.slide_hits = SeriesValue("nn/infer/slide_cache_hits");
    s.slide_misses = SeriesValue("nn/infer/slide_cache_misses");
    for (int i = 0; i < 6; ++i) s.stage_ms[i] = StageSum(kNnStages[i]);
    s.stage_ms[6] = StageSum("verdict");
    return s;
  }
};

/// Measures for `seconds` (screen-*: whole passes, at most `max_passes`
/// when positive).
void RunSegment(const Shape& shape, const System& sys, Checker* checker,
                const std::string& audit_path, double seconds, int max_passes,
                Segment* seg, Tally* tally) {
  if (shape.mode == Mode::kStreamCommenting) {
    RunStream(sys, checker, seconds, seg, tally);
  } else {
    RunScreen(shape, sys, checker, audit_path, seconds, max_passes, seg,
              tally);
  }
}

/// Seconds per operation of a segment, from its median chunk.
double SecondsPerOp(const Segment& seg) {
  const double ops_per_s = Median(seg.ops_per_s);
  return ops_per_s > 0 ? 1.0 / ops_per_s : 0.0;
}

void PrintMetricsJson(const Tally& t, bool correct,
                      const std::vector<Metric>& metrics,
                      const std::string& extra) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              correct ? "true" : "false",
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}%s}\n", extra.c_str());
  std::fflush(stdout);
}

int Main(const Args& args) {
  const Shape shape = MakeShape(args);
  util::SetNumThreads(1);

  // Set-up, several times; setup_s is the median.
  std::vector<double> setup_s;
  System sys;
  const int repeats = args.trace ? 1 : shape.setup_repeats;
  for (int r = 0; r < repeats; ++r) {
    if (args.trace) {
      obs::ClearTrace();
      obs::SetTraceEnabled(true);
    }
    System attempt;
    std::string err;
    const Clock::time_point t0 = Clock::now();
    if (!SetUp(shape, args.seed, &attempt, &err)) {
      std::fprintf(stderr, "set-up failed: %s\n", err.c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    obs::SetTraceEnabled(false);
    sys = std::move(attempt);
  }
  std::fprintf(stderr, "setup_s runs:");
  for (double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, "\n");

  Checker checker(BuildOracle(shape, sys, args.seed, args.corrupt_oracle),
                  sys.input.test_sessions.size());
  const std::string audit_path = args.out_dir + "/audit.jsonl";
  Tally tally;

  if (!args.trace) {
    Segment seg;
    RunSegment(shape, sys, &checker, audit_path, args.seconds, 0, &seg, &tally);
    size_t n = 0;
    for (const std::vector<double>& chunk : seg.latency_ms) n += chunk.size();
    std::vector<Metric> metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", Median(seg.ops_per_s), "ops/s"},
        {"latency_p50_ms", ChunkedPercentile(seg.latency_ms, 0.50), "ms"},
        {"latency_p95_ms", ChunkedPercentile(seg.latency_ms, 0.95), "ms"},
        {"detect_f1", F1(seg.predicted, sys.input.truth_abnormal), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    const bool correct = tally.failed == 0 && tally.oracle_checked > 0;
    std::fprintf(stderr,
                 "%s: %lld ops, %zu requests, %lld passes, oracle checks "
                 "%lld, mismatches %lld, call errors %lld, audit dropped "
                 "%lld\n",
                 args.workload.c_str(), static_cast<long long>(seg.counts.ops),
                 n, static_cast<long long>(seg.counts.passes),
                 static_cast<long long>(tally.oracle_checked),
                 static_cast<long long>(tally.mismatches),
                 static_cast<long long>(tally.errors),
                 static_cast<long long>(tally.dropped_audit));
    // p99 is reported but not gated: on the stream it follows the host's
    // CPU steal (0.45-2.2 ms between identical runs), not the program.
    char p99[64];
    std::snprintf(p99, sizeof(p99), "%.6g",
                  ChunkedPercentile(seg.latency_ms, 0.99));
    std::string extra = ", \"info\": {\"latency_p99_ms\": " +
                        std::string(p99) +
                        ", \"latency\": " + std::to_string(n) +
                        ", \"latency_chunks\": " +
                        std::to_string(seg.latency_ms.size()) +
                        ", \"passes\": " +
                        std::to_string(seg.counts.passes) +
                        ", \"setup\": " + std::to_string(setup_s.size()) +
                        ", \"oracle_checked\": " +
                        std::to_string(tally.oracle_checked) + "}";
    PrintMetricsJson(tally, correct, metrics, extra);
    return 0;
  }

  // Traced run:
  //   1. untraced segment (obs on), 2. obs-off segment, 3. traced segment,
  // each a third of --seconds. Per-layer numbers come from the traced one,
  // the overhead ratios from comparing the three.
  const double third = args.seconds / 3.0;
  // One untimed pass (a second of stream) first, so that the segments
  // compared below all start warm.
  Segment warm, plain, obs_off, traced;
  RunSegment(shape, sys, &checker, audit_path, 1.0, 1, &warm, &tally);
  RunSegment(shape, sys, &checker, audit_path, third, 0, &plain, &tally);
  obs::SetMetricsEnabled(false);
  obs::SetFlightRecorderEnabled(false);
  RunSegment(shape, sys, &checker, audit_path, third, 0, &obs_off, &tally);
  obs::SetMetricsEnabled(true);
  obs::SetFlightRecorderEnabled(true);

  const Snapshot before = Snapshot::Take();
  obs::SetTraceEnabled(true);
  // At most 4 passes, so the in-memory span buffer never fills.
  RunSegment(shape, sys, &checker, audit_path, third, 4, &traced, &tally);
  obs::SetTraceEnabled(false);
  const Snapshot after = Snapshot::Take();

  // The tokenize child of PrepareActiveSession: src has no span inside it,
  // so the same TokenizeSessionFrozen call is timed once per session here,
  // outside the traced requests.
  int64_t calibration_ops = 0;
  if (shape.mode != Mode::kStreamCommenting) {
    obs::SetTraceEnabled(true);
    for (const sql::RawSession& raw : sys.input.test_sessions) {
      obs::TraceSpan span("sql.tokenize");
      sql::TokenizeSessionFrozen(raw, sys.pre->vocabulary());
      calibration_ops += static_cast<int64_t>(raw.operations.size());
    }
    obs::SetTraceEnabled(false);
  }
  const std::string trace_path = args.out_dir + "/trace.json";
  if (!obs::WriteChromeTraceFile(trace_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }

  // screen-location also runs one pass obs on and one obs off on 4 lanes:
  // the pool's accounting and the obs overhead at 4 lanes. Not timed for
  // the end-to-end metrics, which run on 1 lane.
  double overhead_4lanes = 0.0;
  util::ThreadPoolStats pool_before, pool_after;
  double pool_wall_s = 0.0;
  if (shape.mode == Mode::kScreenLocation) {
    util::SetNumThreads(4);
    Segment warm4, on4, off4;
    RunSegment(shape, sys, &checker, audit_path, 0.0, 1, &warm4, &tally);
    pool_before = util::GlobalThreadPool().Stats();
    RunSegment(shape, sys, &checker, audit_path, 0.0, 1, &on4, &tally);
    pool_after = util::GlobalThreadPool().Stats();
    pool_wall_s = on4.counts.wall_s;
    obs::SetMetricsEnabled(false);
    obs::SetFlightRecorderEnabled(false);
    RunSegment(shape, sys, &checker, audit_path, 0.0, 1, &off4, &tally);
    obs::SetMetricsEnabled(true);
    obs::SetFlightRecorderEnabled(true);
    overhead_4lanes = SecondsPerOp(on4) / SecondsPerOp(off4);
  }
  uint64_t busy_ns = 0;
  for (size_t w = 0; w < pool_after.worker_busy_ns.size(); ++w) {
    busy_ns += pool_after.worker_busy_ns[w] -
               (w < pool_before.worker_busy_ns.size()
                    ? pool_before.worker_busy_ns[w]
                    : 0);
  }
  const double workers = static_cast<double>(pool_after.worker_busy_ns.size());

  const Counts& c = traced.counts;
  const double per_plain = SecondsPerOp(plain);
  double stage_ms[7];
  double nn_stage_ms = 0.0, all_stage_ms = 0.0;
  for (int i = 0; i < 7; ++i) {
    stage_ms[i] = after.stage_ms[i] - before.stage_ms[i];
    if (i < 6) nn_stage_ms += stage_ms[i];
    all_stage_ms += stage_ms[i];
  }
  const double hits = after.slide_hits - before.slide_hits;
  const double misses = after.slide_misses - before.slide_misses;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  std::vector<Metric> metrics = {
      {"sql.unknown_key_ratio", ratio(c.unknown_keys, c.ops), "ratio"},
      {"prep.filter_kept_ratio",
       ratio(sys.train_kept_sessions, sys.train_input_sessions), "ratio"},
      {"transdas.flagged_op_ratio", ratio(c.flagged_ops, c.scored_ops),
       "ratio"},
      {"nn.forwards", after.forwards - before.forwards, "count"},
      {"nn.gflop", c.gflop, "GFLOP"},
      {"nn.gflops", ratio(c.gflop_flight, nn_stage_ms * 1e-3), "GFLOP/s"},
      {"nn.logits_gemm_mb", c.logits_gemm_mb, "MiB"},
      {"nn.slide_cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
      {"nn.batch_occupancy", SeriesValue("nn/infer/batch_occupancy"), "ratio"},
      {"nn.workspace_peak_mb",
       SeriesValue("nn/infer/workspace_peak_bytes") / (1024.0 * 1024.0), "MiB"},
      {"obs.audit_dropped", static_cast<double>(tally.dropped_audit), "count"},
      {"obs.overhead_ratio", ratio(per_plain, SecondsPerOp(obs_off)), "ratio"},
      {"obs.overhead_ratio_4lanes", overhead_4lanes, "ratio"},
      {"obs.series", static_cast<double>(obs::DefaultMetrics().Size()),
       "count"},
      {"obs.trace_overhead_ratio", ratio(SecondsPerOp(traced), per_plain),
       "ratio"},
      {"util.pool_tasks",
       static_cast<double>(pool_after.tasks_total - pool_before.tasks_total),
       "count"},
      {"util.pool_busy_ratio", ratio(busy_ns * 1e-9, pool_wall_s * workers),
       "ratio"},
      {"util.pool_max_queue_depth",
       static_cast<double>(pool_after.max_queue_depth), "count"},
      {"stream.issue_late_p99_ms", Percentile(traced.issue_late_ms, 0.99),
       "ms"},
  };
  for (int i = 0; i < 6; ++i) {
    metrics.push_back({std::string("nn.stage.") + kNnStages[i] + "_ms",
                       stage_ms[i], "ms"});
  }
  // Counts run.py needs to turn span sums into per-layer metrics.
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ", \"span_inputs\": {\"ops\": %lld, \"sessions\": %lld, "
      "\"detect_windows\": %lld, \"explain_calls\": %lld, "
      "\"audit_appends\": %lld, \"score_next_calls\": %lld, "
      "\"train_windows\": %d, \"nn_stage_ms\": %.6f, "
      "\"all_stage_ms\": %.6f, \"calibration_ops\": %lld}",
      static_cast<long long>(c.ops), static_cast<long long>(c.sessions),
      static_cast<long long>(c.detect_windows),
      static_cast<long long>(c.explain_calls),
      static_cast<long long>(c.audit_appends),
      static_cast<long long>(c.score_next_calls), sys.train_windows,
      nn_stage_ms, all_stage_ms, static_cast<long long>(calibration_ops));
  const bool correct = tally.failed == 0 && tally.oracle_checked > 0;
  PrintMetricsJson(tally, correct, metrics, buf);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--tiny") {
      args->tiny = value == "1";
    } else if (flag == "--corrupt-oracle") {
      args->corrupt_oracle = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (args->workload == "screen-commenting" ||
          args->workload == "screen-location" ||
          args->workload == "stream-commenting") &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload "
                 "<screen-commenting|screen-location|stream-commenting> "
                 "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir> "
                 "[--tiny 1] [--corrupt-oracle <n>]\n");
    return 2;
  }
  return Main(args);
}
