#include "transdas/detector.h"

#include <algorithm>
#include <utility>

#include "nn/infer.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ucad::transdas {

std::vector<int> SessionVerdict::AbnormalPositions() const {
  std::vector<int> out;
  for (const OperationVerdict& op : operations) {
    if (op.abnormal) out.push_back(op.position);
  }
  return out;
}

TransDasDetector::TransDasDetector(TransDasModel* model,
                                   const DetectorOptions& options)
    : model_(model), options_(options) {
  UCAD_CHECK(model_ != nullptr);
  UCAD_CHECK_GE(options_.top_p, 1);
}

void TransDasDetector::ScoreKey(const nn::Tensor& logits, int row, int key,
                                OperationVerdict* op) const {
  const nn::RowScore rs =
      nn::ScoreLogitsRow(logits.row(row), logits.cols(), key, options_.top_p);
  op->rank = rs.rank;
  op->score = rs.score;
  op->margin = rs.margin;
  op->abnormal = rs.abnormal;
}

namespace {

/// Maps keys outside [0, vocab) to k0 so a corrupted or newer-vocabulary
/// session cannot crash the embedding gather; such keys still rank worst.
int Sanitize(int key, int vocab) { return key >= 0 && key < vocab ? key : 0; }

}  // namespace

void TransDasDetector::AppendWindow(const std::vector<int>& keys, int count,
                                    std::vector<int>* out) const {
  const int L = model_->config().window;
  const int vocab = model_->config().vocab_size;
  const int take = std::min(L, count);
  out->insert(out->end(), static_cast<size_t>(L - take), 0);
  for (int i = count - take; i < count; ++i) {
    out->push_back(Sanitize(keys[i], vocab));
  }
}

std::vector<int> TransDasDetector::BuildWindow(const std::vector<int>& keys,
                                               int count) const {
  std::vector<int> window;
  window.reserve(static_cast<size_t>(model_->config().window));
  AppendWindow(keys, count, &window);
  return window;
}

std::unique_ptr<nn::InferenceContext> TransDasDetector::AcquireContext() const {
  {
    std::lock_guard<std::mutex> lock(ctx_mutex_);
    if (!ctx_pool_.empty()) {
      std::unique_ptr<nn::InferenceContext> ctx = std::move(ctx_pool_.back());
      ctx_pool_.pop_back();
      return ctx;
    }
  }
  return std::make_unique<nn::InferenceContext>();
}

void TransDasDetector::ReleaseContext(
    std::unique_ptr<nn::InferenceContext> ctx) const {
  std::lock_guard<std::mutex> lock(ctx_mutex_);
  ctx_pool_.push_back(std::move(ctx));
}

void TransDasDetector::WithWindowLogits(
    const std::vector<int>& input, int rows_from,
    const std::function<void(const nn::Tensor&)>& fn) const {
  // The tier scope lives here — the per-thread forward site — rather than
  // at DetectSession entry: session-level fan-out runs on pool threads
  // whose ambient tier would otherwise stay kReference.
  nn::ScopedKernelTier tier_scope(options_.kernel_tier);
  std::unique_ptr<nn::InferenceContext> ctx = AcquireContext();
  obs::FlightStageBoundary(obs::FlightStage::kContextAcquire);
  const nn::Tensor& outputs =
      model_->ForwardInference(ctx.get(), input, rows_from);
  fn(model_->AllKeyLogitsInference(ctx.get(), outputs, rows_from));
  ReleaseContext(std::move(ctx));
}

int TransDasDetector::RankNextOperation(const std::vector<int>& preceding,
                                        int next_key) const {
  return ScoreNextOperation(preceding, next_key).rank;
}

OperationVerdict TransDasDetector::ScoreNextOperation(
    const std::vector<int>& preceding, int next_key) const {
  obs::FlightBegin(static_cast<int>(preceding.size()));
  const int L = model_->config().window;
  const std::vector<int> window =
      BuildWindow(preceding, static_cast<int>(preceding.size()));
  // The last output position carries the contextual intent of the next
  // operation (§5.3); the inference engine only computes that row's tail.
  OperationVerdict op;
  WithWindowLogits(window, /*rows_from=*/L - 1, [&](const nn::Tensor& logits) {
    ScoreKey(logits, L - 1, next_key, &op);
  });
  obs::FlightEnd(op.rank, op.score, op.margin, op.abnormal);
  return op;
}

std::vector<TransDasDetector::Candidate> TransDasDetector::ExplainOperation(
    const std::vector<int>& keys, int position, int top_k) const {
  UCAD_CHECK(position >= 1 && position < static_cast<int>(keys.size()));
  const int L = model_->config().window;
  const int vocab = model_->config().vocab_size;
  // Same window placement as the streaming scorer: the preceding sequence
  // ends at `position`-1 and fills the window from the right.
  const std::vector<int> window = BuildWindow(keys, position);
  std::vector<Candidate> candidates;
  candidates.reserve(vocab - 1);
  WithWindowLogits(window, /*rows_from=*/L - 1, [&](const nn::Tensor& logits) {
    for (int k = 1; k < vocab; ++k) {
      candidates.push_back(Candidate{k, logits.at(L - 1, k)});
    }
  });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.score > b.score;
            });
  if (static_cast<int>(candidates.size()) > top_k) {
    candidates.resize(top_k);
  }
  return candidates;
}

TransDasDetector::VerdictAttribution TransDasDetector::AttributeOperation(
    const std::vector<int>& keys, int position, int top_k) const {
  UCAD_CHECK(position >= 1 && position < static_cast<int>(keys.size()));
  UCAD_CHECK_GE(top_k, 1);
  const int L = model_->config().window;
  const int vocab = model_->config().vocab_size;
  std::vector<int> window = BuildWindow(keys, position);
  const int take = std::min(L, position);

  VerdictAttribution out;
  out.verdict.position = position;

  nn::ScopedKernelTier tier_scope(options_.kernel_tier);
  std::unique_ptr<nn::InferenceContext> ctx = AcquireContext();
  // One forward re-derives the verdict and, via the armed capture, the
  // final block's attention over the window — same tail-restricted row
  // the streaming scorer computes, so the verdict matches DetectSession
  // on the detector's own tier (bitwise under kReference).
  ctx->SetAttentionCaptureRow(L - 1);
  const nn::Tensor& outputs =
      model_->ForwardInference(ctx.get(), window, /*rows_from=*/L - 1);
  const nn::Tensor& logits =
      model_->AllKeyLogitsInference(ctx.get(), outputs, L - 1);
  ScoreKey(logits, L - 1, keys[position], &out.verdict);
  const std::vector<std::vector<float>> attention = ctx->captured_attention();
  ctx->SetAttentionCaptureRow(-1);

  // Per-position attention mass, averaged over heads; padding slots (left
  // of the right-aligned context) carry mass but name no operation, so
  // they are never candidates — their share is simply not attributed.
  const float inv_heads =
      attention.empty() ? 0.0f : 1.0f / static_cast<float>(attention.size());
  std::vector<AttributionEntry> candidates;
  candidates.reserve(static_cast<size_t>(take));
  for (int j = L - take; j < L; ++j) {
    AttributionEntry entry;
    entry.session_position = position - take + (j - (L - take));
    entry.key = window[j];
    float mass = 0.0f;
    for (const std::vector<float>& head : attention) mass += head[j];
    entry.attention = mass * inv_heads;
    candidates.push_back(entry);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const AttributionEntry& a, const AttributionEntry& b) {
                     return a.attention > b.attention;
                   });
  if (static_cast<int>(candidates.size()) > top_k) {
    candidates.resize(static_cast<size_t>(top_k));
  }

  // Exact leave-one-out counterfactuals: mask one context position to k0
  // and re-score through the same pooled workspace and row-tail path, so
  // each counterfactual is one cheap row forward and every stored float
  // matches a from-scratch DetectSession of the edited session.
  for (AttributionEntry& entry : candidates) {
    const int j = L - take + (entry.session_position - (position - take));
    const int saved = window[j];
    window[j] = 0;
    const nn::Tensor& cf_outputs =
        model_->ForwardInference(ctx.get(), window, /*rows_from=*/L - 1);
    const nn::Tensor& cf_logits =
        model_->AllKeyLogitsInference(ctx.get(), cf_outputs, L - 1);
    entry.counterfactual = nn::ScoreLogitsRow(cf_logits.row(L - 1), vocab,
                                              keys[position], options_.top_p);
    window[j] = saved;
  }
  ReleaseContext(std::move(ctx));
  out.contributions = std::move(candidates);
  return out;
}

namespace {

/// Flushes per-session scoring observations into the default registry.
/// Latency is split at the forward-pass boundary: setup_latency_ms covers
/// window construction (padding, sanitization, span planning, verdict
/// allocation), score_latency_ms covers the model forwards + Eq. 10 scoring
/// that the nn/infer engine accelerates. The drift monitor sees the sum
/// (the end-to-end figure it always saw).
void RecordDetectMetrics(const SessionVerdict& verdict, double setup_ms,
                         double score_ms) {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  // Fine buckets: the flight recorder's stage p50s are reconciled against
  // score_latency_ms p50, so both sides need low interpolation error.
  reg.GetHistogram("detector/setup_latency_ms", {},
                   obs::Histogram::FineLatencyBounds())
      ->Observe(setup_ms);
  reg.GetHistogram("detector/score_latency_ms", {},
                   obs::Histogram::FineLatencyBounds())
      ->Observe(score_ms);
  obs::Counter* sessions = reg.GetCounter("detector/sessions_total");
  obs::Counter* abnormal = reg.GetCounter("detector/abnormal_sessions_total");
  sessions->Increment();
  if (verdict.abnormal) abnormal->Increment();
  reg.GetCounter("detector/operations_total")
      ->Increment(verdict.operations.size());
  reg.GetGauge("detector/anomaly_rate")
      ->Set(static_cast<double>(abnormal->Value()) /
            static_cast<double>(sessions->Value()));
  // Streaming forensics (opt-in): per-op rank/score quantile sketches and
  // the windowed rank-distribution drift detector.
  if (obs::DetectionMonitorEnabled()) {
    obs::DetectionMonitor& monitor = obs::DefaultDetectionMonitor();
    for (const OperationVerdict& op : verdict.operations) {
      monitor.ObserveOperation(op.rank, op.score);
    }
    monitor.ObserveLatency(setup_ms + score_ms);
  }
}

}  // namespace

SessionVerdict TransDasDetector::DetectSession(
    const std::vector<int>& keys) const {
  UCAD_TRACE_SPAN("detector/session");
  const std::vector<int>* session = &keys;
  return std::move(Detect({&session, 1}, /*shadow=*/false)[0]);
}

SessionVerdict TransDasDetector::ShadowDetectSession(
    const std::vector<int>& keys) const {
  UCAD_TRACE_SPAN("detector/session");
  const std::vector<int>* session = &keys;
  return std::move(Detect({&session, 1}, /*shadow=*/true)[0]);
}

std::vector<SessionVerdict> TransDasDetector::DetectSessions(
    const std::vector<std::vector<int>>& sessions) const {
  UCAD_TRACE_SPAN("detector/sessions");
  std::vector<const std::vector<int>*> refs;
  refs.reserve(sessions.size());
  for (const std::vector<int>& keys : sessions) refs.push_back(&keys);
  return Detect(refs, /*shadow=*/false);
}

std::vector<SessionVerdict> TransDasDetector::Detect(
    std::span<const std::vector<int>* const> sessions, bool shadow) const {
  // Shadow runs score identically but never flush RecordDetectMetrics:
  // canary probes must not move the cumulative counters, the anomaly rate,
  // or the PSI drift reference that real traffic is judged against.
  const bool metrics = obs::MetricsEnabled() && !shadow;
  util::Timer timer;
  std::vector<SessionVerdict> verdicts(sessions.size());
  // One span plan in input order: each session contributes its own span
  // sequence, so chunking may pack clamped tails of neighboring sessions
  // into one batch.
  std::vector<Span> spans;
  int scored_sessions = 0;
  for (size_t s = 0; s < sessions.size(); ++s) {
    const size_t n = sessions[s]->size();
    if (n < 2) continue;  // no scorable operation: empty verdict, no metrics
    ++scored_sessions;
    verdicts[s].operations.resize(n - 1);
    AppendSpans(sessions[s], &verdicts[s].operations, &spans);
  }
  const double setup_ms = timer.ElapsedMillis();
  // Spans own disjoint verdict slots, so chunks fan out across the pool
  // with each lane writing its own slots. Chunk boundaries are a pure
  // function of the span list, and batching never changes a computed
  // logits row, so verdicts match the serial per-window walk at any thread
  // count and any batch_windows.
  const int chunk = std::max(1, options_.batch_windows);
  const int64_t num_spans = static_cast<int64_t>(spans.size());
  util::ParallelFor(
      0, (num_spans + chunk - 1) / chunk, /*grain=*/1,
      [this, &spans, chunk, num_spans](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
          const int64_t start = c * chunk;
          if (chunk == 1) {
            ScoreSpan(spans[start]);
            continue;
          }
          const int count =
              static_cast<int>(std::min<int64_t>(chunk, num_spans - start));
          std::unique_ptr<nn::InferenceContext> ctx = AcquireContext();
          ScoreSpanBatch(ctx.get(), spans.data() + start, count, chunk);
          ReleaseContext(std::move(ctx));
        }
      });
  const double score_ms = timer.ElapsedMillis() - setup_ms;
  for (SessionVerdict& v : verdicts) {
    for (const OperationVerdict& op : v.operations) {
      if (op.abnormal) {
        v.abnormal = true;
        break;
      }
    }
  }
  if (metrics && scored_sessions > 0) {
    // The call shares one setup + one scoring sweep; amortize both evenly
    // so per-session histograms and the drift monitor keep their meaning.
    const double su = setup_ms / scored_sessions;
    const double sc = score_ms / scored_sessions;
    for (size_t s = 0; s < sessions.size(); ++s) {
      if (sessions[s]->size() < 2) continue;
      RecordDetectMetrics(verdicts[s], su, sc);
    }
  }
  return verdicts;
}

void TransDasDetector::AppendSpans(const std::vector<int>* keys,
                                   std::vector<OperationVerdict>* ops,
                                   std::vector<Span>* out) const {
  // Advance so every position in [1, n) is owned by exactly one window.
  const int n = static_cast<int>(keys->size());
  const int stride = options_.batched ? model_->config().window : 1;
  for (int next = 1; next < n;) {
    const int w = std::min(next + stride - 1, n - 1);
    out->push_back(Span{keys, ops, w, next});
    next = w + 1;
  }
}

int TransDasDetector::RowsFrom(const Span& span) const {
  return span.lo + model_->config().window - 1 - span.w;
}

void TransDasDetector::ScoreOwnedRows(const nn::Tensor& logits, int row0,
                                      const Span& span,
                                      OperationVerdict* worst) const {
  const int L = model_->config().window;
  for (int i = RowsFrom(span); i < L; ++i) {
    OperationVerdict op;
    op.position = span.w + i + 1 - L;
    ScoreKey(logits, row0 + i, (*span.keys)[op.position], &op);
    // Abnormal is monotone in rank, so the worst-ranked verdict is
    // abnormal exactly when any owned verdict is.
    if (op.rank > worst->rank) *worst = op;
    (*span.ops)[op.position - 1] = op;
  }
}

void TransDasDetector::ScoreSpan(const Span& span) const {
  obs::FlightBegin(span.lo);
  // Output row i scores session position w + i + 1 - L, so the rows this
  // span owns are the contiguous tail from RowsFrom(span); clamped tail
  // windows, short sessions and per-op windows skip the re-derived prefix
  // entirely in the inference engine. The flight trace summarizes the
  // window by its worst-ranked operation (the one an investigator drills
  // into first).
  OperationVerdict worst;
  worst.rank = -1;
  WithWindowLogits(BuildWindow(*span.keys, span.w), RowsFrom(span),
                   [&](const nn::Tensor& logits) {
                     ScoreOwnedRows(logits, 0, span, &worst);
                   });
  obs::FlightEnd(worst.rank, worst.score, worst.margin, worst.abnormal);
}

void TransDasDetector::ScoreSpanBatch(nn::InferenceContext* ctx,
                                      const Span* spans, int count,
                                      int capacity) const {
  const int L = model_->config().window;
  nn::ScopedKernelTier tier_scope(options_.kernel_tier);
  obs::FlightBegin(spans[0].lo);
  std::vector<int> input;
  input.reserve(static_cast<size_t>(count) * L);
  std::vector<int> rows_from(count);
  for (int b = 0; b < count; ++b) {
    AppendWindow(*spans[b].keys, spans[b].w, &input);
    rows_from[b] = RowsFrom(spans[b]);
  }
  obs::FlightStageBoundary(obs::FlightStage::kContextAcquire);
  const nn::Tensor& outputs =
      model_->ForwardInferenceBatched(ctx, input, rows_from, capacity);
  const nn::Tensor& logits =
      model_->AllKeyLogitsInferenceBatched(ctx, outputs, rows_from, capacity);
  obs::FlightStageBoundary(obs::FlightStage::kScore);
  // One flight trace covers the whole batch, summarized by its worst
  // verdict; spans write disjoint slots of their sessions' verdict arrays.
  OperationVerdict worst;
  worst.rank = -1;
  for (int b = 0; b < count; ++b) {
    ScoreOwnedRows(logits, b * L, spans[b], &worst);
  }
  obs::FlightEnd(worst.rank, worst.score, worst.margin, worst.abnormal);
}

}  // namespace ucad::transdas
