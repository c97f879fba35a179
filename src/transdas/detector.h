#ifndef UCAD_TRANSDAS_DETECTOR_H_
#define UCAD_TRANSDAS_DETECTOR_H_

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "nn/infer.h"
#include "transdas/config.h"
#include "transdas/model.h"

namespace ucad::transdas {

/// Per-operation detection outcome.
struct OperationVerdict {
  /// Index of the operation within the session.
  int position = 0;
  /// Rank (1 = best) of the observed key among all keys by similarity to
  /// the predicted contextual intent; vocab_size+1 for unknown keys.
  int rank = 0;
  /// True when rank > top_p (or the key was unknown).
  bool abnormal = false;
  /// Similarity of the observed key to the predicted contextual intent
  /// (Eq. 10 logit), from the same logits row that produced `rank`; 0 for
  /// unknown keys, which have no logit.
  float score = 0.0f;
  /// `score` minus the top-p admission cutoff (the top_p-th best logit
  /// over all keys in the same row): >= 0 exactly when rank <= top_p, so
  /// the margin quantifies how close a verdict was to flipping. -inf for
  /// unknown keys.
  float margin = 0.0f;
};

/// Session-level detection result.
struct SessionVerdict {
  bool abnormal = false;
  /// Verdicts for every scored operation (operation 0 has no context and is
  /// never scored).
  std::vector<OperationVerdict> operations;

  /// Positions of abnormal operations.
  std::vector<int> AbnormalPositions() const;
};

/// Online detector (§5.3): scores each operation of an active session by
/// whether its similarity to the Trans-DAS-predicted contextual intent
/// ranks within the top-p over all keys; the first miss flags the session.
class TransDasDetector {
 public:
  /// The model must be trained and must outlive the detector.
  TransDasDetector(TransDasModel* model, const DetectorOptions& options);

  /// Scores a full session.
  SessionVerdict DetectSession(const std::vector<int>& keys) const;

  /// Scores a full session in SHADOW mode: the identical code path and
  /// bitwise-identical verdicts as DetectSession (same pooled contexts,
  /// same span planning, same parallel fan-out), but with the detector's
  /// cumulative observability suppressed — no detector/* counters or
  /// latency observations, no anomaly_rate update, and nothing fed to the
  /// DetectionMonitor's quantiles or PSI drift reference. The canary probe
  /// engine scores through this entry point so synthetic probes never
  /// contaminate the production statistics they are guarding. (Flight
  /// tracing, a sampled debugging ring rather than a statistic, stays on.)
  SessionVerdict ShadowDetectSession(const std::vector<int>& keys) const;

  /// Scores many sessions as one cross-session stream of window spans: the
  /// spans of ALL sessions fan out across the pool together, one forward
  /// per span. Verdicts are element-identical to calling DetectSession on
  /// each session (the span plan is a pure function of each session's
  /// length — see docs/INFERENCE.md). Per-session metrics are still
  /// flushed, with the shared setup/score latency amortized evenly over the
  /// scored sessions.
  std::vector<SessionVerdict> DetectSessions(
      const std::vector<std::vector<int>>& sessions) const;

  /// Scores only the latest operation given its preceding keys (the
  /// paper's streaming formulation): returns the rank of `next_key`.
  int RankNextOperation(const std::vector<int>& preceding,
                        int next_key) const;

  /// Streaming formulation with the full verdict: rank, similarity score,
  /// and margin to the top-p cutoff, all from one forward pass. `position`
  /// is left at 0 (the caller knows it). Agrees bitwise with non-batched
  /// DetectSession (the same window and output row).
  OperationVerdict ScoreNextOperation(const std::vector<int>& preceding,
                                      int next_key) const;

  /// One expected-operation candidate in an explanation.
  struct Candidate {
    int key = 0;
    /// Similarity to the predicted contextual intent (Eq. 10 logit).
    float score = 0.0f;
  };

  /// Explains a verdict for the operation at `position` of `keys`: the
  /// top-k keys the contextual intent actually expected there, best first.
  /// Useful for the expert-triage stage (§5.3): "the context predicted
  /// these operations; the session performed something else".
  std::vector<Candidate> ExplainOperation(const std::vector<int>& keys,
                                          int position, int top_k = 5) const;

  /// One context operation's contribution to a verdict.
  struct AttributionEntry {
    /// Session position of the contributing context operation.
    int session_position = 0;
    /// Key at that position (as the scoring window saw it, i.e. sanitized).
    int key = 0;
    /// Share of the final block's attention mass the intent prediction
    /// spent on this position, averaged over heads (each head's row sums
    /// to 1, so shares across the window sum to ~1).
    float attention = 0.0f;
    /// Exact leave-one-out counterfactual: the verdict of the observed
    /// operation with this context position masked to k0 — one tail-
    /// restricted row forward, bitwise-identical to scoring the edited
    /// session from scratch.
    nn::RowScore counterfactual;
  };

  /// Attribution of one verdict: the re-derived base verdict plus the
  /// top-k contributing context positions, attention-descending.
  struct VerdictAttribution {
    OperationVerdict verdict;
    std::vector<AttributionEntry> contributions;
  };

  /// Attributes the verdict at `position` of `keys` to its context: which
  /// window positions the final block attended to when predicting the
  /// contextual intent (captured from the same forward that re-derives
  /// the verdict — no extra pass), and how the verdict shifts when each
  /// top-attributed context operation is masked out. Off the detection hot
  /// path: call it for abnormal/promoted windows only.
  VerdictAttribution AttributeOperation(const std::vector<int>& keys,
                                        int position, int top_k = 5) const;

  const DetectorOptions& options() const { return options_; }

 private:
  /// One scoring window of a session: the window holds the L keys before
  /// session position w (BuildWindow(keys, w)), its output row i predicts
  /// position w + i + 1 - L, and it owns — writes the verdicts of —
  /// positions [lo, w] into `ops` (sized n-1 for a session of n keys). The
  /// pointers alias the caller's storage for the duration of one Detect
  /// call.
  struct Span {
    const std::vector<int>* keys;
    std::vector<OperationVerdict>* ops;
    int w = 0;
    int lo = 0;
  };

  /// The single body of DetectSession, ShadowDetectSession and
  /// DetectSessions: plans every session's spans (AppendSpans), then scores
  /// them through ScoreSpan in one ParallelFor over spans. `shadow` only
  /// gates the end-of-session metrics flush, never the scoring itself.
  std::vector<SessionVerdict> Detect(
      std::span<const std::vector<int>* const> sessions, bool shadow) const;

  /// Appends the spans of one session of n keys to `out`. Batched mode
  /// advances windows by L (every output row scores one position, the
  /// training alignment; the tail window is clamped inside the session and
  /// re-derives, but does not own, earlier positions); per-op mode owns one
  /// position per window, scored from its preceding keys only (the paper's
  /// streaming formulation). A pure function of (n, L, batched): thread
  /// count never changes which window owns a position.
  void AppendSpans(const std::vector<int>* keys,
                   std::vector<OperationVerdict>* ops,
                   std::vector<Span>* out) const;

  /// Scores the positions one span owns through one window forward into
  /// the span's verdict slots (one flight trace, summarized by the span's
  /// worst verdict).
  void ScoreSpan(const Span& span) const;

  /// Fills rank/score/margin/abnormal of `op` from one row of all-key
  /// logits — delegates to nn::ScoreLogitsRow, the single-pass source of
  /// truth shared by every detection mode and the audit log.
  void ScoreKey(const nn::Tensor& logits, int row, int key,
                OperationVerdict* op) const;

  /// Right-aligned detection window: the last min(L, count) keys of
  /// keys[0..count), sanitized, with k0 left-padding.
  std::vector<int> BuildWindow(const std::vector<int>& keys, int count) const;

  /// Runs one L-key window through the inference engine on a pooled
  /// context and hands the [L x vocab] all-key logits to `fn` (valid only
  /// during the call). The single-window forward+logits site shared by the
  /// streaming scorer, the explainer, and span scoring. `fn` must only read
  /// logits rows >= rows_from — the engine skips the final block's
  /// row-wise tail below that row.
  void WithWindowLogits(const std::vector<int>& input, int rows_from,
                        const std::function<void(const nn::Tensor&)>& fn) const;

  std::unique_ptr<nn::InferenceContext> AcquireContext() const;
  void ReleaseContext(std::unique_ptr<nn::InferenceContext> ctx) const;

  TransDasModel* model_;
  DetectorOptions options_;
  /// Free list of inference contexts, all created with
  /// options_.kernel_tier: scoring lanes lease one per window and return
  /// it, so workspaces stay warm across windows and sessions (zero
  /// steady-state allocation). Grows to the peak lane count.
  mutable std::mutex ctx_mutex_;
  mutable std::vector<std::unique_ptr<nn::InferenceContext>> ctx_pool_;
};

}  // namespace ucad::transdas

#endif  // UCAD_TRANSDAS_DETECTOR_H_
