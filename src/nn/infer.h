#ifndef UCAD_NN_INFER_H_
#define UCAD_NN_INFER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nn/simd.h"
#include "nn/tensor.h"

namespace ucad::obs {
class MetricsRegistry;
}  // namespace ucad::obs

namespace ucad::nn {

/// Bump/arena-style pool of preallocated forward-pass buffers. A frame is
/// one inference forward: kernels acquire buffers in a fixed (straight-line)
/// order, BeginFrame() rewinds the cursor, and because the acquisition
/// sequence is a pure function of the model config + window length, every
/// frame after the first reuses the same storage — zero allocations on the
/// steady-state hot path. Buffer addresses are stable across frames
/// (unique_ptr slots), so cached pointers into the previous frame stay valid
/// until the matching Acquire of the next frame overwrites them.
///
/// Not thread-safe: one Workspace belongs to one InferenceContext, which
/// belongs to one lane at a time.
class Workspace {
 public:
  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Rewinds the arena cursor; the next Acquire reuses slot 0.
  void BeginFrame() { cursor_ = 0; }

  /// Returns the next buffer of the frame, shaped [rows x cols]. Contents
  /// are unspecified (previous frame's data) — every kernel fully overwrites
  /// its output. Grows (and counts an allocation) only when the slot is new
  /// or its shape changed.
  Tensor* Acquire(int rows, int cols);

  /// Total payload bytes currently held across all slots.
  size_t TotalBytes() const;

  /// Number of distinct buffers (the per-frame acquisition count).
  size_t NumBuffers() const { return slots_.size(); }

 private:
  std::vector<std::unique_ptr<Tensor>> slots_;
  size_t cursor_ = 0;
};

/// Per-lane state of the tape-free inference engine: the buffer arenas plus
/// caches of derived weights (the transposed embedding table used by the
/// all-key logits kernel and the per-block packed QKV projection matrices),
/// keyed by source pointer + weight version so fine-tuning invalidates
/// them. Create one per concurrent scoring lane and reuse it across
/// windows; construction is cheap, the first forward sizes everything.
class InferenceContext {
 public:
  InferenceContext();
  InferenceContext(const InferenceContext&) = delete;
  InferenceContext& operator=(const InferenceContext&) = delete;
  ~InferenceContext();

  Workspace& workspace() { return workspace_; }

  /// Separate arena for multi-window batched forwards: batched frames have
  /// a different (capacity-sized) acquisition sequence, and sharing one
  /// arena with single-window frames would churn slot shapes every time a
  /// pooled context alternates between the two modes.
  Workspace& batch_workspace() { return batch_workspace_; }

  /// `src` transposed, cached until `version` (or the source pointer)
  /// changes. Transposition is a pure copy, so the cache cannot perturb
  /// bitwise parity with the tape path's per-window Transpose node.
  const Tensor& TransposedCopy(const Tensor& src, uint64_t version);

  /// Generic derived-weight cache: returns the [rows x cols] tensor stored
  /// under `key`, rebuilding it through `fill` whenever the version or shape
  /// changes. `fill` must be a pure rearrangement (copy) of parameter
  /// values — caching copies cannot perturb bitwise parity.
  const Tensor& CachedWeight(const void* key, uint64_t version, int rows,
                             int cols,
                             const std::function<void(Tensor*)>& fill);

  /// Called by the engine after each full forward (feeds nn/infer metrics);
  /// `tier` attributes the forward to its kernel tier.
  void NoteForward(KernelTier tier = KernelTier::kReference);

  /// Batched-forward accounting: one batched forward packed `windows` of
  /// `capacity` slots (feeds nn/infer/batches_total, batched_windows_total
  /// and the batch_occupancy gauge). Also counts as one forward.
  void NoteBatchForward(int windows, int capacity);

  // ---- Verdict-attribution hook ---------------------------------------
  //
  // Off by default (one int compare per block on the forward path). When
  // armed with an output row, ForwardInference copies that row of every
  // final-block head's post-softmax attention matrix into this context —
  // a pure read of values the kernels already stored, after they stored
  // them, so arming the capture cannot perturb bitwise parity and costs
  // no extra forward. The captured rows answer "which context positions
  // did the verdict's intent prediction actually attend to".

  /// Arms capture of final-block attention row `row` (>= the forward's
  /// rows_from) for subsequent forwards on this context; -1 disarms.
  void SetAttentionCaptureRow(int row) { attention_capture_row_ = row; }
  int attention_capture_row() const { return attention_capture_row_; }

  /// Called by the model inside the final block: stores `cols` attention
  /// weights of head `head`. Head 0 resets the capture for the new forward.
  void RecordAttentionRow(size_t head, const float* row, int cols);

  /// Captured rows of the most recent forward, one [L] vector per head
  /// (empty when capture was disarmed). Valid until the next forward.
  const std::vector<std::vector<float>>& captured_attention() const {
    return captured_attention_;
  }

 private:
  struct CacheEntry {
    uint64_t version = 0;
    Tensor tensor;
  };

  Workspace workspace_;
  Workspace batch_workspace_;
  std::unordered_map<const void*, CacheEntry> weight_cache_;
  int attention_capture_row_ = -1;
  std::vector<std::vector<float>> captured_attention_;
};

// ---- Fused forward kernels -------------------------------------------------
//
// Under the default KernelTier::kReference each kernel replicates the tape
// path's per-op rounding exactly: fusion saves graph recording, gradient
// bookkeeping, and intermediate buffers, but every float store happens in
// the same order with the same value as the corresponding tape ops, so the
// engines agree bitwise (docs/INFERENCE.md). When the calling thread's
// ambient tier (simd.h) is kVectorized, the arithmetic kernels route to
// the relaxed fast:: bodies instead — runtime-dispatched
// vectorized implementations whose contract is verdict identity, not
// bitwise logits. Pure-copy kernels (gather/transpose) are tier-invariant.
// Row-partitioned kernels dispatch through the global thread pool above the
// thresholds in parallel_thresholds.h; row partitions never change
// accumulation order, so parallel==serial stays bitwise per tier. Kernels
// read the tier once at entry (on the calling thread) before fanning out,
// so pool workers inherit the decision through the captured lambda.

/// Embedding gather: out[i, :] = table[indices[i], :]. `out` must have at
/// least |indices| rows (extra rows — the unused slots of a partially
/// filled batch — are left untouched) and table.cols columns. Indices must
/// be valid rows (pre-sanitized).
void GatherRowsKernel(const Tensor& table, const std::vector<int>& indices,
                      Tensor* out);

/// out = a^T (`out` must be [a.cols x a.rows]). Pure copy.
void TransposeKernel(const Tensor& a, Tensor* out);

/// out = a[:, col0:col0+cols]^T (`out` must be [cols x a.rows]). Pure copy;
/// lifts one logical head matrix out of a packed column block without
/// materializing the slice first.
void TransposeSliceKernel(const Tensor& a, int col0, int cols, Tensor* out);

/// out[row0..row1, :] = a[row0..row1, acol0:acol0+k] * b, where b is
/// [k x out.cols]. Exactly the shared MatMulAccum recipe per output element
/// (zeroed destination, products added in ascending depth order, zero
/// operands skipped), so restricting the row range or reading `a` through a
/// column offset cannot perturb bitwise parity. Rows outside [row0, row1)
/// are untouched; `row1` = -1 means a.rows() (the batched engine passes the
/// occupied prefix of a capacity-sized buffer). `post_scale`, when not 1,
/// multiplies the finished rows in a separate epilogue pass —
/// element-for-element the tape's Scale node applied to the stored matmul
/// result (a multiply after an add cannot FMA-contract).
void MatMulSliceKernel(const Tensor& a, int acol0, int k, const Tensor& b,
                       int row0, Tensor* out, float post_scale = 1.0f,
                       int row1 = -1);

/// Attention context fused with the head concat: for rows >= row0,
/// concat[i, ccol0:ccol0+hd] = att[i, :] * qkv[:, vcol0:vcol0+hd]. Same
/// per-element accumulation recipe as MatMulAccum followed by the tape's
/// ConcatCols copy, with neither the per-head context tensor nor the copy
/// materialized.
void AttnContextKernel(const Tensor& att, int row0, const Tensor& qkv,
                       int vcol0, int hd, int ccol0, Tensor* concat);

/// In-place masked-attention softmax on rows >= row0: those rows of
/// `scores` become softmax(scores * scale + mask) with the [L x L] additive
/// mask applied in-kernel. Scale and mask-add round separately (matching
/// the tape's Scale and Add nodes) before the max-subtracted exp/sum
/// normalization, which is byte-for-byte the tape's SoftmaxRows loop.
void MaskedSoftmaxKernel(Tensor* scores, float scale, const Tensor& mask,
                         int row0 = 0);

/// Fused residual + layer norm on rows [row0, row1): out = gain ⊙
/// norm(x + res) + bias, rows normalized independently (mean/var in double,
/// matching the tape's LayerNormRows). `gain`/`bias` are [1 x n]; `out`
/// must be [x.rows x n] and may not alias the inputs. `row1` = -1 means
/// x.rows().
void ResidualLayerNormKernel(const Tensor& x, const Tensor& res,
                             const Tensor& gain, const Tensor& bias, float eps,
                             Tensor* out, int row0 = 0, int row1 = -1);

/// In-place fused bias + ReLU on rows [row0, row1):
/// x[r, c] = max(0, x[r, c] + bias[0, c]). `row1` = -1 means x->rows().
void BiasReluKernel(Tensor* x, const Tensor& bias, int row0 = 0,
                    int row1 = -1);

/// In-place row-broadcast bias add on rows [row0, row1):
/// x[r, c] += bias[0, c]. `row1` = -1 means x->rows().
void BiasAddKernel(Tensor* x, const Tensor& bias, int row0 = 0, int row1 = -1);

// ---- Multi-window batched kernels ------------------------------------------
//
// The batched engine stacks B windows' rows into one [B*L x ...] buffer so
// per-block projections run as one wide GEMM instead of B skinny ones.
// Every batched kernel is a pure row regrouping of the single-window
// kernels above — each stored float goes through the identical per-element
// accumulation chain — so batching cannot perturb bitwise parity either.

/// Per-window column-slice transpose: for each window b < num_windows,
/// out rows [b*cols, (b+1)*cols) = qkv rows [b*L, (b+1)*L) columns
/// [col0, col0+cols) transposed — B stacked TransposeSliceKernel results.
/// Pure copy; rows of `out` beyond num_windows*cols are untouched.
void BatchedTransposeSliceKernel(const Tensor& qkv, int num_windows, int L,
                                 int col0, int cols, Tensor* out);

/// One attention head over B stacked windows, block-diagonal: for window b
/// and query row i (>= rows_from[b] when given; global row r = b*L + i),
/// runs scores = Q K^T (via `kt`, the BatchedTransposeSliceKernel output),
/// post_scale epilogue, masked softmax, and the context-into-concat matmul
/// — the exact per-row pipelines of MatMulSliceKernel(post_scale) +
/// MaskedSoftmaxKernel(scale=1) + AttnContextKernel, window-local, so every
/// stored value is bitwise the single-window kernels'. `scores` ([>=B*L x
/// L]) holds the per-window post-softmax attention rows on return;
/// `rows_from` (size num_windows) restricts each window's query rows, null
/// = all rows.
void BatchedAttentionHeadKernel(const Tensor& qkv, int num_windows, int L,
                                const int* rows_from, int qoff, int hd,
                                const Tensor& kt, float scale,
                                const Tensor& mask, int voff, int ccol0,
                                Tensor* scores, Tensor* concat);

// ---- Fused logits -> Eq. 10 score kernel -----------------------------------

/// Verdict of one logits row under the paper's top-p rule (§5.3 / Eq. 10).
struct RowScore {
  /// 1 = best; vocab+1 for unknown keys.
  int rank = 0;
  /// Eq. 10 logit of the observed key; 0 for unknown keys.
  float score = 0.0f;
  /// score minus the top-p admission cutoff (>= 0 iff rank <= top_p,
  /// including ties); -inf for unknown keys.
  float margin = 0.0f;
  /// rank > top_p (always true for unknown keys).
  bool abnormal = false;
};

/// Scores one row of all-key logits in a single pass: rank (strictly-greater
/// count over keys 1..vocab-1) and the top-p cutoff (p-th largest logit,
/// observed key included) come from the same scan via a bounded min-heap, so
/// rank and margin cannot disagree. Keys outside (0, vocab) are unknown:
/// rank = vocab + 1, score = 0, margin = -inf, abnormal. Shared by the tape
/// and inference detection engines.
RowScore ScoreLogitsRow(const float* logits, int vocab, int key, int top_p);

// ---- nn/infer metrics ------------------------------------------------------

/// Publishes the process-wide inference-engine accounting into `registry`:
/// nn/infer/contexts_total + nn/infer/forwards_total +
/// nn/infer/batches_total + nn/infer/batched_windows_total +
/// nn/infer/tier_forwards_total{tier=...} (counters),
/// nn/infer/live_contexts + nn/infer/workspace_live_bytes +
/// nn/infer/workspace_peak_bytes + nn/infer/batch_occupancy +
/// nn/infer/kernel_tier (ordinal of the most recent forward's tier) +
/// nn/infer/simd_isa (ordinal of util::ActiveSimdIsa()) (gauges; the
/// occupancy is cumulative batched windows / batched slots, in (0, 1] once
/// any batch ran). Counters are relaxed atomics fed off the hot path
/// (workspace growth and frame completion only).
void PublishInferMetrics(obs::MetricsRegistry* registry);

namespace internal {
/// Workspace byte-accounting hooks (relaxed atomics; test seam).
void RecordWorkspaceBytes(int64_t delta);
int64_t WorkspaceLiveBytes();
uint64_t InferForwardsTotal();
uint64_t BatchForwardsTotal();
uint64_t BatchedWindowsTotal();
uint64_t BatchedSlotsTotal();
uint64_t TierForwardsTotal(KernelTier tier);
}  // namespace internal

}  // namespace ucad::nn

#endif  // UCAD_NN_INFER_H_
