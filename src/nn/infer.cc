#include "nn/infer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "nn/parallel_thresholds.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ucad::nn {

namespace {

std::atomic<uint64_t> g_contexts_total{0};
std::atomic<int64_t> g_live_contexts{0};
std::atomic<uint64_t> g_forwards_total{0};
std::atomic<int64_t> g_ws_live_bytes{0};
std::atomic<int64_t> g_ws_peak_bytes{0};
std::atomic<uint64_t> g_batches_total{0};
std::atomic<uint64_t> g_batched_windows_total{0};
std::atomic<uint64_t> g_batched_slots_total{0};
std::atomic<uint64_t> g_tier_forwards_total[2] = {{0}, {0}};
std::atomic<int> g_last_forward_tier{0};

}  // namespace

namespace internal {

void RecordWorkspaceBytes(int64_t delta) {
  const int64_t live =
      g_ws_live_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  int64_t peak = g_ws_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_ws_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

int64_t WorkspaceLiveBytes() {
  return g_ws_live_bytes.load(std::memory_order_relaxed);
}

uint64_t InferForwardsTotal() {
  return g_forwards_total.load(std::memory_order_relaxed);
}

uint64_t BatchForwardsTotal() {
  return g_batches_total.load(std::memory_order_relaxed);
}

uint64_t BatchedWindowsTotal() {
  return g_batched_windows_total.load(std::memory_order_relaxed);
}

uint64_t BatchedSlotsTotal() {
  return g_batched_slots_total.load(std::memory_order_relaxed);
}

uint64_t TierForwardsTotal(KernelTier tier) {
  return g_tier_forwards_total[static_cast<int>(tier)].load(
      std::memory_order_relaxed);
}

}  // namespace internal

Workspace::~Workspace() {
  internal::RecordWorkspaceBytes(-static_cast<int64_t>(TotalBytes()));
}

Tensor* Workspace::Acquire(int rows, int cols) {
  if (cursor_ == slots_.size()) {
    slots_.push_back(std::make_unique<Tensor>(rows, cols));
    internal::RecordWorkspaceBytes(
        static_cast<int64_t>(slots_.back()->size() * sizeof(float)));
  } else {
    Tensor& slot = *slots_[cursor_];
    if (slot.rows() != rows || slot.cols() != cols) {
      // Shape drift (different model/config through the same workspace):
      // replace the slot. Steady-state frames never take this branch.
      internal::RecordWorkspaceBytes(
          static_cast<int64_t>(rows) * cols * static_cast<int64_t>(sizeof(float)) -
          static_cast<int64_t>(slot.size() * sizeof(float)));
      slot = Tensor(rows, cols);
    }
  }
  return slots_[cursor_++].get();
}

size_t Workspace::TotalBytes() const {
  size_t bytes = 0;
  for (const auto& slot : slots_) bytes += slot->size() * sizeof(float);
  return bytes;
}

InferenceContext::InferenceContext() {
  g_contexts_total.fetch_add(1, std::memory_order_relaxed);
  g_live_contexts.fetch_add(1, std::memory_order_relaxed);
}

InferenceContext::~InferenceContext() {
  g_live_contexts.fetch_sub(1, std::memory_order_relaxed);
  // The two workspaces subtract their own bytes in ~Workspace; the derived
  // weight cache is accounted here.
  int64_t cached_bytes = 0;
  for (const auto& [key, entry] : weight_cache_) {
    cached_bytes += static_cast<int64_t>(entry.tensor.size() * sizeof(float));
  }
  internal::RecordWorkspaceBytes(-cached_bytes);
}

const Tensor& InferenceContext::CachedWeight(
    const void* key, uint64_t version, int rows, int cols,
    const std::function<void(Tensor*)>& fill) {
  CacheEntry& entry = weight_cache_[key];
  if (entry.version != version || entry.tensor.rows() != rows ||
      entry.tensor.cols() != cols) {
    const int64_t before =
        static_cast<int64_t>(entry.tensor.size() * sizeof(float));
    if (entry.tensor.rows() != rows || entry.tensor.cols() != cols) {
      entry.tensor = Tensor(rows, cols);
    }
    fill(&entry.tensor);
    entry.version = version;
    internal::RecordWorkspaceBytes(
        static_cast<int64_t>(entry.tensor.size() * sizeof(float)) - before);
  }
  return entry.tensor;
}

const Tensor& InferenceContext::TransposedCopy(const Tensor& src,
                                               uint64_t version) {
  return CachedWeight(&src, version, src.cols(), src.rows(),
                      [&src](Tensor* out) { TransposeKernel(src, out); });
}

void InferenceContext::NoteForward(KernelTier tier) {
  g_forwards_total.fetch_add(1, std::memory_order_relaxed);
  g_tier_forwards_total[static_cast<int>(tier)].fetch_add(
      1, std::memory_order_relaxed);
  g_last_forward_tier.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void InferenceContext::NoteBatchForward(int windows, int capacity) {
  g_batches_total.fetch_add(1, std::memory_order_relaxed);
  g_batched_windows_total.fetch_add(static_cast<uint64_t>(windows),
                                    std::memory_order_relaxed);
  g_batched_slots_total.fetch_add(static_cast<uint64_t>(capacity),
                                  std::memory_order_relaxed);
}

void InferenceContext::RecordAttentionRow(size_t head, const float* row,
                                          int cols) {
  if (head == 0) captured_attention_.clear();
  UCAD_DCHECK(head == captured_attention_.size());
  captured_attention_.emplace_back(row, row + cols);
}

void GatherRowsKernel(const Tensor& table, const std::vector<int>& indices,
                      Tensor* out) {
  // >= rather than ==: the batched engine gathers B*L rows into a
  // capacity-sized buffer and leaves the unused slots untouched.
  UCAD_DCHECK(out->rows() >= static_cast<int>(indices.size()));
  UCAD_DCHECK(out->cols() == table.cols());
  const int cols = table.cols();
  RowParallelFor(0, static_cast<int>(indices.size()), cols,
                 [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const int idx = indices[static_cast<size_t>(r)];
      UCAD_DCHECK(idx >= 0 && idx < table.rows());
      std::memcpy(out->row(static_cast<int>(r)), table.row(idx),
                  static_cast<size_t>(cols) * sizeof(float));
    }
  });
}

void TransposeKernel(const Tensor& a, Tensor* out) {
  UCAD_DCHECK(out->rows() == a.cols() && out->cols() == a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out->at(c, r) = a.at(r, c);
  }
}

void TransposeSliceKernel(const Tensor& a, int col0, int cols, Tensor* out) {
  UCAD_DCHECK(out->rows() == cols && out->cols() == a.rows());
  UCAD_DCHECK(col0 >= 0 && col0 + cols <= a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const float* arow = a.row(r) + col0;
    for (int c = 0; c < cols; ++c) out->at(c, r) = arow[c];
  }
}

namespace {

/// `R` output rows of out[i, :] = a[i, acol0:acol0+k] * b, interleaved in
/// one depth loop. Each output element still accumulates its products in
/// ascending depth order with the zero-operand skip — exactly
/// MatMulAccum's per-element recipe, so interleaving rows (independent
/// accumulation chains) cannot perturb bitwise parity. It just hides fma
/// latency and reuses each b row across R outputs.
template <int R, int K>
void MatMulRowBlock(const Tensor& a, int acol0, int k, const Tensor& b,
                    int64_t i0, Tensor* out) {
  const int n = b.cols();
  const int depth = K > 0 ? K : k;
  const float* arow[R];
  float* orow[R];
  for (int r = 0; r < R; ++r) {
    arow[r] = a.row(static_cast<int>(i0) + r) + acol0;
    orow[r] = out->row(static_cast<int>(i0) + r);
    for (int j = 0; j < n; ++j) orow[r][j] = 0.0f;
  }
  for (int p = 0; p < depth; ++p) {
    const float* __restrict__ brow = b.row(p);
    for (int r = 0; r < R; ++r) {
      const float av = arow[r][p];
      if (av == 0.0f) continue;
      float* __restrict__ o = orow[r];
      for (int j = 0; j < n; ++j) o[j] += av * brow[j];
    }
  }
}

/// Row-range driver for one compile-time depth: 4-row blocks + remainder.
template <int K>
void MatMulRows(const Tensor& a, int acol0, int k, const Tensor& b, int64_t r0,
                int64_t r1, Tensor* out) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) MatMulRowBlock<4, K>(a, acol0, k, b, i, out);
  switch (r1 - i) {
    case 3:
      MatMulRowBlock<3, K>(a, acol0, k, b, i, out);
      break;
    case 2:
      MatMulRowBlock<2, K>(a, acol0, k, b, i, out);
      break;
    case 1:
      MatMulRowBlock<1, K>(a, acol0, k, b, i, out);
      break;
    default:
      break;
  }
}

/// Same row-interleaving for the attention context: R rows of
/// concat[i, ccol0:ccol0+hd] = att[i, :] * qkv[:, vcol0:vcol0+hd]. HD is a
/// compile-time head width where possible (4 and 5 cover every shipped
/// config) — with a runtime trip count this 4-or-5-iteration loop drowns
/// in generic-vector-loop setup; fully unrolled it is a handful of fmas.
/// HD = 0 selects the runtime-width fallback.
template <int R, int HD>
void AttnRowBlock(const Tensor& att, const Tensor& qkv, int vcol0, int hd,
                  int ccol0, int64_t i0, Tensor* concat) {
  const int k = att.cols();
  const float* arow[R];
  for (int r = 0; r < R; ++r) {
    arow[r] = att.row(static_cast<int>(i0) + r);
  }
  if constexpr (HD > 0) {
    // Register-resident accumulators (see MatMulRowBlock): R x HD floats,
    // fully unrolled, stored to the concat block once at the end.
    float acc[R][HD];
    for (int r = 0; r < R; ++r) {
      for (int d = 0; d < HD; ++d) acc[r][d] = 0.0f;
    }
    for (int p = 0; p < k; ++p) {
      const float* vrow = qkv.row(p) + vcol0;
      for (int r = 0; r < R; ++r) {
        const float av = arow[r][p];
        if (av == 0.0f) continue;
        for (int d = 0; d < HD; ++d) acc[r][d] += av * vrow[d];
      }
    }
    for (int r = 0; r < R; ++r) {
      float* crow = concat->row(static_cast<int>(i0) + r) + ccol0;
      for (int d = 0; d < HD; ++d) crow[d] = acc[r][d];
    }
    return;
  }
  float* crow[R];
  for (int r = 0; r < R; ++r) {
    crow[r] = concat->row(static_cast<int>(i0) + r) + ccol0;
    for (int d = 0; d < hd; ++d) crow[r][d] = 0.0f;
  }
  for (int p = 0; p < k; ++p) {
    const float* vrow = qkv.row(p) + vcol0;
    for (int r = 0; r < R; ++r) {
      const float av = arow[r][p];
      if (av == 0.0f) continue;
      float* c = crow[r];
      for (int d = 0; d < hd; ++d) c[d] += av * vrow[d];
    }
  }
}

template <int HD>
void AttnContextRows(const Tensor& att, const Tensor& qkv, int vcol0, int hd,
                     int ccol0, int64_t r0, int64_t r1, Tensor* concat) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    AttnRowBlock<4, HD>(att, qkv, vcol0, hd, ccol0, i, concat);
  }
  switch (r1 - i) {
    case 3:
      AttnRowBlock<3, HD>(att, qkv, vcol0, hd, ccol0, i, concat);
      break;
    case 2:
      AttnRowBlock<2, HD>(att, qkv, vcol0, hd, ccol0, i, concat);
      break;
    case 1:
      AttnRowBlock<1, HD>(att, qkv, vcol0, hd, ccol0, i, concat);
      break;
    default:
      break;
  }
}

}  // namespace

void MatMulSliceKernel(const Tensor& a, int acol0, int k, const Tensor& b,
                       int row0, Tensor* out, float post_scale, int row1) {
  UCAD_DCHECK(acol0 >= 0 && acol0 + k <= a.cols());
  UCAD_DCHECK(b.rows() == k);
  UCAD_DCHECK(out->rows() == a.rows() && out->cols() == b.cols());
  const int end = row1 < 0 ? a.rows() : row1;
  UCAD_DCHECK(row0 >= 0 && row0 <= end && end <= a.rows());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::MatMulSlice(a, acol0, k, b, row0, end, post_scale, out);
    return;
  }
  const int n = b.cols();
  RowParallelFor(row0, end, k * n, [&](int64_t r0, int64_t r1) {
    // Compile-time depth for the shipped head/hidden widths: a fully
    // unrolled 4-10 deep accumulation loop beats the generic counted one.
    switch (k) {
      case 4:
        MatMulRows<4>(a, acol0, k, b, r0, r1, out);
        break;
      case 5:
        MatMulRows<5>(a, acol0, k, b, r0, r1, out);
        break;
      case 8:
        MatMulRows<8>(a, acol0, k, b, r0, r1, out);
        break;
      case 10:
        MatMulRows<10>(a, acol0, k, b, r0, r1, out);
        break;
      default:
        MatMulRows<0>(a, acol0, k, b, r0, r1, out);
        break;
    }
    if (post_scale != 1.0f) {
      for (int64_t ri = r0; ri < r1; ++ri) {
        float* orow = out->row(static_cast<int>(ri));
        for (int j = 0; j < n; ++j) orow[j] *= post_scale;
      }
    }
  });
}

void AttnContextKernel(const Tensor& att, int row0, const Tensor& qkv,
                       int vcol0, int hd, int ccol0, Tensor* concat) {
  UCAD_DCHECK(att.cols() == qkv.rows());
  UCAD_DCHECK(vcol0 >= 0 && vcol0 + hd <= qkv.cols());
  UCAD_DCHECK(ccol0 >= 0 && ccol0 + hd <= concat->cols());
  UCAD_DCHECK(concat->rows() == att.rows());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::AttnContext(att, row0, qkv, vcol0, hd, ccol0, concat);
    return;
  }
  const int k = att.cols();
  RowParallelFor(row0, att.rows(), k * hd, [&](int64_t r0, int64_t r1) {
    switch (hd) {
      case 4:
        AttnContextRows<4>(att, qkv, vcol0, hd, ccol0, r0, r1, concat);
        break;
      case 5:
        AttnContextRows<5>(att, qkv, vcol0, hd, ccol0, r0, r1, concat);
        break;
      case 8:
        AttnContextRows<8>(att, qkv, vcol0, hd, ccol0, r0, r1, concat);
        break;
      default:
        AttnContextRows<0>(att, qkv, vcol0, hd, ccol0, r0, r1, concat);
        break;
    }
  });
}

namespace {

/// One row of the masked-attention softmax, shared by MaskedSoftmaxKernel
/// and the batched attention pipeline. The mask add is fused with the
/// running max: add-then-compare has no mul-feeding-add shape, so
/// contraction cannot merge what the tape stores as separate Add and
/// SoftmaxRows-max traversals. Peeling c=0 preserves the tape's exact max
/// seeding (max_v = o[0], then std::max pairs in ascending order — NaN
/// handling included); the normalization is byte-for-byte the tape's
/// SoftmaxRows row loop (exp of the float difference, double sum, one
/// float reciprocal).
inline void MaskedSoftmaxRow(float* o, const float* m, int n) {
  o[0] += m[0];
  float max_v = o[0];
  for (int c = 1; c < n; ++c) {
    o[c] += m[c];
    max_v = std::max(max_v, o[c]);
  }
  double sum = 0.0;
  for (int c = 0; c < n; ++c) {
    o[c] = std::exp(o[c] - max_v);
    sum += o[c];
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (int c = 0; c < n; ++c) o[c] *= inv;
}

}  // namespace

void MaskedSoftmaxKernel(Tensor* scores, float scale, const Tensor& mask,
                         int row0) {
  UCAD_DCHECK(scores->SameShape(mask));
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::MaskedSoftmax(scores, scale, mask, row0);
    return;
  }
  const int n = scores->cols();
  RowParallelFor(row0, scores->rows(), n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      float* o = scores->row(r);
      // Scale in its own pass so each store rounds exactly like the tape's
      // Scale node (no cross-op FMA contraction with the mask add). Callers
      // that pre-scaled (the scores kernel's epilogue) pass scale == 1, and
      // x * 1.0f == x bitwise, so the identity pass can be skipped outright.
      if (scale != 1.0f) {
        for (int c = 0; c < n; ++c) o[c] *= scale;
      }
      MaskedSoftmaxRow(o, mask.row(r), n);
    }
  });
}

namespace {

/// Row-range worker of BatchedAttentionHeadKernel: each global row r maps
/// to window b = r / L, query position i = r % L, and runs the exact
/// per-row pipelines of MatMulSliceKernel (zeroed destination, ascending-
/// depth accumulation, zero-operand skip, scale epilogue), MaskedSoftmaxRow
/// (window-local mask row i), and AttnContextKernel (value rows of window b
/// only). HD is the compile-time head width where possible, HD = 0 the
/// runtime fallback — same dispatch as the single-window kernels.
template <int HD>
void BatchedAttnRows(const Tensor& qkv, int L, const int* rows_from, int qoff,
                     int hd, const Tensor& kt, float scale, const Tensor& mask,
                     int voff, int ccol0, int64_t r0, int64_t r1,
                     Tensor* scores, Tensor* concat) {
  const int depth = HD > 0 ? HD : hd;
  for (int64_t gr = r0; gr < r1; ++gr) {
    const int r = static_cast<int>(gr);
    const int b = r / L;
    const int i = r - b * L;
    if (rows_from != nullptr && i < rows_from[b]) continue;
    float* o = scores->row(r);
    const float* q = qkv.row(r) + qoff;
    for (int j = 0; j < L; ++j) o[j] = 0.0f;
    for (int p = 0; p < depth; ++p) {
      const float av = q[p];
      if (av == 0.0f) continue;
      const float* __restrict__ brow = kt.row(b * hd + p);
      for (int j = 0; j < L; ++j) o[j] += av * brow[j];
    }
    if (scale != 1.0f) {
      for (int j = 0; j < L; ++j) o[j] *= scale;
    }
    MaskedSoftmaxRow(o, mask.row(i), L);
    const int vbase = b * L;
    float* crow = concat->row(r) + ccol0;
    if constexpr (HD > 0) {
      float acc[HD > 0 ? HD : 1];
      for (int d = 0; d < HD; ++d) acc[d] = 0.0f;
      for (int p = 0; p < L; ++p) {
        const float av = o[p];
        if (av == 0.0f) continue;
        const float* vrow = qkv.row(vbase + p) + voff;
        for (int d = 0; d < HD; ++d) acc[d] += av * vrow[d];
      }
      for (int d = 0; d < HD; ++d) crow[d] = acc[d];
    } else {
      for (int d = 0; d < hd; ++d) crow[d] = 0.0f;
      for (int p = 0; p < L; ++p) {
        const float av = o[p];
        if (av == 0.0f) continue;
        const float* vrow = qkv.row(vbase + p) + voff;
        for (int d = 0; d < hd; ++d) crow[d] += av * vrow[d];
      }
    }
  }
}

}  // namespace

void BatchedTransposeSliceKernel(const Tensor& qkv, int num_windows, int L,
                                 int col0, int cols, Tensor* out) {
  UCAD_DCHECK(out->rows() >= num_windows * cols && out->cols() == L);
  UCAD_DCHECK(qkv.rows() >= num_windows * L);
  UCAD_DCHECK(col0 >= 0 && col0 + cols <= qkv.cols());
  for (int b = 0; b < num_windows; ++b) {
    for (int i = 0; i < L; ++i) {
      const float* arow = qkv.row(b * L + i) + col0;
      for (int c = 0; c < cols; ++c) out->at(b * cols + c, i) = arow[c];
    }
  }
}

void BatchedAttentionHeadKernel(const Tensor& qkv, int num_windows, int L,
                                const int* rows_from, int qoff, int hd,
                                const Tensor& kt, float scale,
                                const Tensor& mask, int voff, int ccol0,
                                Tensor* scores, Tensor* concat) {
  UCAD_DCHECK(qkv.rows() >= num_windows * L);
  UCAD_DCHECK(kt.rows() >= num_windows * hd && kt.cols() == L);
  UCAD_DCHECK(mask.rows() == L && mask.cols() == L);
  UCAD_DCHECK(scores->rows() >= num_windows * L && scores->cols() == L);
  UCAD_DCHECK(concat->rows() >= num_windows * L);
  UCAD_DCHECK(qoff >= 0 && qoff + hd <= qkv.cols());
  UCAD_DCHECK(voff >= 0 && voff + hd <= qkv.cols());
  UCAD_DCHECK(ccol0 >= 0 && ccol0 + hd <= concat->cols());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::BatchedAttnHead(qkv, num_windows, L, rows_from, qoff, hd, kt, scale,
                          mask, voff, ccol0, scores, concat);
    return;
  }
  const int total = num_windows * L;
  // Per-row cost: L*hd (scores) + L (softmax) + L*hd (context).
  RowParallelFor(0, total, L * (2 * hd + 2), [&](int64_t r0, int64_t r1) {
    switch (hd) {
      case 4:
        BatchedAttnRows<4>(qkv, L, rows_from, qoff, hd, kt, scale, mask, voff,
                           ccol0, r0, r1, scores, concat);
        break;
      case 5:
        BatchedAttnRows<5>(qkv, L, rows_from, qoff, hd, kt, scale, mask, voff,
                           ccol0, r0, r1, scores, concat);
        break;
      case 8:
        BatchedAttnRows<8>(qkv, L, rows_from, qoff, hd, kt, scale, mask, voff,
                           ccol0, r0, r1, scores, concat);
        break;
      default:
        BatchedAttnRows<0>(qkv, L, rows_from, qoff, hd, kt, scale, mask, voff,
                           ccol0, r0, r1, scores, concat);
        break;
    }
  });
}

void ResidualLayerNormKernel(const Tensor& x, const Tensor& res,
                             const Tensor& gain, const Tensor& bias, float eps,
                             Tensor* out, int row0, int row1) {
  UCAD_DCHECK(x.SameShape(res));
  UCAD_DCHECK(out->SameShape(x));
  UCAD_DCHECK(gain.rows() == 1 && gain.cols() == x.cols());
  UCAD_DCHECK(bias.rows() == 1 && bias.cols() == x.cols());
  const int end = row1 < 0 ? x.rows() : row1;
  UCAD_DCHECK(row0 >= 0 && row0 <= end && end <= x.rows());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::ResidualLayerNorm(x, res, gain, bias, eps, out, row0, end);
    return;
  }
  const int n = x.cols();
  const float* vg = gain.row(0);
  const float* vb = bias.row(0);
  RowParallelFor(row0, end, n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      const float* xin = x.row(r);
      const float* rin = res.row(r);
      float* o = out->row(r);
      // Residual sum stored as float first (the tape's Add node), then the
      // exact LayerNormRows recipe over the stored row: double mean/var,
      // float istd, gain/bias epilogue.
      for (int c = 0; c < n; ++c) o[c] = xin[c] + rin[c];
      double mean = 0.0;
      for (int c = 0; c < n; ++c) mean += o[c];
      mean /= n;
      double var = 0.0;
      for (int c = 0; c < n; ++c) {
        const double d = o[c] - mean;
        var += d * d;
      }
      var /= n;
      const float istd = static_cast<float>(1.0 / std::sqrt(var + eps));
      for (int c = 0; c < n; ++c) {
        const float xh = (o[c] - static_cast<float>(mean)) * istd;
        o[c] = vg[c] * xh + vb[c];
      }
    }
  });
}

void BiasReluKernel(Tensor* x, const Tensor& bias, int row0, int row1) {
  UCAD_DCHECK(bias.rows() == 1 && bias.cols() == x->cols());
  const int end = row1 < 0 ? x->rows() : row1;
  UCAD_DCHECK(row0 >= 0 && row0 <= end && end <= x->rows());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::BiasRelu(x, bias, row0, end);
    return;
  }
  const int n = x->cols();
  const float* vb = bias.row(0);
  RowParallelFor(row0, end, n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      float* o = x->row(static_cast<int>(ri));
      // One rounded add (the AddRowVector store) then an exact max.
      for (int c = 0; c < n; ++c) o[c] = std::max(0.0f, o[c] + vb[c]);
    }
  });
}

void BiasAddKernel(Tensor* x, const Tensor& bias, int row0, int row1) {
  UCAD_DCHECK(bias.rows() == 1 && bias.cols() == x->cols());
  const int end = row1 < 0 ? x->rows() : row1;
  UCAD_DCHECK(row0 >= 0 && row0 <= end && end <= x->rows());
  if (CurrentKernelTier() != KernelTier::kReference) {
    fast::BiasAdd(x, bias, row0, end);
    return;
  }
  const int n = x->cols();
  const float* vb = bias.row(0);
  RowParallelFor(row0, end, n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      float* o = x->row(static_cast<int>(ri));
      for (int c = 0; c < n; ++c) o[c] += vb[c];
    }
  });
}

RowScore ScoreLogitsRow(const float* logits, int vocab, int key, int top_p) {
  RowScore out;
  if (key <= 0 || key >= vocab) {
    // Unknown templates (k0) never match normal intent: worst possible
    // rank, no logit to report, unbounded negative margin.
    out.rank = vocab + 1;
    out.score = 0.0f;
    out.margin = -std::numeric_limits<float>::infinity();
    out.abnormal = true;
    obs::FlightStageBoundary(obs::FlightStage::kScore);
    return out;
  }
  const float score = logits[key];
  // One scan computes both the rank (strictly-greater count) and the top-p
  // cutoff (p-th largest logit, observed key included) via a small bounded
  // selection buffer, so rank and margin cannot disagree.
  const int p = std::min(top_p, vocab - 1);
  constexpr int kInlineCap = 64;
  float inline_top[kInlineCap];  // min-first heap of the p largest logits
  std::vector<float> heap_storage;
  float* top = inline_top;
  if (p > kInlineCap) {
    heap_storage.resize(static_cast<size_t>(p));
    top = heap_storage.data();
  }
  int top_size = 0;
  int rank = 1;
  for (int k = 1; k < vocab; ++k) {
    const float v = logits[k];
    if (k != key && v > score) ++rank;
    if (top_size < p) {
      top[top_size++] = v;
      std::push_heap(top, top + top_size, std::greater<float>());
    } else if (v > top[0]) {
      std::pop_heap(top, top + top_size, std::greater<float>());
      top[top_size - 1] = v;
      std::push_heap(top, top + top_size, std::greater<float>());
    }
  }
  const float cutoff = top_size == 0 ? score : top[0];
  out.rank = rank;
  out.score = score;
  out.margin = score - cutoff;
  out.abnormal = rank > top_p;
  obs::FlightStageBoundary(obs::FlightStage::kScore);
  return out;
}

void PublishInferMetrics(obs::MetricsRegistry* registry) {
  const auto publish_counter = [registry](const char* name, uint64_t value) {
    obs::Counter* counter = registry->GetCounter(name);
    if (value > counter->Value()) counter->Increment(value - counter->Value());
  };
  publish_counter("nn/infer/contexts_total",
                  g_contexts_total.load(std::memory_order_relaxed));
  publish_counter("nn/infer/forwards_total",
                  g_forwards_total.load(std::memory_order_relaxed));
  publish_counter("nn/infer/batches_total",
                  g_batches_total.load(std::memory_order_relaxed));
  publish_counter("nn/infer/batched_windows_total",
                  g_batched_windows_total.load(std::memory_order_relaxed));
  for (const KernelTier tier :
       {KernelTier::kReference, KernelTier::kVectorized}) {
    obs::Counter* counter = registry->GetCounter(
        "nn/infer/tier_forwards_total", {{"tier", KernelTierName(tier)}});
    const uint64_t value = internal::TierForwardsTotal(tier);
    if (value > counter->Value()) counter->Increment(value - counter->Value());
  }
  registry->GetGauge("nn/infer/kernel_tier")
      ->Set(static_cast<double>(
          g_last_forward_tier.load(std::memory_order_relaxed)));
  registry->GetGauge("nn/infer/simd_isa")
      ->Set(static_cast<double>(static_cast<int>(util::ActiveSimdIsa())));
  const uint64_t slots = g_batched_slots_total.load(std::memory_order_relaxed);
  registry->GetGauge("nn/infer/batch_occupancy")
      ->Set(slots == 0 ? 0.0
                       : static_cast<double>(g_batched_windows_total.load(
                             std::memory_order_relaxed)) /
                             static_cast<double>(slots));
  registry->GetGauge("nn/infer/live_contexts")
      ->Set(static_cast<double>(
          g_live_contexts.load(std::memory_order_relaxed)));
  registry->GetGauge("nn/infer/workspace_live_bytes")
      ->Set(static_cast<double>(
          g_ws_live_bytes.load(std::memory_order_relaxed)));
  registry->GetGauge("nn/infer/workspace_peak_bytes")
      ->Set(static_cast<double>(
          g_ws_peak_bytes.load(std::memory_order_relaxed)));
}

}  // namespace ucad::nn
