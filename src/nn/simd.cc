#include "nn/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/parallel_thresholds.h"
#include "util/logging.h"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define UCAD_SIMD_HAVE_AVX2 1
#else
#define UCAD_SIMD_HAVE_AVX2 0
#endif

namespace ucad::nn {

namespace {

thread_local KernelTier t_kernel_tier = KernelTier::kReference;

bool UseAvx2() {
#if UCAD_SIMD_HAVE_AVX2
  return util::ActiveSimdIsa() == util::SimdIsa::kAvx2;
#else
  return false;
#endif
}

}  // namespace

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kReference:
      return "reference";
    case KernelTier::kVectorized:
      return "vectorized";
  }
  return "reference";
}

bool ParseKernelTier(const std::string& name, KernelTier* out) {
  if (name == "reference") {
    *out = KernelTier::kReference;
  } else if (name == "vectorized") {
    *out = KernelTier::kVectorized;
  } else {
    return false;
  }
  return true;
}

KernelTier CurrentKernelTier() { return t_kernel_tier; }

ScopedKernelTier::ScopedKernelTier(KernelTier tier) : saved_(t_kernel_tier) {
  t_kernel_tier = tier;
}

ScopedKernelTier::~ScopedKernelTier() { t_kernel_tier = saved_; }

// ---- Polynomial exp --------------------------------------------------------

namespace fast {

namespace {

// Cephes expf constants: 2^n * P(r) with r = x - n*ln2 split hi/lo.
constexpr float kExpHi = 88.3762626647949f;
constexpr float kExpLo = -87.3365478515625f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

}  // namespace

float Exp(float x) {
  // Below kExpLo the result is not a normal float: return exact zero rather
  // than a clamped 2^-126 whose products in the softmax normalization and
  // the attention context would run through subnormal microcode assists.
  if (x < kExpLo) return 0.0f;
  x = std::min(kExpHi, std::max(kExpLo, x));
  const float n = std::floor(x * kLog2e + 0.5f);
  float r = x - n * kLn2Hi;
  r -= n * kLn2Lo;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  p = p * r * r + r + 1.0f;
  int32_t bits = (static_cast<int32_t>(n) + 127) << 23;
  float pow2n;
  std::memcpy(&pow2n, &bits, sizeof(pow2n));
  return p * pow2n;
}

namespace {

#if UCAD_SIMD_HAVE_AVX2

/// 8-lane twin of Exp(): same range reduction and polynomial, so scalar
/// tails and vector lanes agree to within the approximation's own error.
/// Lanes below kExpLo are masked to exact zero, as in the scalar Exp().
/// They evaluate the polynomial at 0 rather than at kExpLo, whose
/// 2^-126-scaled product can itself be subnormal and cost an assist.
inline __m256 Exp8(__m256 x) {
  const __m256 underflow =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpLo), _CMP_LT_OQ);
  x = _mm256_andnot_ps(underflow, x);
  x = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  x = _mm256_max_ps(_mm256_set1_ps(kExpLo), x);
  const __m256 n = _mm256_floor_ps(
      _mm256_fmadd_ps(x, _mm256_set1_ps(kLog2e), _mm256_set1_ps(0.5f)));
  __m256 r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Hi), x);
  r = _mm256_fnmadd_ps(n, _mm256_set1_ps(kLn2Lo), r);
  __m256 p = _mm256_set1_ps(kExpP0);
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP1));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP2));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP3));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP4));
  p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(kExpP5));
  p = _mm256_add_ps(
      _mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)), 23);
  return _mm256_andnot_ps(underflow,
                          _mm256_mul_ps(p, _mm256_castsi256_ps(bits)));
}

inline float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

/// Lane mask for a partial (rem in [1, 7]) vector: the first `rem` lanes
/// enabled. maskload/maskstore touch only enabled lanes, so partial tiles
/// never read or write past a tensor row.
inline __m256i TailMask(int rem) {
  alignas(32) static constexpr int32_t kMaskTable[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMaskTable + 8 - rem));
}

#endif  // UCAD_SIMD_HAVE_AVX2

// ---- Row GEMM bodies -------------------------------------------------------

#if UCAD_SIMD_HAVE_AVX2

/// One output row of out = a_row * b, register-tiled over the output
/// columns: each 8/16-wide tile accumulates across the full depth in ymm
/// registers and stores once, instead of the reference kernel's
/// read-modify-write of the output row at every depth step.
inline void MatMulRowAvx2(const float* arow, int k, const Tensor& b,
                          float post_scale, float* orow) {
  const int n = b.cols();
  const __m256 vscale = _mm256_set1_ps(post_scale);
  int j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      const __m256 av = _mm256_set1_ps(arow[p]);
      const float* brow = b.row(p) + j;
      acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
      acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8), acc1);
    }
    _mm256_storeu_ps(orow + j, _mm256_mul_ps(acc0, vscale));
    _mm256_storeu_ps(orow + j + 8, _mm256_mul_ps(acc1, vscale));
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                            _mm256_loadu_ps(b.row(p) + j), acc);
    }
    _mm256_storeu_ps(orow + j, _mm256_mul_ps(acc, vscale));
  }
  const int rem = n - j;
  if (rem > 0) {
    const __m256i mask = TailMask(rem);
    __m256 acc = _mm256_setzero_ps();
    for (int p = 0; p < k; ++p) {
      acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                            _mm256_maskload_ps(b.row(p) + j, mask), acc);
    }
    _mm256_maskstore_ps(orow + j, mask, _mm256_mul_ps(acc, vscale));
  }
}

#endif  // UCAD_SIMD_HAVE_AVX2

/// Generic register-tiled row GEMM; the fixed-width inner tile keeps the
/// accumulators in registers for any vector ISA the compiler targets.
inline void MatMulRowGeneric(const float* arow, int k, const Tensor& b,
                             float post_scale, float* orow) {
  const int n = b.cols();
  constexpr int kTile = 16;
  int j = 0;
  for (; j + kTile <= n; j += kTile) {
    float acc[kTile] = {0.0f};
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* __restrict__ brow = b.row(p) + j;
      for (int jj = 0; jj < kTile; ++jj) acc[jj] += av * brow[jj];
    }
    for (int jj = 0; jj < kTile; ++jj) orow[j + jj] = acc[jj] * post_scale;
  }
  if (j < n) {
    const int rem = n - j;
    float acc[kTile] = {0.0f};
    for (int p = 0; p < k; ++p) {
      const float av = arow[p];
      const float* __restrict__ brow = b.row(p) + j;
      for (int jj = 0; jj < rem; ++jj) acc[jj] += av * brow[jj];
    }
    for (int jj = 0; jj < rem; ++jj) orow[j + jj] = acc[jj] * post_scale;
  }
}

// ---- Softmax row bodies ----------------------------------------------------

inline void SoftmaxRowGeneric(float* o, const float* m, float scale, int n) {
  float max_v = -std::numeric_limits<float>::infinity();
  for (int c = 0; c < n; ++c) {
    o[c] = o[c] * scale + m[c];
    max_v = std::max(max_v, o[c]);
  }
  float sum = 0.0f;
  for (int c = 0; c < n; ++c) {
    const float e = Exp(o[c] - max_v);
    o[c] = e;
    sum += e;
  }
  const float inv = 1.0f / sum;
  for (int c = 0; c < n; ++c) o[c] *= inv;
}

#if UCAD_SIMD_HAVE_AVX2

inline void SoftmaxRowAvx2(float* o, const float* m, float scale, int n) {
  // Every pass is fully 8-wide: the ragged tail runs through masked
  // loads/stores instead of a scalar loop (at the hot path's L = 30 a
  // scalar tail would cost 6 libm-free but serial lanes on all 3 passes).
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 ninf = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  const int nv = n & ~7;
  const int rem = n - nv;
  const __m256i tmask = rem > 0 ? TailMask(rem) : _mm256_setzero_si256();
  const __m256 tmaskf = _mm256_castsi256_ps(tmask);
  __m256 vmax = ninf;
  for (int c = 0; c + 8 <= n; c += 8) {
    const __m256 v =
        _mm256_fmadd_ps(_mm256_loadu_ps(o + c), vscale, _mm256_loadu_ps(m + c));
    _mm256_storeu_ps(o + c, v);
    vmax = _mm256_max_ps(vmax, v);
  }
  if (rem > 0) {
    const __m256 v = _mm256_fmadd_ps(_mm256_maskload_ps(o + nv, tmask), vscale,
                                     _mm256_maskload_ps(m + nv, tmask));
    _mm256_maskstore_ps(o + nv, tmask, v);
    // Disabled lanes must not contaminate the max: blend them to -inf.
    vmax = _mm256_max_ps(vmax, _mm256_blendv_ps(ninf, v, tmaskf));
  }
  const float max_v = HorizontalMax(vmax);
  const __m256 vmaxb = _mm256_set1_ps(max_v);
  __m256 vsum = _mm256_setzero_ps();
  for (int c = 0; c + 8 <= n; c += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(o + c), vmaxb));
    _mm256_storeu_ps(o + c, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  float sum;
  if (rem > 0) {
    // Disabled lanes read 0 and exponentiate to garbage; zero them before
    // they can reach the sum or the store.
    __m256 e = Exp8(_mm256_sub_ps(_mm256_maskload_ps(o + nv, tmask), vmaxb));
    e = _mm256_and_ps(e, tmaskf);
    _mm256_maskstore_ps(o + nv, tmask, e);
    sum = HorizontalSum(_mm256_add_ps(vsum, e));
  } else {
    sum = HorizontalSum(vsum);
  }
  const __m256 vinv = _mm256_set1_ps(1.0f / sum);
  for (int c = 0; c + 8 <= n; c += 8) {
    _mm256_storeu_ps(o + c, _mm256_mul_ps(_mm256_loadu_ps(o + c), vinv));
  }
  if (rem > 0) {
    _mm256_maskstore_ps(
        o + nv, tmask,
        _mm256_mul_ps(_mm256_maskload_ps(o + nv, tmask), vinv));
  }
}

/// att-weighted sum of V rows into one output row: out[0:hd] =
/// sum_p arow[p] * vbase(p)[0:hd], 8-wide with a masked ragged tile. The
/// `row` callback maps p to that depth step's V row (the single-window and
/// batched layouts differ only in that base).
template <typename RowFn>
inline void AttnContextRowAvx2(const float* arow, int k, int hd, RowFn row,
                               float* out) {
  for (int j0 = 0; j0 < hd; j0 += 8) {
    const int jn = std::min(8, hd - j0);
    if (jn == 8) {
      __m256 acc = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                              _mm256_loadu_ps(row(p) + j0), acc);
      }
      _mm256_storeu_ps(out + j0, acc);
    } else {
      const __m256i tmask = TailMask(jn);
      __m256 acc = _mm256_setzero_ps();
      for (int p = 0; p < k; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                              _mm256_maskload_ps(row(p) + j0, tmask), acc);
      }
      _mm256_maskstore_ps(out + j0, tmask, acc);
    }
  }
}

#endif  // UCAD_SIMD_HAVE_AVX2

inline void SoftmaxRow(bool avx2, float* o, const float* m, float scale,
                       int n) {
#if UCAD_SIMD_HAVE_AVX2
  if (avx2) {
    SoftmaxRowAvx2(o, m, scale, n);
    return;
  }
#else
  (void)avx2;
#endif
  SoftmaxRowGeneric(o, m, scale, n);
}

// ---- LayerNorm row bodies --------------------------------------------------

inline void ResidualLayerNormRowGeneric(const float* xin, const float* rin,
                                        const float* vg, const float* vb,
                                        float eps, int n, float* o) {
  float sum = 0.0f;
  for (int c = 0; c < n; ++c) {
    o[c] = xin[c] + rin[c];
    sum += o[c];
  }
  const float mean = sum / static_cast<float>(n);
  float var = 0.0f;
  for (int c = 0; c < n; ++c) {
    const float d = o[c] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float istd = 1.0f / std::sqrt(var + eps);
  for (int c = 0; c < n; ++c) {
    o[c] = vg[c] * ((o[c] - mean) * istd) + vb[c];
  }
}

#if UCAD_SIMD_HAVE_AVX2

inline void ResidualLayerNormRowAvx2(const float* xin, const float* rin,
                                     const float* vg, const float* vb,
                                     float eps, int n, float* o) {
  __m256 vsum = _mm256_setzero_ps();
  int c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256 v =
        _mm256_add_ps(_mm256_loadu_ps(xin + c), _mm256_loadu_ps(rin + c));
    _mm256_storeu_ps(o + c, v);
    vsum = _mm256_add_ps(vsum, v);
  }
  float sum = HorizontalSum(vsum);
  for (; c < n; ++c) {
    o[c] = xin[c] + rin[c];
    sum += o[c];
  }
  const float mean = sum / static_cast<float>(n);
  const __m256 vmean = _mm256_set1_ps(mean);
  __m256 vvar = _mm256_setzero_ps();
  c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256 d = _mm256_sub_ps(_mm256_loadu_ps(o + c), vmean);
    vvar = _mm256_fmadd_ps(d, d, vvar);
  }
  float var = HorizontalSum(vvar);
  for (; c < n; ++c) {
    const float d = o[c] - mean;
    var += d * d;
  }
  var /= static_cast<float>(n);
  const float istd = 1.0f / std::sqrt(var + eps);
  const __m256 vistd = _mm256_set1_ps(istd);
  c = 0;
  for (; c + 8 <= n; c += 8) {
    const __m256 xh =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(o + c), vmean), vistd);
    _mm256_storeu_ps(
        o + c,
        _mm256_fmadd_ps(_mm256_loadu_ps(vg + c), xh, _mm256_loadu_ps(vb + c)));
  }
  for (; c < n; ++c) {
    o[c] = vg[c] * ((o[c] - mean) * istd) + vb[c];
  }
}

#endif  // UCAD_SIMD_HAVE_AVX2

}  // namespace

// ---- Public relaxed kernels ------------------------------------------------

void MatMulSlice(const Tensor& a, int acol0, int k, const Tensor& b, int row0,
                 int row1, float post_scale, Tensor* out) {
  const bool avx2 = UseAvx2();
  RowParallelFor(row0, row1, k * b.cols(), [&, avx2](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* arow = a.row(static_cast<int>(r)) + acol0;
      float* orow = out->row(static_cast<int>(r));
#if UCAD_SIMD_HAVE_AVX2
      if (avx2) {
        MatMulRowAvx2(arow, k, b, post_scale, orow);
        continue;
      }
#endif
      MatMulRowGeneric(arow, k, b, post_scale, orow);
    }
  });
}

void MaskedSoftmax(Tensor* scores, float scale, const Tensor& mask, int row0) {
  const bool avx2 = UseAvx2();
  const int n = scores->cols();
  RowParallelFor(row0, scores->rows(), n, [&, avx2](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      SoftmaxRow(avx2, scores->row(r), mask.row(r), scale, n);
    }
  });
}

void ResidualLayerNorm(const Tensor& x, const Tensor& res, const Tensor& gain,
                       const Tensor& bias, float eps, Tensor* out, int row0,
                       int row1) {
  const bool avx2 = UseAvx2();
  const int n = x.cols();
  const float* vg = gain.row(0);
  const float* vb = bias.row(0);
  RowParallelFor(row0, row1, n, [&, avx2](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
#if UCAD_SIMD_HAVE_AVX2
      if (avx2) {
        ResidualLayerNormRowAvx2(x.row(r), res.row(r), vg, vb, eps, n,
                                 out->row(r));
        continue;
      }
#endif
      ResidualLayerNormRowGeneric(x.row(r), res.row(r), vg, vb, eps, n,
                                  out->row(r));
    }
  });
}

void BiasRelu(Tensor* x, const Tensor& bias, int row0, int row1) {
  const int n = x->cols();
  const float* vb = bias.row(0);
  RowParallelFor(row0, row1, n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      float* o = x->row(static_cast<int>(ri));
      for (int c = 0; c < n; ++c) o[c] = std::max(0.0f, o[c] + vb[c]);
    }
  });
}

void BiasAdd(Tensor* x, const Tensor& bias, int row0, int row1) {
  const int n = x->cols();
  const float* vb = bias.row(0);
  RowParallelFor(row0, row1, n, [&](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      float* o = x->row(static_cast<int>(ri));
      for (int c = 0; c < n; ++c) o[c] += vb[c];
    }
  });
}

void AttnContext(const Tensor& att, int row0, const Tensor& qkv, int vcol0,
                 int hd, int ccol0, Tensor* concat) {
  const bool avx2 = UseAvx2();
  const int k = att.cols();
  constexpr int kMaxHd = 64;
  UCAD_DCHECK(hd <= kMaxHd);
  RowParallelFor(row0, att.rows(), k * hd, [&, avx2](int64_t r0, int64_t r1) {
    for (int64_t ri = r0; ri < r1; ++ri) {
      const int r = static_cast<int>(ri);
      const float* arow = att.row(r);
      float* crow = concat->row(r) + ccol0;
#if UCAD_SIMD_HAVE_AVX2
      if (avx2) {
        AttnContextRowAvx2(arow, k, hd, [&](int p) { return qkv.row(p) + vcol0; },
                           crow);
        continue;
      }
#endif
      float acc[kMaxHd] = {0.0f};
      for (int p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* vrow = qkv.row(p) + vcol0;
        for (int d = 0; d < hd; ++d) acc[d] += av * vrow[d];
      }
      for (int d = 0; d < hd; ++d) crow[d] = acc[d];
    }
  });
}

void BatchedAttnHead(const Tensor& qkv, int num_windows, int L,
                     const int* rows_from, int qoff, int hd, const Tensor& kt,
                     float scale, const Tensor& mask, int voff, int ccol0,
                     Tensor* scores, Tensor* concat) {
  const bool avx2 = UseAvx2();
  const int total = num_windows * L;
  constexpr int kMaxHd = 64;
  UCAD_DCHECK(hd <= kMaxHd);
  RowParallelFor(0, total, L * (2 * hd + 2), [&, avx2](int64_t r0, int64_t r1) {
    for (int64_t gr = r0; gr < r1; ++gr) {
      const int r = static_cast<int>(gr);
      const int b = r / L;
      const int i = r - b * L;
      if (rows_from != nullptr && i < rows_from[b]) continue;
      float* o = scores->row(r);
      const float* q = qkv.row(r) + qoff;
      // Scores row: register-tiled dot over the head depth against this
      // window's kt rows. The kt block for window b starts at row b*hd, so
      // a column-contiguous view of it behaves exactly like the b matrix of
      // MatMulSlice restricted to those rows — done inline here because the
      // row base moves per window.
      {
#if UCAD_SIMD_HAVE_AVX2
        if (avx2) {
          int j = 0;
          for (; j + 8 <= L; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            for (int p = 0; p < hd; ++p) {
              acc = _mm256_fmadd_ps(_mm256_set1_ps(q[p]),
                                    _mm256_loadu_ps(kt.row(b * hd + p) + j),
                                    acc);
            }
            _mm256_storeu_ps(o + j, acc);
          }
          const int rem = L - j;
          if (rem > 0) {
            const __m256i tmask = TailMask(rem);
            __m256 acc = _mm256_setzero_ps();
            for (int p = 0; p < hd; ++p) {
              acc = _mm256_fmadd_ps(
                  _mm256_set1_ps(q[p]),
                  _mm256_maskload_ps(kt.row(b * hd + p) + j, tmask), acc);
            }
            _mm256_maskstore_ps(o + j, tmask, acc);
          }
        } else {
#endif
          constexpr int kTile = 16;
          int j = 0;
          for (; j < L; j += kTile) {
            const int jn = std::min(kTile, L - j);
            float acc[kTile] = {0.0f};
            for (int p = 0; p < hd; ++p) {
              const float av = q[p];
              const float* __restrict__ brow = kt.row(b * hd + p) + j;
              for (int jj = 0; jj < jn; ++jj) acc[jj] += av * brow[jj];
            }
            for (int jj = 0; jj < jn; ++jj) o[j + jj] = acc[jj];
          }
#if UCAD_SIMD_HAVE_AVX2
        }
#endif
      }
      SoftmaxRow(avx2, o, mask.row(i), scale, L);
      const int vbase = b * L;
      float* crow = concat->row(r) + ccol0;
#if UCAD_SIMD_HAVE_AVX2
      if (avx2) {
        AttnContextRowAvx2(
            o, L, hd, [&](int p) { return qkv.row(vbase + p) + voff; }, crow);
        continue;
      }
#endif
      float acc[kMaxHd] = {0.0f};
      for (int p = 0; p < L; ++p) {
        const float av = o[p];
        const float* vrow = qkv.row(vbase + p) + voff;
        for (int d = 0; d < hd; ++d) acc[d] += av * vrow[d];
      }
      for (int d = 0; d < hd; ++d) crow[d] = acc[d];
    }
  });
}

}  // namespace fast

}  // namespace ucad::nn
