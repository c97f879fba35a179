#ifndef UCAD_NN_SIMD_H_
#define UCAD_NN_SIMD_H_

#include <string>

#include "nn/tensor.h"
#include "util/cpu_features.h"

namespace ucad::nn {

// ---- Kernel tiers ----------------------------------------------------------
//
// The inference kernels in infer.cc run under one of two tiers
// (docs/INFERENCE.md "Kernel tiers"):
//
//   kReference   bitwise-identical to the autograd tape: the PR 5 contract.
//   kVectorized  relaxed rounding: runtime-dispatched (AVX2/FMA, NEON via
//                compiler lowering, scalar fallback) register-tiled GEMMs,
//                polynomial exp softmax, float (not double) accumulation in
//                softmax sums and LayerNorm moments. Contract: verdict
//                identity (ranks/flags), not logits identity.
//
// The tier is a per-thread ambient (ScopedKernelTier below) set by the
// detector's forward sites from DetectorOptions::kernel_tier; kernels read
// it once at entry on the calling thread, so row partitions fanned out
// through the pool inherit the decision via the captured lambda.
enum class KernelTier {
  kReference = 0,
  kVectorized = 1,
};

/// Stable lowercase name ("reference", "vectorized").
const char* KernelTierName(KernelTier tier);

/// Parses a KernelTierName; returns false (and leaves *out alone) on junk.
bool ParseKernelTier(const std::string& name, KernelTier* out);

/// The calling thread's ambient tier (kReference unless a ScopedKernelTier
/// is live — training and tape paths never see a non-reference tier).
KernelTier CurrentKernelTier();

/// RAII tier scope for the current thread. Apply at the per-thread forward
/// site (inside pool lambdas), not at session entry: util::ParallelFor runs
/// its body on pool threads whose ambient tier would otherwise stay
/// kReference.
class ScopedKernelTier {
 public:
  explicit ScopedKernelTier(KernelTier tier);
  ~ScopedKernelTier();
  ScopedKernelTier(const ScopedKernelTier&) = delete;
  ScopedKernelTier& operator=(const ScopedKernelTier&) = delete;

 private:
  KernelTier saved_;
};

// ---- Relaxed (vectorized-tier) kernel bodies -------------------------------
//
// Called by the infer.cc kernels when the ambient tier is not kReference.
// Each dispatches internally on util::ActiveSimdIsa(): hand-written
// AVX2+FMA bodies where the build enables them, otherwise a register-tiled
// generic body the compiler lowers to the target's vector ISA (NEON on
// aarch64). Same row-partition parallelism gates as the reference kernels.
namespace fast {

/// Polynomial expf (Cephes-style range reduction, degree-5 minimax), the
/// scalar twin of the 8-lane AVX2 body the softmax uses. |rel err| < 3e-7
/// over the softmax's operating range (inputs <= 0). Inputs below the
/// smallest normal result's exponent (the -1e9 attention mask) return
/// exactly 0, so masked softmax entries never go subnormal. Exposed for the
/// error bound tests.
float Exp(float x);

void MatMulSlice(const Tensor& a, int acol0, int k, const Tensor& b, int row0,
                 int row1, float post_scale, Tensor* out);

void MaskedSoftmax(Tensor* scores, float scale, const Tensor& mask, int row0);

void ResidualLayerNorm(const Tensor& x, const Tensor& res, const Tensor& gain,
                       const Tensor& bias, float eps, Tensor* out, int row0,
                       int row1);

void BiasRelu(Tensor* x, const Tensor& bias, int row0, int row1);

void BiasAdd(Tensor* x, const Tensor& bias, int row0, int row1);

void AttnContext(const Tensor& att, int row0, const Tensor& qkv, int vcol0,
                 int hd, int ccol0, Tensor* concat);

/// Relaxed twin of BatchedAttentionHeadKernel's row pipeline (same row
/// mapping and rows_from semantics; scores/softmax/context per row through
/// the relaxed bodies above).
void BatchedAttnHead(const Tensor& qkv, int num_windows, int L,
                     const int* rows_from, int qoff, int hd, const Tensor& kt,
                     float scale, const Tensor& mask, int voff, int ccol0,
                     Tensor* scores, Tensor* concat);

}  // namespace fast

}  // namespace ucad::nn

#endif  // UCAD_NN_SIMD_H_
