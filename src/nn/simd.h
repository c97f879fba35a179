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
// The tier is held on the nn::InferenceContext a forward runs on (the
// detector creates its contexts with DetectorOptions::kernel_tier) and
// passed to each arithmetic kernel as an argument, so row partitions
// fanned out through the pool inherit it via the captured lambda.
enum class KernelTier {
  kReference = 0,
  kVectorized = 1,
};

/// Stable lowercase name ("reference", "vectorized").
const char* KernelTierName(KernelTier tier);

/// Parses a KernelTierName; returns false (and leaves *out alone) on junk.
bool ParseKernelTier(const std::string& name, KernelTier* out);

// ---- Relaxed (vectorized-tier) kernel bodies -------------------------------
//
// Called by the infer.cc kernels when their tier argument is not kReference.
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

void AttnContext(const Tensor& att, int row0, const Tensor& qkv, int vcol0,
                 int hd, int ccol0, Tensor* concat);

}  // namespace fast

}  // namespace ucad::nn

#endif  // UCAD_NN_SIMD_H_
