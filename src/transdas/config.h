#ifndef UCAD_TRANSDAS_CONFIG_H_
#define UCAD_TRANSDAS_CONFIG_H_

#include <cstdint>

#include "nn/simd.h"

namespace ucad::transdas {

/// Attention masking schemes. Trans-DAS's contribution is
/// kBidirectionalSkipNext; the others exist for the Table 3 ablation.
enum class MaskMode {
  /// No mask (original transformer encoder): the prediction of an operation
  /// is influenced by the operation itself.
  kNone,
  /// Future mask (original transformer decoder): output i attends only to
  /// inputs j <= i — unidirectional context.
  kCausal,
  /// Trans-DAS: output i attends to every input except j == i+1 (the
  /// operation being predicted), i.e. bidirectional context minus self.
  kBidirectionalSkipNext,
};

/// Hyper-parameters of a Trans-DAS (or ablation-variant) model. Defaults
/// follow the paper's Scenario-I setting (§6.1): L=30, g=0.5, h=10, m=2,
/// B=6.
struct TransDasConfig {
  /// Vocabulary size including key k0 (padding/unknown).
  int vocab_size = 0;
  /// Sliding-window length L (the input sequence size).
  int window = 30;
  /// Hidden dimension h.
  int hidden_dim = 10;
  /// Number of attention heads m (must divide hidden_dim).
  int num_heads = 2;
  /// Number of stacked attention blocks B.
  int num_blocks = 6;
  /// Dropout rate used in the regularization of Eq. 5.
  float dropout = 0.1f;

  // --- Ablation switches (Table 3) ---
  /// Trans-DAS removes the position encoding; the base transformer keeps a
  /// learnable one.
  bool use_position_embedding = false;
  /// Trans-DAS uses kBidirectionalSkipNext.
  MaskMode mask_mode = MaskMode::kBidirectionalSkipNext;

  /// Returns the base-transformer variant of this config.
  TransDasConfig BaseTransformer() const {
    TransDasConfig c = *this;
    c.use_position_embedding = true;
    c.mask_mode = MaskMode::kCausal;
    return c;
  }
};

/// Training options (§5.2). The L2 term of the loss (Eq. 11) is realized as
/// weight decay, which is equivalent for SGD-family updates.
struct TrainOptions {
  int epochs = 10;
  float learning_rate = 3e-3f;
  /// Triplet-loss margin g.
  float margin = 0.5f;
  /// Negative samples per window (keys never appearing in the session).
  int negative_samples = 1;
  /// L2 coefficient (the ||θ||₂ term).
  float weight_decay = 1e-4f;
  /// Window stride when slicing sessions into training windows.
  int window_stride = 1;
  /// Global gradient-norm clip (0 disables).
  float grad_clip = 5.0f;
  /// Use the triplet component (Trans-DAS objective); when false only the
  /// one-class cross-entropy is used (Table 3 base objective).
  bool use_triplet = true;
  /// Cosine learning-rate decay to `lr_floor * learning_rate` over the
  /// epochs (disabled when false).
  bool cosine_decay = true;
  float lr_floor = 0.1f;
  /// Seed for shuffling, dropout, and negative sampling.
  uint64_t seed = 7;
  /// Print per-epoch progress.
  bool verbose = false;
  /// Windows per optimizer step. 1 reproduces the paper's per-window SGD
  /// walk exactly (the historical behavior). Above 1 the trainer computes
  /// the windows' gradients data-parallel across the global thread pool
  /// (per-window tape + gradient buffer, per-window RNG stream split from
  /// `seed`), merges them with a fixed-order tree reduction, and applies
  /// one Adam step on the mean gradient — results are identical at any
  /// UCAD_THREADS value.
  int batch_size = 1;
};

/// Online detection options (§5.3).
struct DetectorOptions {
  /// An operation is normal when its similarity to the predicted contextual
  /// intent ranks in the top-p over all keys.
  int top_p = 5;
  /// Batched mode scores a full window of operations per forward pass
  /// (training-consistent bidirectional context; ~L× faster). Non-batched
  /// mode reproduces the paper's per-operation "preceding sequence" scoring
  /// exactly.
  bool batched = true;
  /// Kernel tier of the inference engine (docs/INFERENCE.md "Kernel
  /// tiers"). kReference (default) keeps the bitwise tape-parity contract;
  /// kVectorized runs the runtime-dispatched relaxed SIMD kernels
  /// (verdict-identity contract). Composes with batched.
  nn::KernelTier kernel_tier = nn::KernelTier::kReference;
};

}  // namespace ucad::transdas

#endif  // UCAD_TRANSDAS_CONFIG_H_
