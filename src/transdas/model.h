#ifndef UCAD_TRANSDAS_MODEL_H_
#define UCAD_TRANSDAS_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "nn/infer.h"
#include "nn/module.h"
#include "nn/tape.h"
#include "transdas/config.h"
#include "util/rng.h"

namespace ucad::transdas {

/// The Trans-DAS network (§4): an order-free embedding layer followed by B
/// stacked attention blocks, each a multi-head self-attention layer with
/// the skip-next bidirectional mask plus a point-wise feed-forward layer,
/// both wrapped in residual + layer-norm + dropout regularization (Eq. 5).
///
/// The same class also instantiates the ablation variants of Table 3 via
/// TransDasConfig (position embedding on/off, mask mode).
class TransDasModel {
 public:
  TransDasModel(const TransDasConfig& config, util::Rng* rng);

  TransDasModel(const TransDasModel&) = delete;
  TransDasModel& operator=(const TransDasModel&) = delete;

  /// Builds the forward graph for one window of `config.window` keys and
  /// returns the last block's output O^(B), a [L x h] node. When
  /// `first_block_attention` is non-null it receives the VarIds of the
  /// first block's per-head attention matrices ([L x L] each, Figure 6).
  nn::VarId Forward(nn::Tape* tape, const std::vector<int>& window,
                    bool training, util::Rng* dropout_rng,
                    std::vector<nn::VarId>* first_block_attention = nullptr);

  /// Similarity logits of each output position against every key:
  /// logits = O M^T, a [L x vocab] node (Eq. 10 before the sigmoid).
  nn::VarId AllKeyLogits(nn::Tape* tape, nn::VarId outputs);

  /// Tape-free forward for the detection hot path: same math as
  /// Forward(training=false) through the fused kernels in nn/infer, using
  /// `ctx`'s workspace instead of tape nodes — no graph recording, no
  /// gradient bookkeeping, zero allocations at steady state. The returned
  /// [L x h] tensor lives in the workspace and is valid until the next
  /// forward on the same context. Bitwise-identical to the tape path on
  /// every computed row (docs/INFERENCE.md); the tape path remains the
  /// training/gradcheck reference.
  ///
  /// `rows_from` restricts the final block's row-wise tail (attention
  /// query rows, FFN, layer norms) to output rows >= rows_from: every
  /// earlier block and the final block's keys/values still see the whole
  /// window, so computed rows match the full forward bitwise, but rows
  /// below `rows_from` of the result are unspecified. Callers that only
  /// score a tail of the window (the detector's clamped spans and the
  /// streaming scorer) skip the rest of the last block's work.
  const nn::Tensor& ForwardInference(nn::InferenceContext* ctx,
                                     const std::vector<int>& window,
                                     int rows_from = 0);

  /// Multi-window batched forward: `keys` holds `rows_from.size()` windows
  /// of L keys concatenated (windows may come from different sessions —
  /// rows never mix across windows, attention is block-diagonal), and the
  /// per-block projections run as single [B*L x ...] GEMMs through the
  /// context's batch workspace. The returned [capacity*L x h] tensor's row
  /// b*L + i is bitwise ForwardInference(window b, rows_from[b])'s row i for
  /// i >= rows_from[b] (rows below each window's cut, and the rows of
  /// unused slots beyond B, are unspecified). `capacity` (>= B) fixes the
  /// buffer shapes so partially filled batches reuse the same workspace
  /// slots. The attention-capture hook is not supported on this path.
  const nn::Tensor& ForwardInferenceBatched(nn::InferenceContext* ctx,
                                            const std::vector<int>& keys,
                                            const std::vector<int>& rows_from,
                                            int capacity);

  /// Tape-free Eq. 10 logits ([L x vocab]) for ForwardInference outputs,
  /// computed for rows >= rows_from (earlier rows unspecified). The
  /// transposed embedding table is cached on the context and invalidated
  /// by weight_version().
  const nn::Tensor& AllKeyLogitsInference(nn::InferenceContext* ctx,
                                          const nn::Tensor& outputs,
                                          int rows_from = 0);

  /// Batched Eq. 10 logits ([capacity*L x vocab]) for
  /// ForwardInferenceBatched outputs: row b*L + i computed exactly when
  /// i >= rows_from[b], bitwise equal to the single-window kernel's row.
  const nn::Tensor& AllKeyLogitsInferenceBatched(
      nn::InferenceContext* ctx, const nn::Tensor& outputs,
      const std::vector<int>& rows_from, int capacity);

  /// All trainable parameters.
  std::vector<nn::Parameter*> Params();

  /// Pins the k0 embedding row back to zero; call after optimizer steps.
  /// Also bumps weight_version() so inference-context weight caches rebuild.
  void FreezePaddingRow() {
    embedding_->FreezePaddingRow();
    MarkWeightsUpdated();
  }

  /// Monotonic counter bumped on every weight mutation; keys the derived
  /// weight caches held by InferenceContexts.
  uint64_t weight_version() const { return weight_version_; }

  /// Call after mutating parameters outside the optimizer path (e.g.
  /// deserialization) so cached derived weights are invalidated.
  void MarkWeightsUpdated() { ++weight_version_; }

  const TransDasConfig& config() const { return config_; }
  nn::Embedding& embedding() { return *embedding_; }

  /// Test seam for the weight-version staleness contract: invoked once per
  /// block inside every inference forward, right after that block's derived
  /// weights were resolved, with (block index, the weight-version snapshot
  /// the forward pinned at entry). Tests use it to bump weight_version()
  /// mid-forward and assert the forward never mixes versions.
  void SetBlockWeightsHookForTest(std::function<void(int, uint64_t)> hook) {
    on_block_weights_for_test_ = std::move(hook);
  }

 private:
  struct Head {
    nn::Parameter wq;  // [h x h/m]
    nn::Parameter wk;
    nn::Parameter wv;
  };
  struct Block {
    std::vector<Head> heads;
    nn::Parameter wo;  // [h x h]
    std::unique_ptr<nn::LayerNorm> ln_attention;
    nn::Parameter w1;  // FFN [h x h]
    nn::Parameter b1;  // [1 x h]
    nn::Parameter w2;  // [h x h]
    nn::Parameter b2;  // [1 x h]
    std::unique_ptr<nn::LayerNorm> ln_ffn;
  };

  /// The additive attention mask for the configured mode ([L x L] with 0 /
  /// -inf entries), built once.
  nn::Tensor BuildMask() const;

  /// The packed per-block Q|K|V projection ([h x packed_cols]) resolved
  /// through the context's derived-weight cache at version `wv` — the
  /// weight-version snapshot a forward pins at entry, so one forward can
  /// never mix projection versions even if MarkWeightsUpdated lands
  /// mid-pass.
  const nn::Tensor& PackedQkv(nn::InferenceContext* ctx, size_t block_index,
                              uint64_t wv, int packed_cols);

  TransDasConfig config_;
  std::unique_ptr<nn::Embedding> embedding_;
  std::unique_ptr<nn::Parameter> position_embedding_;  // null unless enabled
  std::vector<Block> blocks_;
  nn::Tensor mask_;
  uint64_t weight_version_ = 1;
  std::function<void(int, uint64_t)> on_block_weights_for_test_;
};

}  // namespace ucad::transdas

#endif  // UCAD_TRANSDAS_MODEL_H_
