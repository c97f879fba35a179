#include "transdas/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/flight.h"
#include "sql/vocabulary.h"
#include "util/logging.h"

namespace ucad::transdas {

namespace {
constexpr float kMaskValue = -1e9f;

/// Merges each window's owned final-block rows ([b*L + rows_from[b],
/// (b+1)*L) in the stacked row space) into maximal contiguous ranges, so
/// adjacent full windows run their row-wise tails as one kernel call.
std::vector<std::pair<int, int>> OwnedRowRanges(
    const std::vector<int>& rows_from, int L) {
  std::vector<std::pair<int, int>> ranges;
  ranges.reserve(rows_from.size());
  for (size_t b = 0; b < rows_from.size(); ++b) {
    const int start = static_cast<int>(b) * L + rows_from[b];
    const int end = (static_cast<int>(b) + 1) * L;
    if (!ranges.empty() && ranges.back().second == start) {
      ranges.back().second = end;
    } else {
      ranges.emplace_back(start, end);
    }
  }
  return ranges;
}
}  // namespace

TransDasModel::TransDasModel(const TransDasConfig& config, util::Rng* rng)
    : config_(config) {
  UCAD_CHECK_GT(config_.vocab_size, 1);
  UCAD_CHECK_GT(config_.window, 0);
  UCAD_CHECK_GT(config_.hidden_dim, 0);
  UCAD_CHECK_GT(config_.num_heads, 0);
  UCAD_CHECK_EQ(config_.hidden_dim % config_.num_heads, 0)
      << "num_heads must divide hidden_dim";
  UCAD_CHECK_GT(config_.num_blocks, 0);

  embedding_ = std::make_unique<nn::Embedding>(
      config_.vocab_size, config_.hidden_dim, rng, sql::kPaddingKey);
  if (config_.use_position_embedding) {
    position_embedding_ = std::make_unique<nn::Parameter>(
        nn::Tensor::Randn(config_.window, config_.hidden_dim, 0.1f, rng));
  }
  const int h = config_.hidden_dim;
  const int head_dim = h / config_.num_heads;
  blocks_.reserve(config_.num_blocks);
  for (int b = 0; b < config_.num_blocks; ++b) {
    Block block;
    block.heads.reserve(config_.num_heads);
    for (int m = 0; m < config_.num_heads; ++m) {
      block.heads.push_back(
          Head{nn::Parameter(nn::Tensor::XavierUniform(h, head_dim, rng)),
               nn::Parameter(nn::Tensor::XavierUniform(h, head_dim, rng)),
               nn::Parameter(nn::Tensor::XavierUniform(h, head_dim, rng))});
    }
    block.wo = nn::Parameter(nn::Tensor::XavierUniform(h, h, rng));
    block.ln_attention = std::make_unique<nn::LayerNorm>(h);
    block.w1 = nn::Parameter(nn::Tensor::XavierUniform(h, h, rng));
    block.b1 = nn::Parameter(nn::Tensor::Zeros(1, h));
    block.w2 = nn::Parameter(nn::Tensor::XavierUniform(h, h, rng));
    block.b2 = nn::Parameter(nn::Tensor::Zeros(1, h));
    block.ln_ffn = std::make_unique<nn::LayerNorm>(h);
    blocks_.push_back(std::move(block));
  }
  mask_ = BuildMask();
}

nn::Tensor TransDasModel::BuildMask() const {
  const int L = config_.window;
  nn::Tensor mask(L, L);
  switch (config_.mask_mode) {
    case MaskMode::kNone:
      break;
    case MaskMode::kCausal:
      for (int i = 0; i < L; ++i) {
        for (int j = i + 1; j < L; ++j) mask.at(i, j) = kMaskValue;
      }
      break;
    case MaskMode::kBidirectionalSkipNext:
      // Disconnect Q_i from K_{i+1}: the output at position i must not see
      // the operation it predicts (input i+1); everything else stays
      // bidirectionally connected.
      for (int i = 0; i + 1 < L; ++i) mask.at(i, i + 1) = kMaskValue;
      break;
  }
  return mask;
}

nn::VarId TransDasModel::Forward(
    nn::Tape* tape, const std::vector<int>& window, bool training,
    util::Rng* dropout_rng, std::vector<nn::VarId>* first_block_attention) {
  UCAD_CHECK_EQ(static_cast<int>(window.size()), config_.window);
  nn::VarId x = embedding_->Forward(tape, window);
  if (position_embedding_ != nullptr) {
    x = tape->Add(x, tape->Param(position_embedding_.get()));
  }
  const float scale = 1.0f / std::sqrt(static_cast<float>(config_.hidden_dim));
  const nn::VarId mask = tape->Constant(mask_);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    // Multi-head attention with masking.
    std::vector<nn::VarId> head_outputs;
    head_outputs.reserve(block.heads.size());
    for (Head& head : block.heads) {
      const nn::VarId q = tape->MatMul(x, tape->Param(&head.wq));
      const nn::VarId k = tape->MatMul(x, tape->Param(&head.wk));
      const nn::VarId v = tape->MatMul(x, tape->Param(&head.wv));
      nn::VarId scores =
          tape->Scale(tape->MatMul(q, tape->Transpose(k)), scale);
      scores = tape->Add(scores, mask);
      const nn::VarId attention = tape->SoftmaxRows(scores);
      if (b == 0 && first_block_attention != nullptr) {
        first_block_attention->push_back(attention);
      }
      head_outputs.push_back(tape->MatMul(attention, v));
    }
    nn::VarId mh =
        tape->MatMul(tape->ConcatCols(head_outputs), tape->Param(&block.wo));
    mh = tape->Dropout(mh, config_.dropout, training, dropout_rng);
    x = block.ln_attention->Forward(tape, tape->Add(x, mh));
    // Point-wise feed-forward (Eq. 7) with the same regularization.
    nn::VarId ff = tape->Relu(tape->AddRowVector(
        tape->MatMul(x, tape->Param(&block.w1)), tape->Param(&block.b1)));
    ff = tape->AddRowVector(tape->MatMul(ff, tape->Param(&block.w2)),
                            tape->Param(&block.b2));
    ff = tape->Dropout(ff, config_.dropout, training, dropout_rng);
    x = block.ln_ffn->Forward(tape, tape->Add(x, ff));
  }
  return x;
}

nn::VarId TransDasModel::AllKeyLogits(nn::Tape* tape, nn::VarId outputs) {
  return tape->MatMul(outputs, tape->Transpose(embedding_->Table(tape)));
}

const nn::Tensor& TransDasModel::PackedQkv(nn::InferenceContext* ctx,
                                           size_t block_index, uint64_t wv,
                                           int packed_cols) {
  // All heads' Q|K|V projections as one packed [h x 3h] matrix: one wide
  // matmul instead of 3m narrow ones. Column j of the packed matrix is a
  // column of some head's weight, so each output element's accumulation
  // chain is exactly the per-head MatMul's. The column count is rounded
  // up to a vector-friendly multiple of 8 with zero columns — the pad
  // outputs are never read, and real columns are untouched by them.
  Block& block = blocks_[block_index];
  return ctx->CachedWeight(
      &block, wv, config_.hidden_dim, packed_cols,
      [this, &block](nn::Tensor* out) {
        out->SetZero();
        const int hd = config_.hidden_dim / config_.num_heads;
        for (size_t hi = 0; hi < block.heads.size(); ++hi) {
          const Head& head = block.heads[hi];
          for (int r = 0; r < out->rows(); ++r) {
            float* orow = out->row(r);
            const int off = static_cast<int>(hi) * hd;
            std::memcpy(orow + off, head.wq.value().row(r),
                        static_cast<size_t>(hd) * sizeof(float));
            std::memcpy(orow + config_.hidden_dim + off,
                        head.wk.value().row(r),
                        static_cast<size_t>(hd) * sizeof(float));
            std::memcpy(orow + 2 * config_.hidden_dim + off,
                        head.wv.value().row(r),
                        static_cast<size_t>(hd) * sizeof(float));
          }
        }
      });
}

const nn::Tensor& TransDasModel::ForwardInference(
    nn::InferenceContext* ctx, const std::vector<int>& window, int rows_from) {
  UCAD_CHECK_EQ(static_cast<int>(window.size()), config_.window);
  nn::Workspace& ws = ctx->workspace();
  ws.BeginFrame();
  const int L = config_.window;
  const int h = config_.hidden_dim;
  const int m = config_.num_heads;
  const int head_dim = h / m;
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  UCAD_DCHECK(rows_from >= 0 && rows_from < L);
  // One forward pins one weight version: every derived-weight lookup below
  // resolves against this snapshot, so a MarkWeightsUpdated landing between
  // a batch's pack and flush can never mix projection versions within the
  // pass — the bump takes effect on the next forward.
  const uint64_t wv = weight_version_;
  const int packed_cols = (3 * h + 7) / 8 * 8;

  nn::Tensor* x = ws.Acquire(L, h);
  nn::GatherRowsKernel(embedding_->table().value(), window, x);
  if (position_embedding_ != nullptr) {
    x->AddInPlace(position_embedding_->value());
  }
  const nn::Tensor* xin = x;
  obs::FlightStageBoundary(obs::FlightStage::kEmbed);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    // Attention output rows feed later blocks through every position, so
    // only the final block may restrict its query rows; its keys/values
    // (and every earlier block) still cover the whole window.
    const int r0 = b + 1 == blocks_.size() ? rows_from : 0;
    const nn::Tensor& packed = PackedQkv(ctx, b, wv, packed_cols);
    if (on_block_weights_for_test_) {
      on_block_weights_for_test_(static_cast<int>(b), wv);
    }
    nn::Tensor* qkv = ws.Acquire(L, packed_cols);
    nn::MatMulSliceKernel(*xin, 0, h, packed, 0, qkv);
    // Multi-head attention with masking, one fused softmax per head; each
    // head's context lands directly in its concat column block.
    nn::Tensor* concat = ws.Acquire(L, h);
    for (int hi = 0; hi < m; ++hi) {
      const int qoff = hi * head_dim;
      const int koff = h + hi * head_dim;
      const int voff = 2 * h + hi * head_dim;
      nn::Tensor* kt = ws.Acquire(head_dim, L);
      nn::TransposeSliceKernel(*qkv, koff, head_dim, kt);
      nn::Tensor* scores = ws.Acquire(L, L);
      // Scale folded into the matmul's epilogue pass; the softmax then sees
      // pre-scaled scores (scale = 1 skips its identity pass).
      nn::MatMulSliceKernel(*qkv, qoff, head_dim, *kt, r0, scores, scale);
      nn::MaskedSoftmaxKernel(scores, 1.0f, mask_, r0);
      if (b + 1 == blocks_.size() && ctx->attention_capture_row() >= 0) {
        // Attribution hook: hand the armed output row's post-softmax
        // attention weights to the context. A read of already-stored
        // values, so capture cannot perturb the computed logits.
        const int cap = ctx->attention_capture_row();
        UCAD_DCHECK(cap >= r0 && cap < L);
        ctx->RecordAttentionRow(static_cast<size_t>(hi), scores->row(cap), L);
      }
      nn::AttnContextKernel(*scores, r0, *qkv, voff, head_dim, qoff, concat);
    }
    nn::Tensor* mh = ws.Acquire(L, h);
    nn::MatMulSliceKernel(*concat, 0, h, block.wo.value(), r0, mh);
    // Dropout is identity outside training; fold the residual into the norm.
    nn::Tensor* ln1 = ws.Acquire(L, h);
    nn::ResidualLayerNormKernel(*xin, *mh, block.ln_attention->gain().value(),
                                block.ln_attention->bias().value(), 1e-5f, ln1,
                                r0);
    xin = ln1;
    obs::FlightStageBoundary(obs::FlightStage::kAttention);
    // Point-wise feed-forward (Eq. 7): bias+relu and bias fused in place.
    nn::Tensor* ff = ws.Acquire(L, h);
    nn::MatMulSliceKernel(*xin, 0, h, block.w1.value(), r0, ff);
    nn::BiasReluKernel(ff, block.b1.value(), r0);
    nn::Tensor* ff2 = ws.Acquire(L, h);
    nn::MatMulSliceKernel(*ff, 0, h, block.w2.value(), r0, ff2);
    nn::BiasAddKernel(ff2, block.b2.value(), r0);
    nn::Tensor* ln2 = ws.Acquire(L, h);
    nn::ResidualLayerNormKernel(*xin, *ff2, block.ln_ffn->gain().value(),
                                block.ln_ffn->bias().value(), 1e-5f, ln2, r0);
    xin = ln2;
    obs::FlightStageBoundary(obs::FlightStage::kFfn);
  }
  ctx->NoteForward(nn::CurrentKernelTier());
  return *xin;
}

const nn::Tensor& TransDasModel::ForwardInferenceBatched(
    nn::InferenceContext* ctx, const std::vector<int>& keys,
    const std::vector<int>& rows_from, int capacity) {
  const int L = config_.window;
  const int h = config_.hidden_dim;
  const int m = config_.num_heads;
  const int head_dim = h / m;
  const int B = static_cast<int>(rows_from.size());
  UCAD_CHECK_GT(B, 0);
  UCAD_CHECK_GE(capacity, B);
  UCAD_CHECK_EQ(static_cast<int>(keys.size()), B * L);
  // The capture hook is a single-window contract; batched scoring never
  // arms it (attribution re-derives verdicts through ForwardInference).
  UCAD_DCHECK(ctx->attention_capture_row() < 0);
  const float scale = 1.0f / std::sqrt(static_cast<float>(h));
  const uint64_t wv = weight_version_;
  const int packed_cols = (3 * h + 7) / 8 * 8;
  const int total = B * L;
  const int cap_rows = capacity * L;
  // The dedicated batch arena: batched frames acquire capacity-sized slots,
  // which must not evict the single-window arena of a pooled context.
  nn::Workspace& ws = ctx->batch_workspace();
  ws.BeginFrame();

  nn::Tensor* x = ws.Acquire(cap_rows, h);
  nn::GatherRowsKernel(embedding_->table().value(), keys, x);
  if (position_embedding_ != nullptr) {
    // Window-local broadcast of the learnable position rows — the same
    // elementwise adds AddInPlace performs on the single-window path.
    const nn::Tensor& pe = position_embedding_->value();
    for (int b = 0; b < B; ++b) {
      for (int i = 0; i < L; ++i) {
        float* xr = x->row(b * L + i);
        const float* pr = pe.row(i);
        for (int c = 0; c < h; ++c) xr[c] += pr[c];
      }
    }
  }
  obs::FlightStageBoundary(obs::FlightStage::kEmbed);

  // Row-wise tails of the final block only touch each window's owned rows;
  // earlier blocks compute every occupied row as one range.
  const std::vector<std::pair<int, int>> owned = OwnedRowRanges(rows_from, L);
  const std::vector<std::pair<int, int>> full{{0, total}};

  const nn::Tensor* xin = x;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    Block& block = blocks_[b];
    const bool final_block = b + 1 == blocks_.size();
    const std::vector<std::pair<int, int>>& rs = final_block ? owned : full;
    const nn::Tensor& packed = PackedQkv(ctx, b, wv, packed_cols);
    if (on_block_weights_for_test_) {
      on_block_weights_for_test_(static_cast<int>(b), wv);
    }
    // One wide [B*L x h] GEMM per block instead of B skinny ones — the
    // arithmetic-intensity win the batcher exists for. Keys/values must
    // cover every row of every window, so no rows_from restriction here.
    nn::Tensor* qkv = ws.Acquire(cap_rows, packed_cols);
    nn::MatMulSliceKernel(*xin, 0, h, packed, 0, qkv, 1.0f, total);
    nn::Tensor* concat = ws.Acquire(cap_rows, h);
    for (int hi = 0; hi < m; ++hi) {
      const int qoff = hi * head_dim;
      const int koff = h + hi * head_dim;
      const int voff = 2 * h + hi * head_dim;
      nn::Tensor* kt = ws.Acquire(capacity * head_dim, L);
      nn::BatchedTransposeSliceKernel(*qkv, B, L, koff, head_dim, kt);
      nn::Tensor* scores = ws.Acquire(cap_rows, L);
      nn::BatchedAttentionHeadKernel(
          *qkv, B, L, final_block ? rows_from.data() : nullptr, qoff, head_dim,
          *kt, scale, mask_, voff, qoff, scores, concat);
    }
    nn::Tensor* mh = ws.Acquire(cap_rows, h);
    for (const auto& [start, end] : rs) {
      nn::MatMulSliceKernel(*concat, 0, h, block.wo.value(), start, mh, 1.0f,
                            end);
    }
    nn::Tensor* ln1 = ws.Acquire(cap_rows, h);
    for (const auto& [start, end] : rs) {
      nn::ResidualLayerNormKernel(*xin, *mh, block.ln_attention->gain().value(),
                                  block.ln_attention->bias().value(), 1e-5f,
                                  ln1, start, end);
    }
    xin = ln1;
    obs::FlightStageBoundary(obs::FlightStage::kAttention);
    nn::Tensor* ff = ws.Acquire(cap_rows, h);
    for (const auto& [start, end] : rs) {
      nn::MatMulSliceKernel(*xin, 0, h, block.w1.value(), start, ff, 1.0f,
                            end);
      nn::BiasReluKernel(ff, block.b1.value(), start, end);
    }
    nn::Tensor* ff2 = ws.Acquire(cap_rows, h);
    for (const auto& [start, end] : rs) {
      nn::MatMulSliceKernel(*ff, 0, h, block.w2.value(), start, ff2, 1.0f,
                            end);
      nn::BiasAddKernel(ff2, block.b2.value(), start, end);
    }
    nn::Tensor* ln2 = ws.Acquire(cap_rows, h);
    for (const auto& [start, end] : rs) {
      nn::ResidualLayerNormKernel(*xin, *ff2, block.ln_ffn->gain().value(),
                                  block.ln_ffn->bias().value(), 1e-5f, ln2,
                                  start, end);
    }
    xin = ln2;
    obs::FlightStageBoundary(obs::FlightStage::kFfn);
  }
  ctx->NoteForward(nn::CurrentKernelTier());
  ctx->NoteBatchForward(B, capacity);
  return *xin;
}

const nn::Tensor& TransDasModel::AllKeyLogitsInference(
    nn::InferenceContext* ctx, const nn::Tensor& outputs, int rows_from) {
  const nn::Tensor& table = embedding_->table().value();
  // Materialized M^T + the same per-element recipe the tape path's
  // nn::MatMul runs: the tape's MatMulTransposeBAccum shortcut accumulates
  // in double, so going through it here would break bitwise parity. The
  // transpose itself is a pure copy and is cached across windows on the
  // context.
  const nn::Tensor& table_t = ctx->TransposedCopy(table, weight_version_);
  nn::Tensor* logits = ctx->workspace().Acquire(outputs.rows(), table_t.cols());
  nn::MatMulSliceKernel(outputs, 0, outputs.cols(), table_t, rows_from, logits);
  obs::FlightStageBoundary(obs::FlightStage::kLogits);
  return *logits;
}

const nn::Tensor& TransDasModel::AllKeyLogitsInferenceBatched(
    nn::InferenceContext* ctx, const nn::Tensor& outputs,
    const std::vector<int>& rows_from, int capacity) {
  const int L = config_.window;
  UCAD_DCHECK(outputs.rows() == capacity * L);
  const nn::Tensor& table = embedding_->table().value();
  const nn::Tensor& table_t = ctx->TransposedCopy(table, weight_version_);
  nn::Tensor* logits =
      ctx->batch_workspace().Acquire(outputs.rows(), table_t.cols());
  for (const auto& [start, end] : OwnedRowRanges(rows_from, L)) {
    nn::MatMulSliceKernel(outputs, 0, outputs.cols(), table_t, start, logits,
                          1.0f, end);
  }
  obs::FlightStageBoundary(obs::FlightStage::kLogits);
  return *logits;
}

std::vector<nn::Parameter*> TransDasModel::Params() {
  std::vector<nn::Parameter*> params = embedding_->Params();
  if (position_embedding_ != nullptr) {
    params.push_back(position_embedding_.get());
  }
  for (Block& block : blocks_) {
    for (Head& head : block.heads) {
      params.push_back(&head.wq);
      params.push_back(&head.wk);
      params.push_back(&head.wv);
    }
    params.push_back(&block.wo);
    for (nn::Parameter* p : block.ln_attention->Params()) params.push_back(p);
    params.push_back(&block.w1);
    params.push_back(&block.b1);
    params.push_back(&block.w2);
    params.push_back(&block.b2);
    for (nn::Parameter* p : block.ln_ffn->Params()) params.push_back(p);
  }
  return params;
}

}  // namespace ucad::transdas
