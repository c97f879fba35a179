#include "transdas/tape_reference.h"

#include <algorithm>

#include "nn/infer.h"
#include "nn/tape.h"

namespace ucad::transdas {

namespace {

/// The L keys before session position `end`: keys[end-L .. end-1], with
/// k0 before the session start and for keys outside the vocabulary.
std::vector<int> WindowEndingAt(const TransDasConfig& config,
                                const std::vector<int>& keys, int end) {
  std::vector<int> window(static_cast<size_t>(config.window), 0);
  for (int j = 0; j < config.window; ++j) {
    const int idx = end - config.window + j;
    if (idx < 0) continue;
    const int key = keys[static_cast<size_t>(idx)];
    if (key >= 0 && key < config.vocab_size) window[j] = key;
  }
  return window;
}

/// Scores one row of tape logits against the observed `key`.
OperationVerdict Score(const nn::Tensor& logits, int row, int key, int top_p) {
  const nn::RowScore rs =
      nn::ScoreLogitsRow(logits.row(row), logits.cols(), key, top_p);
  OperationVerdict op;
  op.rank = rs.rank;
  op.score = rs.score;
  op.margin = rs.margin;
  op.abnormal = rs.abnormal;
  return op;
}

nn::Tensor TapeLogits(TransDasModel* model, const std::vector<int>& window) {
  nn::Tape tape;
  const nn::VarId outputs =
      model->Forward(&tape, window, /*training=*/false, nullptr);
  return tape.value(model->AllKeyLogits(&tape, outputs));
}

}  // namespace

SessionVerdict TapeDetectSession(TransDasModel* model,
                                 const std::vector<int>& keys, int top_p,
                                 bool batched) {
  const TransDasConfig& config = model->config();
  const int L = config.window;
  const int n = static_cast<int>(keys.size());
  SessionVerdict verdict;
  for (int first = 1; first < n;) {
    // Output row i of the window of the L keys before position `last`
    // predicts position last + 1 - L + i; this window scores [first, last].
    const int last = batched ? std::min(first + L - 1, n - 1) : first;
    const nn::Tensor logits =
        TapeLogits(model, WindowEndingAt(config, keys, last));
    for (int pos = first; pos <= last; ++pos) {
      OperationVerdict op =
          Score(logits, pos + L - 1 - last, keys[static_cast<size_t>(pos)],
                top_p);
      op.position = pos;
      verdict.abnormal = verdict.abnormal || op.abnormal;
      verdict.operations.push_back(op);
    }
    first = last + 1;
  }
  return verdict;
}

OperationVerdict TapeScoreNextOperation(TransDasModel* model,
                                        const std::vector<int>& preceding,
                                        int next_key, int top_p) {
  const int end = static_cast<int>(preceding.size());
  const nn::Tensor logits =
      TapeLogits(model, WindowEndingAt(model->config(), preceding, end));
  return Score(logits, model->config().window - 1, next_key, top_p);
}

}  // namespace ucad::transdas
