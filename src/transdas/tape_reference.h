#ifndef UCAD_TRANSDAS_TAPE_REFERENCE_H_
#define UCAD_TRANSDAS_TAPE_REFERENCE_H_

#include <vector>

#include "transdas/detector.h"
#include "transdas/model.h"

namespace ucad::transdas {

// Autograd-tape reference scorer: the oracle that the inference engine's
// bitwise-parity tests and detect_throughput's tape arm compare
// TransDasDetector against. Every window runs through the recording tape
// (TransDasModel::Forward + AllKeyLogits) and nn::ScoreLogitsRow, serially
// and with its own window placement, so it shares no scoring code with the
// detector beyond the Eq. 10 row scorer. Under KernelTier::kReference the
// detector's verdicts — rank, score and margin — are bitwise-equal to these
// at any thread count and any batch_windows. Not used by the detector.

/// Scores a full session the way DetectSession does with the given `top_p`
/// and `batched` mode: batched windows advance by L from position 1 (the
/// last one ends at the session's last key and scores only positions no
/// earlier window scored); per-op mode scores position t from the L keys
/// before it.
SessionVerdict TapeDetectSession(TransDasModel* model,
                                 const std::vector<int>& keys, int top_p,
                                 bool batched);

/// Streaming verdict of `next_key` after `preceding` (position left at 0),
/// as ScoreNextOperation returns it.
OperationVerdict TapeScoreNextOperation(TransDasModel* model,
                                        const std::vector<int>& preceding,
                                        int next_key, int top_p);

}  // namespace ucad::transdas

#endif  // UCAD_TRANSDAS_TAPE_REFERENCE_H_
