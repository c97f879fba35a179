#include "transdas/serialization.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

#include "util/binary_io.h"
#include "util/logging.h"

namespace ucad::transdas {

namespace {

constexpr uint32_t kMagic = 0x55434144;  // "UCAD"
constexpr uint32_t kVersion = 1;

// Header caps, checked before any model allocation: a forged header must
// not make the TransDasModel constructor allocate an L x L mask or a
// vocab x hidden table it cannot fill. Each sits well above the paper's
// largest setting (Scenario-II: L = 100, h = 64, 6 blocks).
constexpr int32_t kMaxVocab = 1 << 24;  // ReadVocabulary's own cap
constexpr int32_t kMaxWindow = 1024;
constexpr int32_t kMaxHiddenDim = 1024;
constexpr int32_t kMaxHeads = 64;
constexpr int32_t kMaxBlocks = 64;
// Parameter payload cap for streams that cannot report their length; a
// seekable stream is held to the bytes it actually has left.
constexpr int64_t kMaxParameterBytes = int64_t{1} << 30;

/// Bytes of float payload the parameters of `config` occupy, in 64-bit
/// (per-tensor shape headers excluded, so this is a lower bound on the
/// stream's parameter section). Mirrors TransDasModel::Params(): the
/// embedding table, the optional position table, and per block 3 x m
/// [h x h/m] head projections, wo, w1, w2 ([h x h]) plus two layer norms
/// (gain + bias) and two biases ([1 x h]).
int64_t ParameterPayloadBytes(const TransDasConfig& config) {
  const int64_t h = config.hidden_dim;
  int64_t floats = static_cast<int64_t>(config.vocab_size) * h;
  if (config.use_position_embedding) floats += config.window * h;
  floats += config.num_blocks * (6 * h * h + 6 * h);
  return floats * static_cast<int64_t>(sizeof(float));
}

/// Bytes between the read position and the end of a seekable stream, or -1
/// when the stream cannot seek (the read position is left unchanged).
int64_t BytesLeft(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return -1;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || !is.good()) {
    is.clear();
    is.seekg(here);
    return -1;
  }
  return static_cast<int64_t>(end - here);
}

util::Status WriteVocabulary(const sql::Vocabulary& vocab,
                             std::ostream& os) {
  util::WriteU32(os, static_cast<uint32_t>(vocab.size()));
  // Key 0 is implicit (<pad>); serialize keys 1..size-1.
  for (int key = 1; key < vocab.size(); ++key) {
    util::WriteString(os, vocab.TemplateOf(key));
    util::WriteI32(os, static_cast<int32_t>(vocab.CommandOf(key)));
    util::WriteString(os, vocab.TableOf(key));
  }
  return util::Status::Ok();
}

util::Status ReadVocabulary(std::istream& is, sql::Vocabulary* vocab) {
  uint32_t size = 0;
  UCAD_RETURN_IF_ERROR(util::ReadU32(is, &size));
  if (size == 0 || size > (1u << 24)) {
    return util::Status::InvalidArgument("implausible vocabulary size");
  }
  for (uint32_t key = 1; key < size; ++key) {
    std::string template_text, table;
    int32_t command = 0;
    UCAD_RETURN_IF_ERROR(util::ReadString(is, &template_text));
    UCAD_RETURN_IF_ERROR(util::ReadI32(is, &command));
    UCAD_RETURN_IF_ERROR(util::ReadString(is, &table));
    if (command < 0 ||
        command > static_cast<int32_t>(sql::CommandType::kOther)) {
      return util::Status::InvalidArgument("bad command type");
    }
    vocab->AppendEntry(std::move(template_text),
                       static_cast<sql::CommandType>(command),
                       std::move(table));
  }
  vocab->Freeze();
  return util::Status::Ok();
}

}  // namespace

util::Status SaveModel(TransDasModel* model, const sql::Vocabulary& vocab,
                       std::ostream& os) {
  const TransDasConfig& config = model->config();
  if (config.vocab_size != vocab.size()) {
    return util::Status::InvalidArgument(
        "model vocab_size does not match the vocabulary");
  }
  util::WriteU32(os, kMagic);
  util::WriteU32(os, kVersion);
  util::WriteI32(os, config.vocab_size);
  util::WriteI32(os, config.window);
  util::WriteI32(os, config.hidden_dim);
  util::WriteI32(os, config.num_heads);
  util::WriteI32(os, config.num_blocks);
  util::WriteF32(os, config.dropout);
  util::WriteI32(os, config.use_position_embedding ? 1 : 0);
  util::WriteI32(os, static_cast<int32_t>(config.mask_mode));

  const std::vector<nn::Parameter*> params = model->Params();
  util::WriteU32(os, static_cast<uint32_t>(params.size()));
  for (nn::Parameter* p : params) {
    util::WriteI32(os, p->value().rows());
    util::WriteI32(os, p->value().cols());
    std::vector<float> data(p->value().data(),
                            p->value().data() + p->value().size());
    util::WriteFloatVector(os, data);
  }
  UCAD_RETURN_IF_ERROR(WriteVocabulary(vocab, os));
  if (!os.good()) return util::Status::Internal("stream write failed");
  return util::Status::Ok();
}

util::Status SaveModelToFile(TransDasModel* model,
                             const sql::Vocabulary& vocab,
                             const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os.is_open()) {
    return util::Status::NotFound("cannot open " + path + " for writing");
  }
  return SaveModel(model, vocab, os);
}

util::Result<ModelBundle> LoadModel(std::istream& is) {
  uint32_t magic = 0, version = 0;
  UCAD_RETURN_IF_ERROR(util::ReadU32(is, &magic));
  if (magic != kMagic) {
    return util::Status::InvalidArgument("not a UCAD model file");
  }
  UCAD_RETURN_IF_ERROR(util::ReadU32(is, &version));
  if (version != kVersion) {
    return util::Status::InvalidArgument("unsupported model version " +
                                         std::to_string(version));
  }
  TransDasConfig config;
  int32_t position_flag = 0, mask_mode = 0;
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &config.vocab_size));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &config.window));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &config.hidden_dim));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &config.num_heads));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &config.num_blocks));
  UCAD_RETURN_IF_ERROR(util::ReadF32(is, &config.dropout));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &position_flag));
  UCAD_RETURN_IF_ERROR(util::ReadI32(is, &mask_mode));
  config.use_position_embedding = position_flag != 0;
  if (mask_mode < 0 ||
      mask_mode > static_cast<int32_t>(MaskMode::kBidirectionalSkipNext)) {
    return util::Status::InvalidArgument("bad mask mode");
  }
  config.mask_mode = static_cast<MaskMode>(mask_mode);
  if (config.vocab_size < 2 || config.window < 1 || config.hidden_dim < 1 ||
      config.num_heads < 1 || config.num_blocks < 1 ||
      config.hidden_dim % config.num_heads != 0) {
    return util::Status::InvalidArgument("implausible model config");
  }
  if (config.vocab_size > kMaxVocab || config.window > kMaxWindow ||
      config.hidden_dim > kMaxHiddenDim || config.num_heads > kMaxHeads ||
      config.num_blocks > kMaxBlocks) {
    return util::Status::InvalidArgument("model config exceeds size caps");
  }
  const int64_t payload = ParameterPayloadBytes(config);
  const int64_t bytes_left = BytesLeft(is);
  if (payload > kMaxParameterBytes ||
      (bytes_left >= 0 && payload > bytes_left)) {
    return util::Status::InvalidArgument(
        "model config implies more parameter bytes than the stream holds");
  }

  util::Rng rng(1);  // initialization is immediately overwritten
  ModelBundle bundle;
  bundle.model = std::make_unique<TransDasModel>(config, &rng);
  const std::vector<nn::Parameter*> params = bundle.model->Params();
  uint32_t param_count = 0;
  UCAD_RETURN_IF_ERROR(util::ReadU32(is, &param_count));
  if (param_count != params.size()) {
    return util::Status::InvalidArgument("parameter count mismatch");
  }
  for (nn::Parameter* p : params) {
    int32_t rows = 0, cols = 0;
    UCAD_RETURN_IF_ERROR(util::ReadI32(is, &rows));
    UCAD_RETURN_IF_ERROR(util::ReadI32(is, &cols));
    if (rows != p->value().rows() || cols != p->value().cols()) {
      return util::Status::InvalidArgument("parameter shape mismatch");
    }
    std::vector<float> data;
    UCAD_RETURN_IF_ERROR(util::ReadFloatVector(is, &data));
    if (data.size() != p->value().size()) {
      return util::Status::InvalidArgument("parameter size mismatch");
    }
    std::copy(data.begin(), data.end(), p->value().data());
  }
  UCAD_RETURN_IF_ERROR(ReadVocabulary(is, &bundle.vocabulary));
  if (bundle.vocabulary.size() != config.vocab_size) {
    return util::Status::InvalidArgument(
        "vocabulary size does not match model config");
  }
  return bundle;
}

util::Result<ModelBundle> LoadModelFromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) {
    return util::Status::NotFound("cannot open " + path);
  }
  return LoadModel(is);
}

}  // namespace ucad::transdas
