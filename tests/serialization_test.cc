#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "sql/statement.h"
#include "transdas/detector.h"
#include "transdas/serialization.h"
#include "transdas/trainer.h"
#include "util/binary_io.h"
#include "util/rng.h"

namespace ucad {
namespace {

// ---------- binary_io round trips ----------

TEST(BinaryIoTest, PrimitivesRoundTrip) {
  std::stringstream ss;
  util::WriteU32(ss, 0xDEADBEEF);
  util::WriteI32(ss, -42);
  util::WriteF32(ss, 3.25f);
  util::WriteString(ss, "hello world");
  util::WriteFloatVector(ss, {1.0f, -2.0f, 0.5f});

  uint32_t u = 0;
  int32_t i = 0;
  float f = 0;
  std::string s;
  std::vector<float> v;
  ASSERT_TRUE(util::ReadU32(ss, &u).ok());
  ASSERT_TRUE(util::ReadI32(ss, &i).ok());
  ASSERT_TRUE(util::ReadF32(ss, &f).ok());
  ASSERT_TRUE(util::ReadString(ss, &s).ok());
  ASSERT_TRUE(util::ReadFloatVector(ss, &v).ok());
  EXPECT_EQ(u, 0xDEADBEEFu);
  EXPECT_EQ(i, -42);
  EXPECT_FLOAT_EQ(f, 3.25f);
  EXPECT_EQ(s, "hello world");
  EXPECT_EQ(v, (std::vector<float>{1.0f, -2.0f, 0.5f}));
}

TEST(BinaryIoTest, TruncatedInputIsOutOfRange) {
  std::stringstream ss;
  util::WriteU32(ss, 7);
  ss.str(ss.str().substr(0, 2));  // chop mid-integer
  uint32_t u = 0;
  EXPECT_EQ(util::ReadU32(ss, &u).code(), util::StatusCode::kOutOfRange);
}

TEST(BinaryIoTest, OversizedStringRejected) {
  std::stringstream ss;
  util::WriteU32(ss, 1u << 30);  // absurd length prefix
  std::string s;
  EXPECT_EQ(util::ReadString(ss, &s).code(),
            util::StatusCode::kOutOfRange);
}

TEST(BinaryIoTest, EmptyStringAndVector) {
  std::stringstream ss;
  util::WriteString(ss, "");
  util::WriteFloatVector(ss, {});
  std::string s = "x";
  std::vector<float> v = {1};
  ASSERT_TRUE(util::ReadString(ss, &s).ok());
  ASSERT_TRUE(util::ReadFloatVector(ss, &v).ok());
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(v.empty());
}

// ---------- model serialization ----------

class SerializationTest : public ::testing::Test {
 protected:
  SerializationTest() : rng_(5) {
    vocab_.GetOrAssign(sql::ParseStatement("SELECT * FROM a WHERE x=1"));
    vocab_.GetOrAssign(sql::ParseStatement("INSERT INTO a(x) VALUES (1)"));
    vocab_.GetOrAssign(sql::ParseStatement("SELECT * FROM b WHERE y=2"));
    vocab_.GetOrAssign(sql::ParseStatement("DELETE FROM b WHERE y=3"));
    vocab_.Freeze();

    config_.vocab_size = vocab_.size();
    config_.window = 6;
    config_.hidden_dim = 8;
    config_.num_heads = 2;
    config_.num_blocks = 2;
    model_ = std::make_unique<transdas::TransDasModel>(config_, &rng_);
    // Light training so weights are nontrivial.
    transdas::TrainOptions options;
    options.epochs = 3;
    transdas::TransDasTrainer trainer(model_.get(), options);
    trainer.Train({{1, 2, 1, 3, 4, 1, 2, 1}, {3, 1, 2, 1, 3, 1, 2}});
  }

  util::Rng rng_;
  sql::Vocabulary vocab_;
  transdas::TransDasConfig config_;
  std::unique_ptr<transdas::TransDasModel> model_;
};

TEST_F(SerializationTest, RoundTripPreservesConfigAndWeights) {
  std::stringstream ss;
  ASSERT_TRUE(transdas::SaveModel(model_.get(), vocab_, ss).ok());

  util::Result<transdas::ModelBundle> loaded = transdas::LoadModel(ss);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model->config().window, config_.window);
  EXPECT_EQ(loaded->model->config().hidden_dim, config_.hidden_dim);
  EXPECT_EQ(loaded->vocabulary.size(), vocab_.size());
  EXPECT_TRUE(loaded->vocabulary.frozen());
  EXPECT_EQ(loaded->vocabulary.Lookup("select * from a where x=$1"), 1);

  // Identical weights -> identical detector behavior.
  const auto params_a = model_->Params();
  const auto params_b = loaded->model->Params();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_TRUE(params_a[i]->value().SameShape(params_b[i]->value()));
    for (size_t j = 0; j < params_a[i]->value().size(); ++j) {
      EXPECT_EQ(params_a[i]->value().data()[j],
                params_b[i]->value().data()[j]);
    }
  }
  transdas::DetectorOptions detector_options;
  detector_options.top_p = 2;
  transdas::TransDasDetector da(model_.get(), detector_options);
  transdas::TransDasDetector db(loaded->model.get(), detector_options);
  const std::vector<int> session = {1, 2, 1, 3, 4, 1, 2};
  const auto va = da.DetectSession(session);
  const auto vb = db.DetectSession(session);
  ASSERT_EQ(va.operations.size(), vb.operations.size());
  for (size_t i = 0; i < va.operations.size(); ++i) {
    EXPECT_EQ(va.operations[i].rank, vb.operations[i].rank);
  }
}

TEST_F(SerializationTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/ucad_model.bin";
  ASSERT_TRUE(transdas::SaveModelToFile(model_.get(), vocab_, path).ok());
  util::Result<transdas::ModelBundle> loaded =
      transdas::LoadModelFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model->config().vocab_size, vocab_.size());
}

TEST_F(SerializationTest, MissingFileIsNotFound) {
  const auto loaded =
      transdas::LoadModelFromFile("/nonexistent/dir/model.bin");
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kNotFound);
}

TEST_F(SerializationTest, GarbageInputRejected) {
  std::stringstream ss;
  ss << "this is not a model file at all";
  const auto loaded = transdas::LoadModel(ss);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, TruncatedModelRejected) {
  std::stringstream ss;
  ASSERT_TRUE(transdas::SaveModel(model_.get(), vocab_, ss).ok());
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  const auto loaded = transdas::LoadModel(truncated);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(SerializationTest, VocabularyMismatchRejectedAtSave) {
  sql::Vocabulary other;  // size 1 != model vocab
  std::stringstream ss;
  EXPECT_EQ(transdas::SaveModel(model_.get(), other, ss).code(),
            util::StatusCode::kInvalidArgument);
}

/// A model-file header with the given dims and nothing after it: every
/// forged case below must be rejected from the header alone.
std::string ForgedHeader(int32_t vocab, int32_t window, int32_t hidden,
                         int32_t heads, int32_t blocks) {
  std::stringstream ss;
  util::WriteU32(ss, 0x55434144);  // magic
  util::WriteU32(ss, 1);           // version
  util::WriteI32(ss, vocab);
  util::WriteI32(ss, window);
  util::WriteI32(ss, hidden);
  util::WriteI32(ss, heads);
  util::WriteI32(ss, blocks);
  util::WriteF32(ss, 0.1f);
  util::WriteI32(ss, 0);  // no position embedding
  util::WriteI32(ss, 2);  // kBidirectionalSkipNext
  return ss.str();
}

/// Read-only stream buffer that cannot seek, like a pipe.
class NoSeekBuf : public std::streambuf {
 public:
  explicit NoSeekBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

TEST_F(SerializationTest, ForgedHeaderDimsRejectedBeforeAllocation) {
  struct Case {
    const char* what;
    std::string bytes;
  };
  const Case cases[] = {
      {"window 1<<20", ForgedHeader(5, 1 << 20, 8, 2, 2)},
      {"vocab 1<<24, hidden 1<<16", ForgedHeader(1 << 24, 6, 1 << 16, 2, 2)},
      {"vocab above the vocabulary cap", ForgedHeader(1 << 25, 6, 8, 2, 2)},
      {"heads 128", ForgedHeader(5, 6, 128, 128, 2)},
      {"blocks 1<<20", ForgedHeader(5, 6, 8, 2, 1 << 20)},
      // Every dim within its cap, but the implied 64 GiB of weights is far
      // beyond the bytes the stream holds.
      {"payload beyond the stream", ForgedHeader(1 << 24, 6, 1024, 2, 2)},
  };
  for (const Case& c : cases) {
    std::stringstream ss(c.bytes);
    const auto loaded = transdas::LoadModel(ss);
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << c.what << ": " << loaded.status().ToString();
  }
  // A stream that cannot report its length is held to the absolute
  // payload cap instead.
  NoSeekBuf buf(ForgedHeader(1 << 24, 6, 1024, 2, 2));
  std::istream pipe(&buf);
  EXPECT_EQ(transdas::LoadModel(pipe).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SerializationTest, NonSeekableStreamLoads) {
  std::stringstream ss;
  ASSERT_TRUE(transdas::SaveModel(model_.get(), vocab_, ss).ok());
  NoSeekBuf buf(ss.str());
  std::istream pipe(&buf);
  util::Result<transdas::ModelBundle> loaded = transdas::LoadModel(pipe);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->model->config().window, config_.window);
}

}  // namespace
}  // namespace ucad
