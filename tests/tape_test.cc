#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/gradcheck.h"
#include "nn/tape.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace ucad::nn {
namespace {

// ---------- Forward values ----------

TEST(TapeForwardTest, AddSubMul) {
  Tape tape;
  VarId a = tape.Constant(Tensor(1, 3, {1, 2, 3}));
  VarId b = tape.Constant(Tensor(1, 3, {4, 5, 6}));
  EXPECT_FLOAT_EQ(tape.value(tape.Add(a, b)).at(0, 2), 9.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.Sub(a, b)).at(0, 0), -3.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.Mul(a, b)).at(0, 1), 10.0f);
}

TEST(TapeForwardTest, ScalarOps) {
  Tape tape;
  VarId a = tape.Constant(Tensor(1, 2, {2, -3}));
  EXPECT_FLOAT_EQ(tape.value(tape.Scale(a, 2.5f)).at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.AddScalar(a, 1.0f)).at(0, 1), -2.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.Relu(a)).at(0, 1), 0.0f);
  EXPECT_NEAR(tape.value(tape.Sigmoid(a)).at(0, 0), 0.8807971f, 1e-5f);
  EXPECT_NEAR(tape.value(tape.Tanh(a)).at(0, 0), std::tanh(2.0f), 1e-6f);
}

TEST(TapeForwardTest, LogSigmoidMatchesComposition) {
  Tape tape;
  VarId a = tape.Constant(Tensor(1, 4, {-30, -1, 1, 30}));
  const Tensor& direct = tape.value(tape.LogSigmoid(a));
  for (int c = 0; c < 4; ++c) {
    const double x = tape.value(a).at(0, c);
    const double expected = -std::log1p(std::exp(-x));
    EXPECT_NEAR(direct.at(0, c), expected, 1e-4);
  }
  // Extreme negative input stays finite.
  EXPECT_TRUE(std::isfinite(direct.at(0, 0)));
}

TEST(TapeForwardTest, MatMulAndTranspose) {
  Tape tape;
  VarId a = tape.Constant(Tensor(2, 2, {1, 2, 3, 4}));
  VarId b = tape.Constant(Tensor(2, 2, {0, 1, 1, 0}));
  EXPECT_FLOAT_EQ(tape.value(tape.MatMul(a, b)).at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.Transpose(a)).at(0, 1), 3.0f);
}

TEST(TapeForwardTest, SoftmaxRowsSumToOne) {
  Tape tape;
  VarId a = tape.Constant(Tensor(2, 3, {1, 2, 3, -5, 0, 5}));
  const Tensor& y = tape.value(tape.SoftmaxRows(a));
  for (int r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 3; ++c) {
      sum += y.at(r, c);
      EXPECT_GT(y.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(y.at(0, 2), y.at(0, 0));
}

TEST(TapeForwardTest, SoftmaxHandlesMaskValues) {
  Tape tape;
  VarId a = tape.Constant(Tensor(1, 3, {1.0f, -1e9f, 2.0f}));
  const Tensor& y = tape.value(tape.SoftmaxRows(a));
  EXPECT_NEAR(y.at(0, 1), 0.0f, 1e-12f);
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 2), 1.0f, 1e-5f);
}

TEST(TapeForwardTest, SliceConcatRowAreInverses) {
  Tape tape;
  VarId a = tape.Constant(Tensor(2, 4, {1, 2, 3, 4, 5, 6, 7, 8}));
  VarId left = tape.SliceCols(a, 0, 2);
  VarId right = tape.SliceCols(a, 2, 2);
  VarId joined = tape.ConcatCols({left, right});
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(tape.value(joined).at(r, c), tape.value(a).at(r, c));
    }
  }
  VarId row1 = tape.Row(a, 1);
  EXPECT_EQ(tape.value(row1).at(0, 2), 7.0f);
  VarId stacked = tape.ConcatRows({tape.Row(a, 0), row1});
  EXPECT_EQ(tape.value(stacked).at(1, 3), 8.0f);
}

TEST(TapeForwardTest, Reductions) {
  Tape tape;
  VarId a = tape.Constant(Tensor(2, 3, {1, 2, 3, 4, 5, 6}));
  EXPECT_FLOAT_EQ(tape.value(tape.SumRows(a)).at(1, 0), 15.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.SumAll(a)).at(0, 0), 21.0f);
  EXPECT_FLOAT_EQ(tape.value(tape.MeanAll(a)).at(0, 0), 3.5f);
}

TEST(TapeForwardTest, EmbeddingGather) {
  Tape tape;
  VarId table = tape.Constant(Tensor(3, 2, {0, 0, 10, 11, 20, 21}));
  VarId g = tape.EmbeddingGather(table, {2, 0, 1});
  EXPECT_FLOAT_EQ(tape.value(g).at(0, 1), 21.0f);
  EXPECT_FLOAT_EQ(tape.value(g).at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(tape.value(g).at(2, 0), 10.0f);
}

TEST(TapeForwardTest, DropoutInferenceIsIdentity) {
  Tape tape;
  VarId a = tape.Constant(Tensor(1, 4, {1, 2, 3, 4}));
  VarId d = tape.Dropout(a, 0.5f, /*training=*/false, nullptr);
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(tape.value(d).at(0, c), tape.value(a).at(0, c));
  }
}

TEST(TapeForwardTest, DropoutTrainingZeroesAndRescales) {
  util::Rng rng(3);
  Tape tape;
  VarId a = tape.Constant(Tensor::Full(1, 1000, 1.0f));
  VarId d = tape.Dropout(a, 0.4f, /*training=*/true, &rng);
  int zeros = 0;
  for (int c = 0; c < 1000; ++c) {
    const float v = tape.value(d).at(0, c);
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros / 1000.0, 0.4, 0.06);
}

TEST(TapeForwardTest, LayerNormNormalizesRows) {
  Tape tape;
  VarId x = tape.Constant(Tensor(2, 4, {1, 2, 3, 4, -10, 0, 10, 20}));
  VarId gain = tape.Constant(Tensor::Full(1, 4, 1.0f));
  VarId bias = tape.Constant(Tensor(1, 4));
  const Tensor& y = tape.value(tape.LayerNormRows(x, gain, bias));
  for (int r = 0; r < 2; ++r) {
    double mean = 0.0, var = 0.0;
    for (int c = 0; c < 4; ++c) mean += y.at(r, c);
    mean /= 4;
    for (int c = 0; c < 4; ++c) var += (y.at(r, c) - mean) * (y.at(r, c) - mean);
    var /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-5);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(TapeForwardTest, SoftmaxCrossEntropyValue) {
  Tape tape;
  // Uniform logits over 4 classes -> loss = log(4).
  VarId logits = tape.Constant(Tensor(2, 4));
  VarId loss = tape.SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(tape.value(loss).at(0, 0), std::log(4.0f), 1e-5f);
}

// ---------- Gradients (finite differences) ----------

/// Builds a scalar loss from a parameter via `graph`, checking analytic
/// vs. numeric gradients.
void CheckGraphGradient(
    Parameter* param,
    const std::function<VarId(Tape*, VarId)>& graph, float tol = 2e-2f) {
  auto loss_value = [&]() -> double {
    Tape tape;
    VarId p = tape.Param(param);
    VarId loss = graph(&tape, p);
    return tape.value(loss).at(0, 0);
  };
  auto loss_backward = [&]() -> double {
    Tape tape;
    VarId p = tape.Param(param);
    VarId loss = graph(&tape, p);
    tape.Backward(loss);
    return tape.value(loss).at(0, 0);
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {param});
  EXPECT_GT(result.entries, 0u);
  EXPECT_LT(result.max_rel_error, tol)
      << "abs=" << result.max_abs_error;
}

struct GradCase {
  std::string name;
  std::function<VarId(Tape*, VarId)> graph;
};

// gtest's default printer dumps the object's raw bytes, heap pointers
// included, into the listed test IDs ("# GetParam() = ..."), so those IDs
// would change from one build to the next. Print the case name instead.
void PrintTo(const GradCase& c, std::ostream* os) { *os << c.name; }

class GradientCheckTest : public ::testing::TestWithParam<GradCase> {};

TEST_P(GradientCheckTest, AnalyticMatchesNumeric) {
  util::Rng rng(99);
  Parameter param(Tensor::Randn(3, 4, 0.7f, &rng));
  CheckGraphGradient(&param, GetParam().graph);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, GradientCheckTest,
    ::testing::Values(
        GradCase{"sum", [](Tape* t, VarId p) { return t->SumAll(p); }},
        GradCase{"mean", [](Tape* t, VarId p) { return t->MeanAll(p); }},
        GradCase{"scale_add",
                 [](Tape* t, VarId p) {
                   return t->SumAll(t->AddScalar(t->Scale(p, 1.7f), 0.3f));
                 }},
        GradCase{"square",
                 [](Tape* t, VarId p) { return t->SumAll(t->Mul(p, p)); }},
        GradCase{"relu",
                 [](Tape* t, VarId p) { return t->SumAll(t->Relu(p)); }},
        GradCase{"sigmoid",
                 [](Tape* t, VarId p) { return t->SumAll(t->Sigmoid(p)); }},
        GradCase{"tanh",
                 [](Tape* t, VarId p) { return t->SumAll(t->Tanh(p)); }},
        GradCase{"logsigmoid",
                 [](Tape* t, VarId p) {
                   return t->Scale(t->SumAll(t->LogSigmoid(p)), -1.0f);
                 }},
        GradCase{"softmax",
                 [](Tape* t, VarId p) {
                   VarId s = t->SoftmaxRows(p);
                   return t->SumAll(t->Mul(s, s));
                 }},
        GradCase{"transpose_matmul",
                 [](Tape* t, VarId p) {
                   VarId prod = t->MatMul(p, t->Transpose(p));
                   return t->SumAll(t->Mul(prod, prod));
                 }},
        GradCase{"slice_concat",
                 [](Tape* t, VarId p) {
                   VarId a = t->SliceCols(p, 0, 2);
                   VarId b = t->SliceCols(p, 2, 2);
                   VarId j = t->ConcatCols({b, a});
                   return t->SumAll(t->Mul(j, j));
                 }},
        GradCase{"rows",
                 [](Tape* t, VarId p) {
                   VarId r0 = t->Row(p, 0);
                   VarId r2 = t->Row(p, 2);
                   VarId j = t->ConcatRows({r0, r2});
                   return t->SumAll(t->Mul(j, j));
                 }},
        GradCase{"sumrows",
                 [](Tape* t, VarId p) {
                   VarId s = t->SumRows(p);
                   return t->SumAll(t->Mul(s, s));
                 }}),
    [](const ::testing::TestParamInfo<GradCase>& info) {
      return info.param.name;
    });

TEST(GradientCheckTest, MatMulTwoOperands) {
  util::Rng rng(7);
  Parameter a(Tensor::Randn(2, 3, 0.5f, &rng));
  Parameter b(Tensor::Randn(3, 2, 0.5f, &rng));
  auto build = [&](Tape* tape) {
    VarId va = tape->Param(&a);
    VarId vb = tape->Param(&b);
    VarId prod = tape->MatMul(va, vb);
    return tape->SumAll(tape->Mul(prod, prod));
  };
  auto loss_value = [&]() {
    Tape tape;
    return static_cast<double>(tape.value(build(&tape)).at(0, 0));
  };
  auto loss_backward = [&]() {
    Tape tape;
    VarId loss = build(&tape);
    tape.Backward(loss);
    return static_cast<double>(tape.value(loss).at(0, 0));
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {&a, &b});
  EXPECT_LT(result.max_rel_error, 2e-2f);
}

TEST(GradientCheckTest, LayerNormAllParams) {
  util::Rng rng(11);
  Parameter x(Tensor::Randn(3, 5, 1.0f, &rng));
  Parameter gain(Tensor::Full(1, 5, 1.2f));
  Parameter bias(Tensor::Randn(1, 5, 0.3f, &rng));
  auto build = [&](Tape* tape) {
    VarId vx = tape->Param(&x);
    VarId vg = tape->Param(&gain);
    VarId vb = tape->Param(&bias);
    VarId y = tape->LayerNormRows(vx, vg, vb);
    return tape->SumAll(tape->Mul(y, y));
  };
  auto loss_value = [&]() {
    Tape tape;
    return static_cast<double>(tape.value(build(&tape)).at(0, 0));
  };
  auto loss_backward = [&]() {
    Tape tape;
    VarId loss = build(&tape);
    tape.Backward(loss);
    return static_cast<double>(tape.value(loss).at(0, 0));
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {&x, &gain, &bias});
  EXPECT_LT(result.max_rel_error, 5e-2f);
}

TEST(GradientCheckTest, EmbeddingGatherScattersGrads) {
  util::Rng rng(13);
  Parameter table(Tensor::Randn(4, 3, 0.5f, &rng));
  auto build = [&](Tape* tape) {
    VarId vt = tape->Param(&table);
    VarId g = tape->EmbeddingGather(vt, {1, 3, 1});
    return tape->SumAll(tape->Mul(g, g));
  };
  auto loss_value = [&]() {
    Tape tape;
    return static_cast<double>(tape.value(build(&tape)).at(0, 0));
  };
  auto loss_backward = [&]() {
    Tape tape;
    VarId loss = build(&tape);
    tape.Backward(loss);
    return static_cast<double>(tape.value(loss).at(0, 0));
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {&table});
  EXPECT_LT(result.max_rel_error, 2e-2f);
  // Row 0 and 2 are never gathered: loss must not depend on them, and the
  // analytic gradient there must be zero.
  Tape tape;
  VarId loss = build(&tape);
  tape.Backward(loss);
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(table.grad().at(0, c), 0.0f);
    EXPECT_EQ(table.grad().at(2, c), 0.0f);
  }
}

TEST(GradientCheckTest, SoftmaxCrossEntropy) {
  util::Rng rng(17);
  Parameter logits(Tensor::Randn(4, 5, 1.0f, &rng));
  const std::vector<int> targets = {0, 2, 4, 2};
  auto build = [&](Tape* tape) {
    VarId v = tape->Param(&logits);
    return tape->SoftmaxCrossEntropy(v, targets);
  };
  auto loss_value = [&]() {
    Tape tape;
    return static_cast<double>(tape.value(build(&tape)).at(0, 0));
  };
  auto loss_backward = [&]() {
    Tape tape;
    VarId loss = build(&tape);
    tape.Backward(loss);
    return static_cast<double>(tape.value(loss).at(0, 0));
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {&logits});
  EXPECT_LT(result.max_rel_error, 2e-2f);
}

TEST(GradientCheckTest, RowVectorBroadcasts) {
  util::Rng rng(19);
  Parameter x(Tensor::Randn(3, 4, 0.5f, &rng));
  Parameter bias(Tensor::Randn(1, 4, 0.5f, &rng));
  Parameter scale(Tensor::Randn(1, 4, 0.5f, &rng));
  auto build = [&](Tape* tape) {
    VarId vx = tape->Param(&x);
    VarId vb = tape->Param(&bias);
    VarId vs = tape->Param(&scale);
    VarId y = tape->MulRowVector(tape->AddRowVector(vx, vb), vs);
    return tape->SumAll(tape->Mul(y, y));
  };
  auto loss_value = [&]() {
    Tape tape;
    return static_cast<double>(tape.value(build(&tape)).at(0, 0));
  };
  auto loss_backward = [&]() {
    Tape tape;
    VarId loss = build(&tape);
    tape.Backward(loss);
    return static_cast<double>(tape.value(loss).at(0, 0));
  };
  const GradCheckResult result =
      CheckGradients(loss_backward, loss_value, {&x, &bias, &scale});
  EXPECT_LT(result.max_rel_error, 2e-2f);
}

TEST(TapeBackwardTest, GradAccumulatesAcrossUses) {
  Parameter p(Tensor(1, 1, {3.0f}));
  Tape tape;
  VarId v = tape.Param(&p);
  // loss = v*v + 2v -> dL/dv = 2v + 2 = 8.
  VarId loss = tape.SumAll(tape.Add(tape.Mul(v, v), tape.Scale(v, 2.0f)));
  tape.Backward(loss);
  EXPECT_NEAR(p.grad().at(0, 0), 8.0f, 1e-4f);
}

TEST(TapeBackwardTest, ParamGradsAccumulateAcrossTapes) {
  Parameter p(Tensor(1, 1, {1.0f}));
  for (int i = 0; i < 3; ++i) {
    Tape tape;
    VarId v = tape.Param(&p);
    tape.Backward(tape.SumAll(v));
  }
  EXPECT_NEAR(p.grad().at(0, 0), 3.0f, 1e-5f);
}

// ---------- Reset / tensor recycling ----------

/// A graph touching every pooling path: copies (Relu), fresh buffers
/// (MatMul, SoftmaxRows), gathers, shared op scratch (LayerNormRows'
/// normalized activations, SoftmaxCrossEntropy's probabilities, Dropout's
/// mask), and lazily pooled gradients.
float BuildGraphAndBackward(Tape* tape, Parameter* table, Parameter* w,
                            Parameter* gain, Parameter* bias,
                            util::Rng* rng) {
  VarId x = tape->EmbeddingGather(tape->Param(table), {0, 2, 1, 3});
  VarId h = tape->MatMul(x, tape->Param(w));
  h = tape->LayerNormRows(h, tape->Param(gain), tape->Param(bias));
  h = tape->Dropout(tape->Relu(h), 0.25f, /*training=*/true, rng);
  VarId att = tape->SoftmaxRows(h);
  VarId loss = tape->SoftmaxCrossEntropy(tape->MatMul(att, tape->Transpose(
                                             tape->Param(table))),
                                         {1, 2, 3, 0});
  tape->Backward(loss);
  return tape->value(loss).at(0, 0);
}

TEST(TapeResetTest, ReusedTapeMatchesFreshTapesBitwise) {
  util::Rng init(6);
  Parameter table(Tensor::Randn(5, 4, 0.5f, &init));
  Parameter w(Tensor::Randn(4, 4, 0.5f, &init));
  Parameter gain(Tensor(1, 4, {1.0f, 1.0f, 1.0f, 1.0f}));
  Parameter bias(Tensor(1, 4));
  Tape reused;
  for (int step = 0; step < 5; ++step) {
    // Identical RNG streams so dropout masks match between the two runs.
    util::Rng fresh_rng(100 + step);
    util::Rng reused_rng(100 + step);
    Tape fresh;
    const float fresh_loss =
        BuildGraphAndBackward(&fresh, &table, &w, &gain, &bias, &fresh_rng);
    const Tensor fresh_table_grad = table.grad();
    table.ZeroGrad();
    w.ZeroGrad();
    gain.ZeroGrad();
    bias.ZeroGrad();
    reused.Reset();
    const float reused_loss =
        BuildGraphAndBackward(&reused, &table, &w, &gain, &bias, &reused_rng);
    EXPECT_EQ(fresh_loss, reused_loss);
    ASSERT_TRUE(fresh_table_grad.SameShape(table.grad()));
    for (int i = 0; i < fresh_table_grad.rows(); ++i) {
      for (int j = 0; j < fresh_table_grad.cols(); ++j) {
        EXPECT_EQ(fresh_table_grad.at(i, j), table.grad().at(i, j));
      }
    }
    table.ZeroGrad();
    w.ZeroGrad();
    gain.ZeroGrad();
    bias.ZeroGrad();
  }
}

TEST(TapeResetTest, WarmReplayAllocatesNoTensors) {
  util::Rng init(7);
  Parameter table(Tensor::Randn(5, 4, 0.5f, &init));
  Parameter w(Tensor::Randn(4, 4, 0.5f, &init));
  Parameter gain(Tensor(1, 4, {1.0f, 1.0f, 1.0f, 1.0f}));
  Parameter bias(Tensor(1, 4));
  Tape tape;
  util::Rng warm_rng(8);
  BuildGraphAndBackward(&tape, &table, &w, &gain, &bias, &warm_rng);
  SetTensorMemTrackingEnabled(true);
  const uint64_t allocs_before = TensorMemStats().alloc_count;
  for (int step = 0; step < 4; ++step) {
    util::Rng rng(9 + step);
    tape.Reset();
    BuildGraphAndBackward(&tape, &table, &w, &gain, &bias, &rng);
  }
  const uint64_t allocs_after = TensorMemStats().alloc_count;
  SetTensorMemTrackingEnabled(false);
  EXPECT_EQ(allocs_after, allocs_before)
      << "replaying the same graph on a Reset tape must hit the pool";
}

TEST(TapeResetTest, ResetClearsNodesButKeepsTapeUsable) {
  Tape tape;
  VarId a = tape.Leaf(Tensor(2, 2, {1.0f, 2.0f, 3.0f, 4.0f}));
  tape.SumAll(a);
  EXPECT_EQ(tape.NumNodes(), 2u);
  tape.Reset();
  EXPECT_EQ(tape.NumNodes(), 0u);
  VarId b = tape.Leaf(Tensor(2, 2, {5.0f, 6.0f, 7.0f, 8.0f}));
  VarId total = tape.SumAll(b);
  EXPECT_FLOAT_EQ(tape.value(total).at(0, 0), 26.0f);
  tape.Backward(total);
  EXPECT_FLOAT_EQ(tape.grad(b).at(0, 0), 1.0f);
}

// ---------- Per-op profiler ----------

/// Serializes tests that toggle the process-wide profiler.
class TapeProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TapeProfiler::SetEnabled(true);
    TapeProfiler::Reset();
  }
  void TearDown() override {
    TapeProfiler::SetEnabled(false);
    TapeProfiler::Reset();
  }

  /// One matmul forward+backward: [4x5] @ [5x6].
  static void RunMatMulGraph() {
    Tape tape;
    VarId a = tape.Leaf(Tensor(4, 5, std::vector<float>(20, 0.5f)));
    VarId b = tape.Leaf(Tensor(5, 6, std::vector<float>(30, 0.25f)));
    tape.Backward(tape.SumAll(tape.MatMul(a, b)));
  }

  static const OpProfile* FindOp(const std::vector<OpProfile>& rows,
                                 OpKind kind) {
    for (const OpProfile& row : rows) {
      if (row.kind == kind) return &row;
    }
    return nullptr;
  }
};

TEST_F(TapeProfilerTest, DisabledRecordsNothing) {
  TapeProfiler::SetEnabled(false);
  RunMatMulGraph();
  EXPECT_TRUE(TapeProfiler::Snapshot().empty());
  EXPECT_TRUE(TapeProfiler::FormatTable().empty());
}

TEST_F(TapeProfilerTest, RecordsCallsTimeAndMatMulFlops) {
  RunMatMulGraph();
  const std::vector<OpProfile> rows = TapeProfiler::Snapshot();
  const OpProfile* mm = FindOp(rows, OpKind::kMatMul);
  ASSERT_NE(mm, nullptr);
  EXPECT_STREQ(mm->name, "matmul");
  EXPECT_EQ(mm->calls, 1u);
  EXPECT_EQ(mm->backward_calls, 1u);
  EXPECT_EQ(mm->flops, 2ull * 4 * 5 * 6);  // 2mkn
  EXPECT_GT(mm->bytes, 0u);
  EXPECT_GE(mm->forward_ms, 0.0);
  EXPECT_GE(mm->backward_ms, 0.0);
  // SumAll ran too, and the snapshot is sorted by total time descending.
  EXPECT_NE(FindOp(rows, OpKind::kSumAll), nullptr);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].TotalMs(), rows[i].TotalMs());
  }
}

TEST_F(TapeProfilerTest, ResetClearsAndTableMentionsOps) {
  RunMatMulGraph();
  const std::string table = TapeProfiler::FormatTable();
  EXPECT_NE(table.find("matmul"), std::string::npos);
  EXPECT_NE(table.find("sum_all"), std::string::npos);
  TapeProfiler::Reset();
  EXPECT_TRUE(TapeProfiler::Snapshot().empty());
}

TEST_F(TapeProfilerTest, ExportToPublishesPerOpSeries) {
  RunMatMulGraph();
  obs::MetricsRegistry reg;
  TapeProfiler::ExportTo(&reg);
  EXPECT_EQ(reg.GetCounter("nn/op/calls", {{"op", "matmul"}})->Value(), 1u);
  EXPECT_EQ(reg.GetCounter("nn/op/flops", {{"op", "matmul"}})->Value(),
            2ull * 4 * 5 * 6);
}

TEST_F(TapeProfilerTest, PerOpTapeCountersRoundTripThroughJsonl) {
  obs::MetricsRegistry& reg = obs::DefaultMetrics();
  const uint64_t agg_before = reg.GetCounter("nn/tape_ops_total")->Value();
  const uint64_t mm_before =
      reg.GetCounter("nn/tape_ops_total", {{"op", "matmul"}})->Value();
  RunMatMulGraph();
  // Graph: 2 leaves + matmul + sum_all = 4 nodes; exactly one matmul.
  EXPECT_EQ(reg.GetCounter("nn/tape_ops_total")->Value(), agg_before + 4);
  EXPECT_EQ(reg.GetCounter("nn/tape_ops_total", {{"op", "matmul"}})->Value(),
            mm_before + 1);
  // The labeled series must survive JSONL export with its label attached.
  std::ostringstream os;
  reg.WriteJsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.find("\"nn/tape_ops_total\"") == std::string::npos) continue;
    if (line.find("\"op\":\"matmul\"") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("\"type\":\"counter\""), std::string::npos) << line;
  }
  EXPECT_TRUE(found) << "no labeled nn/tape_ops_total{op=matmul} line";
}

}  // namespace
}  // namespace ucad::nn
