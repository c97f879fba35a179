// Fuzz-style randomized session-stream harness for streaming and
// cross-session scoring: many sessions with random lengths, resets, unknown
// keys, and out-of-order arrival are interleaved through a SHARED detector
// (whose context pool hands each call a workspace warmed by other
// sessions), and every session's verdict sequence must match a clean
// serial replay on a separate reference detector. The concurrent variants
// run under TSan in CI (UCAD_SANITIZE=thread, UCAD_THREADS=4).

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "transdas/config.h"
#include "transdas/detector.h"
#include "transdas/model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ucad {
namespace {

transdas::TransDasConfig FuzzConfig() {
  transdas::TransDasConfig config;
  config.vocab_size = 19;
  config.window = 6;
  config.hidden_dim = 8;
  config.num_heads = 2;
  config.num_blocks = 2;
  return config;
}

/// A session plus its streaming state inside the interleaved run.
struct Stream {
  std::vector<int> keys;
  size_t pos = 0;
  std::vector<transdas::OperationVerdict> verdicts;
};

std::vector<Stream> RandomStreams(int count, int vocab, int max_len,
                                  util::Rng* rng) {
  std::vector<Stream> streams(count);
  for (Stream& s : streams) {
    s.keys.resize(1 + rng->UniformU64(max_len));
    for (int& key : s.keys) {
      const uint64_t pick = rng->UniformU64(16);
      if (pick == 0) {
        key = -7;  // unknown: negative
      } else if (pick == 1) {
        key = vocab + static_cast<int>(rng->UniformU64(3));  // unknown: high
      } else {
        key = static_cast<int>(rng->UniformU64(vocab));
      }
    }
  }
  return streams;
}

void ExpectOperationEqual(const transdas::OperationVerdict& a,
                          const transdas::OperationVerdict& b) {
  ASSERT_EQ(a.rank, b.rank);
  ASSERT_EQ(a.abnormal, b.abnormal);
  ASSERT_EQ(a.score, b.score);
  ASSERT_EQ(a.margin, b.margin);
}

/// Serially replays `keys` on `reference` and checks the recorded verdicts.
void ExpectMatchesSerialReplay(const transdas::TransDasDetector& reference,
                               const Stream& s) {
  ASSERT_EQ(s.verdicts.size(), s.keys.size());
  for (size_t i = 0; i < s.keys.size(); ++i) {
    const std::vector<int> preceding(s.keys.begin(), s.keys.begin() + i);
    ExpectOperationEqual(reference.ScoreNextOperation(preceding, s.keys[i]),
                         s.verdicts[i]);
  }
}

class StreamFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamFuzzTest, InterleavedStreamsWithResetsMatchSerialReplay) {
  util::Rng rng(GetParam());
  const transdas::TransDasConfig config = FuzzConfig();
  transdas::TransDasModel model(config, &rng);
  const transdas::TransDasDetector detector(&model,
                                            transdas::DetectorOptions{});
  const transdas::TransDasDetector reference(&model,
                                             transdas::DetectorOptions{});

  std::vector<Stream> streams =
      RandomStreams(10, config.vocab_size, 25, &rng);
  // Random interleave: at every step pick any unfinished stream and advance
  // it one operation; occasionally reset a stream to position 0 (its
  // recorded run restarts, so the final record is one clean pass). Arrival
  // order across sessions is therefore arbitrary, and the shared context
  // pool hands each call a workspace last used by ANOTHER session — which
  // must never leak into a verdict.
  bool remaining = true;
  while (remaining) {
    remaining = false;
    std::vector<size_t> open;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].pos < streams[i].keys.size()) open.push_back(i);
    }
    if (open.empty()) break;
    remaining = true;
    Stream& s = streams[open[rng.UniformU64(open.size())]];
    if (s.pos > 0 && rng.UniformU64(20) == 0) {
      s.pos = 0;
      s.verdicts.clear();
      continue;
    }
    const std::vector<int> preceding(s.keys.begin(), s.keys.begin() + s.pos);
    s.verdicts.push_back(
        detector.ScoreNextOperation(preceding, s.keys[s.pos]));
    ++s.pos;
  }
  for (const Stream& s : streams) {
    ExpectMatchesSerialReplay(reference, s);
  }
}

TEST_P(StreamFuzzTest, ShuffledSessionBatchesMatchPerSessionVerdicts) {
  util::Rng rng(GetParam() + 1000);
  const transdas::TransDasConfig config = FuzzConfig();
  transdas::TransDasModel model(config, &rng);
  const transdas::TransDasDetector detector(&model,
                                            transdas::DetectorOptions{});
  const transdas::TransDasDetector reference(&model,
                                             transdas::DetectorOptions{});
  std::vector<Stream> streams =
      RandomStreams(14, config.vocab_size, 30, &rng);
  // Present the sessions in a random order (out-of-order arrival into the
  // cross-session fan-out): verdicts must be independent of the ordering
  // and of which sessions' spans share the pool sweep.
  std::vector<size_t> order(streams.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformU64(i)]);
  }
  std::vector<std::vector<int>> sessions;
  sessions.reserve(order.size());
  for (size_t idx : order) sessions.push_back(streams[idx].keys);
  const std::vector<transdas::SessionVerdict> verdicts =
      detector.DetectSessions(sessions);
  ASSERT_EQ(verdicts.size(), sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    const transdas::SessionVerdict expected =
        reference.DetectSession(sessions[i]);
    ASSERT_EQ(expected.abnormal, verdicts[i].abnormal);
    ASSERT_EQ(expected.operations.size(), verdicts[i].operations.size());
    for (size_t k = 0; k < expected.operations.size(); ++k) {
      ASSERT_EQ(expected.operations[k].position,
                verdicts[i].operations[k].position);
      ExpectOperationEqual(expected.operations[k], verdicts[i].operations[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamFuzzTest,
                         ::testing::Values(11u, 29u, 47u));

TEST(StreamFuzzConcurrencyTest, ConcurrentStreamsAndBatchesStayExact) {
  // TSan target: four external threads stream disjoint session sets through
  // ONE shared detector (pooled contexts migrate between sessions) while a
  // fifth hammers cross-session DetectSessions, all above an active
  // internal pool. Afterwards every recorded verdict
  // must match a clean serial replay — races would show up either as TSan
  // reports or as verdict drift.
  util::SetNumThreads(2);
  util::Rng rng(5);
  const transdas::TransDasConfig config = FuzzConfig();
  transdas::TransDasModel model(config, &rng);
  transdas::TransDasDetector detector(&model, transdas::DetectorOptions{});

  constexpr int kThreads = 4;
  std::vector<std::vector<Stream>> lanes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    lanes[t] = RandomStreams(4, config.vocab_size, 18, &rng);
  }
  std::vector<std::vector<int>> batch_sessions;
  for (const Stream& s : RandomStreams(6, config.vocab_size, 20, &rng)) {
    batch_sessions.push_back(s.keys);
  }

  std::atomic<bool> failed{false};
  auto drive = [&detector, &failed](std::vector<Stream>* streams,
                                    uint64_t seed) {
    util::Rng lane_rng(seed);
    bool remaining = true;
    while (remaining && !failed.load(std::memory_order_relaxed)) {
      remaining = false;
      std::vector<size_t> open;
      for (size_t i = 0; i < streams->size(); ++i) {
        if ((*streams)[i].pos < (*streams)[i].keys.size()) open.push_back(i);
      }
      if (open.empty()) break;
      remaining = true;
      Stream& s = (*streams)[open[lane_rng.UniformU64(open.size())]];
      const std::vector<int> preceding(s.keys.begin(),
                                       s.keys.begin() + s.pos);
      s.verdicts.push_back(
          detector.ScoreNextOperation(preceding, s.keys[s.pos]));
      ++s.pos;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(drive, &lanes[t], 100 + t);
  }
  std::vector<std::vector<transdas::SessionVerdict>> batch_runs(3);
  threads.emplace_back([&detector, &batch_sessions, &batch_runs] {
    for (auto& run : batch_runs) {
      run = detector.DetectSessions(batch_sessions);
    }
  });
  for (std::thread& t : threads) t.join();
  util::SetNumThreads(1);

  const transdas::TransDasDetector reference(&model,
                                             transdas::DetectorOptions{});
  for (const std::vector<Stream>& lane : lanes) {
    for (const Stream& s : lane) {
      ExpectMatchesSerialReplay(reference, s);
    }
  }
  for (const std::vector<transdas::SessionVerdict>& run : batch_runs) {
    ASSERT_EQ(run.size(), batch_sessions.size());
    for (size_t i = 0; i < batch_sessions.size(); ++i) {
      const transdas::SessionVerdict expected =
          reference.DetectSession(batch_sessions[i]);
      ASSERT_EQ(expected.abnormal, run[i].abnormal);
      ASSERT_EQ(expected.operations.size(), run[i].operations.size());
      for (size_t k = 0; k < expected.operations.size(); ++k) {
        ExpectOperationEqual(expected.operations[k], run[i].operations[k]);
      }
    }
  }
}

}  // namespace
}  // namespace ucad
