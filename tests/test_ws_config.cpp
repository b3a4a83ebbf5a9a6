// Configuration mapping tests: Figure-3 labels to protocol settings,
// validation, and the algorithm list.
#include <gtest/gtest.h>

#include "ws/config.hpp"

namespace {

using namespace upcws::ws;

TEST(Labels, MatchFigure3) {
  EXPECT_STREQ(algo_label(Algo::kUpcSharedMem), "upc-sharedmem");
  EXPECT_STREQ(algo_label(Algo::kUpcTerm), "upc-term");
  EXPECT_STREQ(algo_label(Algo::kUpcTermRapdif), "upc-term-rapdif");
  EXPECT_STREQ(algo_label(Algo::kUpcDistMem), "upc-distmem");
  EXPECT_STREQ(algo_label(Algo::kMpiWs), "mpi-ws");
}

TEST(ForAlgo, SharedMemIsSection31) {
  const WsConfig c = WsConfig::for_algo(Algo::kUpcSharedMem, 16);
  EXPECT_EQ(c.chunk_size, 16);
  EXPECT_EQ(c.protocol, StackProtocol::kLocked);
  EXPECT_EQ(c.steal_amount, StealAmount::kOneChunk);
  EXPECT_EQ(c.termination, Termination::kCancelableBarrier);
}

TEST(ForAlgo, TermAddsOnlyStreamlinedTermination) {
  const WsConfig c = WsConfig::for_algo(Algo::kUpcTerm);
  EXPECT_EQ(c.protocol, StackProtocol::kLocked);
  EXPECT_EQ(c.steal_amount, StealAmount::kOneChunk);
  EXPECT_EQ(c.termination, Termination::kProbeBarrier);
}

TEST(ForAlgo, RapdifAddsStealHalf) {
  const WsConfig c = WsConfig::for_algo(Algo::kUpcTermRapdif);
  EXPECT_EQ(c.protocol, StackProtocol::kLocked);
  EXPECT_EQ(c.steal_amount, StealAmount::kHalf);
  EXPECT_EQ(c.termination, Termination::kProbeBarrier);
}

TEST(ForAlgo, DistMemIsLockless) {
  const WsConfig c = WsConfig::for_algo(Algo::kUpcDistMem);
  EXPECT_EQ(c.protocol, StackProtocol::kRequestResponse);
  EXPECT_EQ(c.steal_amount, StealAmount::kHalf);
  EXPECT_EQ(c.termination, Termination::kProbeBarrier);
}

TEST(ForAlgo, MpiUsesTokenTermination) {
  const WsConfig c = WsConfig::for_algo(Algo::kMpiWs);
  EXPECT_EQ(c.termination, Termination::kToken);
  EXPECT_EQ(c.steal_amount, StealAmount::kOneChunk);
}

TEST(ForAlgo, LifelineLayersParkingOnDistMemBase) {
  const WsConfig c = WsConfig::for_algo(Algo::kLifeline);
  EXPECT_EQ(c.protocol, StackProtocol::kRequestResponse);
  EXPECT_EQ(c.steal_amount, StealAmount::kHalf);
  EXPECT_EQ(c.termination, Termination::kProbeBarrier);
  EXPECT_EQ(c.victim_policy, VictimPolicy::kLifeline);
}

TEST(ForAlgo, SamplingLayersQuantileSelectionOnDistMemBase) {
  const WsConfig c = WsConfig::for_algo(Algo::kSampling);
  EXPECT_EQ(c.protocol, StackProtocol::kRequestResponse);
  EXPECT_EQ(c.steal_amount, StealAmount::kHalf);
  EXPECT_EQ(c.termination, Termination::kProbeBarrier);
  EXPECT_EQ(c.victim_policy, VictimPolicy::kSampling);
}

TEST(ForAlgo, PaperVariantsKeepRandomVictimPolicy) {
  for (Algo a : kAllAlgos)
    EXPECT_EQ(WsConfig::for_algo(a).victim_policy, VictimPolicy::kRandom)
        << algo_label(a);
}

TEST(Validate, RejectsBadValues) {
  WsConfig c;
  c.chunk_size = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.poll_interval = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  EXPECT_NO_THROW(c.validate());
}

TEST(Validate, RejectsBadVictimPolicyKnobs) {
  WsConfig c;
  c.sample_frac = 0.0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.sample_frac = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.quantile = -0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.quantile = 1.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.lifeline_dim = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = WsConfig{};
  c.sample_frac = 1.0;
  c.quantile = 0.0;
  c.lifeline_dim = 3;
  EXPECT_NO_THROW(c.validate());
}

TEST(AlgoList, CoversAllFive) {
  int n = 0;
  for (Algo a : kAllAlgos) {
    (void)a;
    ++n;
  }
  EXPECT_EQ(n, 5);
}

TEST(AlgoList, ExtendedListIsTheCanon) {
  // kAllAlgosExtended must enumerate every enum member exactly once (the
  // count is also a static_assert in config.hpp) and start with the paper
  // five in ladder order.
  int n = 0;
  for (Algo a : kAllAlgosExtended) {
    (void)a;
    ++n;
  }
  EXPECT_EQ(n, kAlgoCount);
  for (std::size_t i = 0; i < std::size(kAllAlgos); ++i)
    EXPECT_EQ(kAllAlgosExtended[i], kAllAlgos[i]) << i;
}

}  // namespace
