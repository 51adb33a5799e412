// Drain correctness: Network::quiescent() must stay false while ANY message
// is still on a wire -- including credits and lookaheads, which the old
// implementation ignored (it scanned flit channels only). A drain phase that
// ends with a credit in flight hands the next measurement window a network
// whose flow-control state is still settling. A packet submitted between
// steps must count at once, whatever the number of step spans.
#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "sim/simulation.hpp"

namespace noc {
namespace {

NetworkConfig silent_config(bool gating) {
  NetworkConfig cfg = NetworkConfig::proposed(4);
  cfg.activity_gating = gating;
  cfg.traffic.offered_flits_per_node_cycle = 0.0;  // packets injected by hand
  return cfg;
}

Packet single_flit_packet(NodeId src, NodeId dest, Cycle now) {
  uint64_t local_id = 0;
  Packet pkt;
  pkt.id = make_packet_id(src, local_id);
  pkt.src = src;
  pkt.dest_mask = MeshGeometry::node_mask(dest);
  pkt.mc = MsgClass::Request;
  pkt.length = 1;
  pkt.gen_cycle = now;
  return pkt;
}

class QuiescenceTest : public ::testing::TestWithParam<bool> {};

TEST_P(QuiescenceTest, CreditInFlightBlocksQuiescence) {
  Network net(silent_config(GetParam()));
  Simulation sim(net);
  ASSERT_TRUE(net.quiescent());

  net.nic(0).submit_packet(single_flit_packet(0, 1, sim.now()));
  EXPECT_FALSE(net.quiescent());

  // Step to the cycle the packet completes: the ejecting NIC has just put
  // its buffer credit on the wire (and upstream VC-release credits may
  // still be propagating), so the network must NOT report quiescent even
  // though every packet is delivered.
  ASSERT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() == 1; }, 100));
  EXPECT_EQ(net.metrics().open_packets(), 0);
  EXPECT_GT(net.channel_items(), 0);  // the parked credit
  EXPECT_FALSE(net.quiescent());

  // Once the credits land and recycle, quiescence must follow -- and only
  // with an empty channel counter.
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 100));
  EXPECT_EQ(net.channel_items(), 0);
}

TEST_P(QuiescenceTest, DrainOutlastsTheLastDelivery) {
  // Count how many cycles quiescence trails the last delivery: it must be
  // at least the credit-return latency (> 0), i.e. the old flit-only scan
  // would have ended the drain early.
  Network net(silent_config(GetParam()));
  Simulation sim(net);
  net.nic(5).submit_packet(single_flit_packet(5, 6, sim.now()));
  ASSERT_TRUE(sim.run_until(
      [&] { return net.metrics().total_completed() == 1; }, 100));
  const Cycle delivered_at = sim.now();
  ASSERT_TRUE(sim.run_until([&] { return net.quiescent(); }, 100));
  EXPECT_GT(sim.now(), delivered_at);
}

INSTANTIATE_TEST_SUITE_P(GatedAndFull, QuiescenceTest,
                         ::testing::Values(true, false));

// A packet submitted between steps is accounted at once in every stepping
// mode: metrics() and quiescent() must not wait for the next step to see
// it. The only destination, corner node 15, is cut off, so the packet is
// counted generated and dropped at the door and nothing is left in flight.
class BetweenStepsTest : public ::testing::TestWithParam<int> {};

TEST_P(BetweenStepsTest, SubmissionIsVisibleBeforeTheNextStep) {
  NetworkConfig cfg = silent_config(true);
  cfg.step_threads = GetParam();
  cfg.fault.kill_link(0, 15, 14).kill_link(0, 15, 11);
  Network net(cfg);
  Simulation sim(net);
  sim.run(1);  // let the cycle-0 kills apply before submitting
  net.nic(0).submit_packet(single_flit_packet(0, 15, sim.now()));
  EXPECT_EQ(net.metrics().total_generated(), 1);
  EXPECT_EQ(net.metrics().total_dropped(), 1);
  EXPECT_TRUE(net.quiescent());
}

INSTANTIATE_TEST_SUITE_P(StepThreads, BetweenStepsTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace noc
