// The textbook Fig-1 allocator path must not drift (docs/PERF.md Layer 5).
//
// The baseline_3stage / baseline_4stage factories model the paper's Fig-1
// reference router with actionable_sa1_requests = false: mSA-I considers
// every busy VC, including ones whose stage-2 request cannot possibly win
// this cycle. That wasteful-but-faithful behaviour is the comparison anchor
// for the paper's allocator claims, so datapath refactors (SoA busy masks,
// wide-mask arbiter inputs, the stepping engine) must leave it bit-identical.
// These goldens were recorded from the pre-refactor scalar implementation;
// every counter is an exact integer event count, so any allocator-visible
// change -- an extra arbitration, a reordered grant, a missed retry --
// fails loudly rather than shifting an average.
#include <gtest/gtest.h>

#include "noc/experiment.hpp"
#include "noc/network.hpp"

namespace noc {
namespace {

constexpr MeasureOptions kOpt{.warmup = 300, .window = 900};

TEST(TextbookAllocator, FactoriesKeepFig1Semantics) {
  // The knob itself: both textbook factories must request the
  // non-actionable mSA-I scan (and the proposed router must not).
  EXPECT_FALSE(NetworkConfig::baseline_3stage(4).router.actionable_sa1_requests);
  EXPECT_FALSE(NetworkConfig::baseline_4stage(4).router.actionable_sa1_requests);
  EXPECT_TRUE(NetworkConfig::proposed(4).router.actionable_sa1_requests);
}

TEST(TextbookAllocator, FourStageMixedGolden) {
  NetworkConfig cfg = NetworkConfig::baseline_4stage(4);
  cfg.traffic.pattern = TrafficPattern::MixedPaper;
  cfg.traffic.seed = 5;
  const PointResult r = measure_point(cfg, 0.06, kOpt);
  EXPECT_EQ(r.completed_packets, 432);
  EXPECT_EQ(r.energy.xbar_traversals, 14030);
  EXPECT_EQ(r.energy.link_traversals, 10188);
  EXPECT_EQ(r.energy.nic_link_traversals, 7683);
  EXPECT_EQ(r.energy.buffer_writes, 14028);
  EXPECT_EQ(r.energy.buffer_reads, 14030);
  EXPECT_EQ(r.energy.sa1_arbitrations, 16547);
  EXPECT_EQ(r.energy.sa2_arbitrations, 14031);
  EXPECT_EQ(r.energy.vc_allocations, 15760);
  EXPECT_EQ(r.energy.vc_active_cycles, 35055);
  // The Fig-1 router has no lookahead datapath at all.
  EXPECT_EQ(r.energy.lookaheads_sent, 0);
  EXPECT_EQ(r.energy.bypasses, 0);
}

TEST(TextbookAllocator, ThreeStageUniformGolden) {
  NetworkConfig cfg = NetworkConfig::baseline_3stage(4);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.seed = 5;
  const PointResult r = measure_point(cfg, 0.10, kOpt);
  EXPECT_EQ(r.completed_packets, 1461);
  EXPECT_EQ(r.energy.xbar_traversals, 5318);
  EXPECT_EQ(r.energy.link_traversals, 3856);
  EXPECT_EQ(r.energy.buffer_writes, 5315);
  EXPECT_EQ(r.energy.sa1_arbitrations, 5444);
  EXPECT_EQ(r.energy.sa2_arbitrations, 5321);
  EXPECT_EQ(r.energy.vc_allocations, 6771);
  EXPECT_EQ(r.energy.vc_active_cycles, 10781);
}

TEST(TextbookAllocator, FourStage8x8Golden) {
  // A larger mesh keeps multi-hop contention in the pinned regime (the 4x4
  // points are dominated by short paths).
  NetworkConfig cfg = NetworkConfig::baseline_4stage(8);
  cfg.traffic.pattern = TrafficPattern::UniformRequest;
  cfg.traffic.seed = 11;
  const PointResult r = measure_point(cfg, 0.08, kOpt);
  EXPECT_EQ(r.completed_packets, 4609);
  EXPECT_EQ(r.energy.xbar_traversals, 29170);
  EXPECT_EQ(r.energy.link_traversals, 24555);
  EXPECT_EQ(r.energy.buffer_writes, 29183);
  EXPECT_EQ(r.energy.sa1_arbitrations, 30233);
  EXPECT_EQ(r.energy.sa2_arbitrations, 29166);
  EXPECT_EQ(r.energy.vc_allocations, 33802);
  EXPECT_EQ(r.energy.vc_active_cycles, 59645);
}

TEST(TextbookAllocator, GoldenHoldsUnderEveryStepMode) {
  // The same pinned scenario gated, ungated and on four column spans: one
  // fingerprint, three schedules.
  int64_t ref_sa1 = -1;
  for (int mode = 0; mode < 3; ++mode) {
    NetworkConfig cfg = NetworkConfig::baseline_4stage(4);
    cfg.traffic.pattern = TrafficPattern::MixedPaper;
    cfg.traffic.seed = 5;
    cfg.activity_gating = mode != 1;
    cfg.step_threads = mode == 2 ? 4 : 1;
    const PointResult r = measure_point(cfg, 0.06, kOpt);
    EXPECT_EQ(r.completed_packets, 432) << "mode " << mode;
    EXPECT_EQ(r.energy.sa1_arbitrations, 16547) << "mode " << mode;
    EXPECT_EQ(r.energy.sa2_arbitrations, 14031) << "mode " << mode;
    if (ref_sa1 < 0) ref_sa1 = r.energy.sa1_arbitrations;
    EXPECT_EQ(r.energy.sa1_arbitrations, ref_sa1);
  }
}

}  // namespace
}  // namespace noc
