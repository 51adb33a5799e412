// Regenerates Fig 6: measured power reduction at 653 Gb/s broadcast
// delivery at 1 GHz, across the four configurations:
//   A: full-swing unicast network (3-stage, NIC-duplicated broadcasts)
//   B: low-swing unicast network
//   C: low-swing broadcast network (router multicast, no buffer bypass)
//   D: low-swing broadcast network with multicast buffer bypass (the chip)
// Configurations that cannot sustain 653 Gb/s delivered (A and B saturate
// below it) are measured near their own saturation and their *dynamic*
// power is extrapolated to 653 Gb/s worth of delivered bits; static power
// (clock, leakage, VC state) is load-independent.
#include <cstdio>

#include "common/table.hpp"
#include "noc/experiment.hpp"
#include "power/energy_model.hpp"
#include "power/tech_params.hpp"

using namespace noc;
using namespace noc::power;
using noc::Table;

namespace {

struct ConfigRow {
  const char* label;
  NetworkConfig net;
  bool lowswing;
  PowerBreakdown power;
};

PowerBreakdown measure_at_653(const NetworkConfig& net_cfg, bool lowswing) {
  const double target_gbps = 653.0;
  NetworkConfig cfg = net_cfg;
  cfg.traffic.pattern = TrafficPattern::BroadcastOnly;
  cfg.traffic.identical_prbs = true;
  auto sat = find_saturation(cfg, {.warmup = 2000, .window = 8000});
  const double want_offered =
      target_gbps / 1024.0 / deliveries_per_offered_flit(cfg) * 16.0;
  const double offered = std::min(want_offered, 0.9 * sat.saturation_offered);
  auto pt = measure_point(cfg, offered, {.warmup = 3000, .window = 10000});
  PowerBreakdown p = compute_power(pt.energy, 16, calibrated_tech45(), lowswing);
  const double scale = target_gbps / pt.recv_gbps;
  p.allocators_mw *= scale;
  p.lookahead_mw *= scale;
  p.buffers_mw *= scale;
  p.datapath_mw *= scale;
  return p;
}

}  // namespace

int main() {
  std::printf("Fig 6: Power reduction at 653 Gb/s broadcast delivery, 1GHz\n\n");

  ConfigRow rows[] = {
      {"A: full-swing unicast", NetworkConfig::baseline_3stage(4), false, {}},
      {"B: low-swing unicast", NetworkConfig::baseline_3stage(4), true, {}},
      {"C: + router-level broadcast", NetworkConfig::lowswing_multicast(4),
       true, {}},
      {"D: + multicast buffer bypass", NetworkConfig::proposed(4), true, {}},
  };
  for (auto& r : rows) r.power = measure_at_653(r.net, r.lowswing);

  Table t("Power breakdown at 653 Gb/s delivered (mW)");
  t.set_columns({"Config", "Clocking(+leak)", "Router logic", "Buffers",
                 "Datapath (xbar+links)", "Total"});
  for (const auto& r : rows) {
    t.add_row({r.label, Table::fmt(r.power.clocking_segment_mw(), 1),
               Table::fmt(r.power.router_logic_mw(), 1),
               Table::fmt(r.power.buffers_mw, 1),
               Table::fmt(r.power.datapath_mw, 1),
               Table::fmt(r.power.total_mw(), 1)});
  }
  t.print();

  const auto& A = rows[0].power;
  const auto& B = rows[1].power;
  const auto& C = rows[2].power;
  const auto& D = rows[3].power;

  Table h("Fig 6 called-out reductions");
  h.set_columns({"Optimization", "Category", "This repro", "Paper"});
  h.add_row({"A->B tri-state RSD crossbars", "datapath",
             Table::fmt_percent(1 - B.datapath_mw / A.datapath_mw), "48.3%"});
  h.add_row({"B->C router-level broadcast", "router logic",
             Table::fmt_percent(1 - C.router_logic_mw() / B.router_logic_mw()),
             "13.9%"});
  h.add_row({"C->D multicast buffer bypass", "buffers",
             Table::fmt_percent(1 - D.buffers_mw / C.buffers_mw), "32.2%"});
  h.add_row({"A->D all", "total",
             Table::fmt_percent(1 - D.total_mw() / A.total_mw()), "38.2%"});
  h.add_row({"Chip power at 653 Gb/s (config D)", "total",
             Table::fmt(D.total_mw(), 1) + " mW", "427.3 mW"});
  h.print();

  std::printf(
      "\nNotes: our event-count model also credits B->C with large datapath and\n"
      "buffer savings (one tree flit replaces 15 unicasts), so the A->D total\n"
      "reduction exceeds the paper's 38.2%%.\n"
      "Broadcasts in C/D share bandwidth until forced to fork, which is the\n"
      "mechanism behind every row of this figure (paper Sec 3.3/3.4).\n");
  return 0;
}
