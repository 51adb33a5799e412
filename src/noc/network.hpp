#pragma once
// Network: assembles the k x k mesh of routers and NICs (paper Fig 2) and
// drives them in the per-cycle phase order required by the timing model:
//
//   1. all links deliver this cycle's arrivals
//   2. NIC injection halves tick (they raise latency-0 lookaheads that the
//      routers' mSA-II must see this same cycle)
//   3. routers tick (credits -> ST/BW -> mSA-II -> mSA-I/VA)
//   4. NIC ejection halves tick (drain flits the routers sent last cycle)

// Each directed hop (router->router, NIC->router, router->NIC) is one Link
// (noc/router.hpp): its flit, credit and lookahead wires travel together,
// so a link is the unit of ownership, activity tracking and deferral.
//
// Every step runs one schedule over column spans (src/noc/partition.hpp):
// each span delivers its owned links, then ticks its NIC injection
// halves, routers and NIC ejection halves. A worker team runs a fixed
// two-phase barrier schedule: compute span-local state, barrier, commit
// cross-span link sends, barrier, then the main thread replays what
// the spans' MetricsRecorders buffered -- metrics and trace events, and
// recorded workload packets -- in deterministic (phase, node) order.
// Between steps the recorders apply at once, so a packet submitted there
// is counted before the next step in every mode. Serial stepping is one
// span on a one-worker team; a network whose thread budget granted no
// helpers steps its spans on a one-worker team too. Results -- metrics,
// energy counters, Perfetto trace events and recorded traces -- are
// bit-identical to serial stepping for every pattern, workload, policy
// and gating mode (docs/PERF.md Layer 4).
//
// Activity gating (NetworkConfig::activity_gating, the default) makes each
// pass walk only the components that can possibly do work this cycle:
// links holding in-flight messages, routers with buffered or latched
// state, NICs with queued packets / undrained flits, and NICs whose
// TrafficSource may fire. Wake-up edges (message arrival, the latency-0
// injection lookahead, source fire predictions, external submissions)
// re-arm sleepers. Gating off walks an all-nodes mask through the same
// loop; it is kept as the equivalence oracle, and metrics are
// bit-identical either way (tests/test_gating_equivalence.cpp).

#include <memory>
#include <vector>

#include "common/active_set.hpp"
#include "noc/energy_events.hpp"
#include "noc/fault.hpp"
#include "noc/metrics.hpp"
#include "noc/nic.hpp"
#include "noc/partition.hpp"
#include "noc/router.hpp"
#include "noc/telemetry.hpp"
#include "noc/traffic.hpp"
#include "noc/workload.hpp"
#include "sim/simulation.hpp"
#include "sim/step_team.hpp"

namespace noc {

struct NetworkConfig {
  int k = 4;
  /// Mesh rows; 0 (the default) means square (rows = k). Rectangular
  /// geometries keep row-major node ids (id = y * k + x) with k columns.
  int ky = 0;
  RouterConfig router;
  TrafficConfig traffic;
  /// Which TrafficSource family drives the NICs (docs/WORKLOADS.md). The
  /// default open loop reads `traffic` unchanged, so existing configs keep
  /// their exact behaviour.
  WorkloadSpec workload;

  /// Deterministic fault schedule (docs/FAULTS.md): link kills / revivals
  /// and router arbiter degrades applied at cycle boundaries. Empty (the
  /// default) keeps the pristine datapath bit-identical to pre-fault
  /// builds; non-empty switches the MinimalAdaptive escape lane to the
  /// surviving-topology up*/down* tree from cycle 0 (docs/ROUTING.md).
  FaultPlan fault;

  /// Observability probes (docs/OBSERVABILITY.md): stall attribution,
  /// time-series sampling and the packet-lifecycle trace. Disabled (the
  /// default) the Network never constructs the Telemetry instance and the
  /// datapath pays one untaken null test per hook.
  TelemetryConfig telemetry;

  /// Activity-gated stepping (docs/PERF.md): idle routers, NICs and drained
  /// links are skipped each cycle. Metrics are bit-identical either way
  /// (enforced by tests/test_gating_equivalence.cpp); turning it off walks
  /// every component, the oracle the gated walk is checked against.
  bool activity_gating = true;

  /// Intra-network parallel stepping (docs/PERF.md Layer 4): partition the
  /// mesh into up to `step_threads` column spans driven by a worker team.
  /// Metrics are bit-identical to serial stepping for ANY value; the number
  /// of threads actually running is additionally clamped by the process-wide
  /// thread_budget, which changes scheduling but never results. 1 = serial.
  int step_threads = 1;

  /// The paper's four measured configurations (Fig 5/6/13).
  static NetworkConfig proposed(int k = 4);          // D: bypass + multicast
  static NetworkConfig lowswing_multicast(int k = 4);  // C: multicast, no bypass
  static NetworkConfig baseline_3stage(int k = 4);   // A/B: unicast, fused ST+LT
  static NetworkConfig baseline_4stage(int k = 4);   // Fig 1 textbook router
};

class Network : public Steppable {
 public:
  explicit Network(const NetworkConfig& cfg);
  ~Network();

  // Links and the activity machinery hold pointers back into this
  // object (wake masks, counters): pin it.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void step(Cycle now) override;

  const NetworkConfig& config() const { return cfg_; }
  const MeshGeometry& geom() const { return geom_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }
  /// Network-wide energy event counts: the sum of the spans' integer
  /// counters (order-free), with `cycles` from the step count.
  EnergyCounters energy() const;
  Router& router(NodeId n) { return *routers_[static_cast<size_t>(n)]; }
  Nic& nic(NodeId n) { return *nics_[static_cast<size_t>(n)]; }
  /// Fault-schedule state (FaultState::enabled() is false for empty plans).
  const FaultState& faults() const { return fault_state_; }
  /// Telemetry sink; null unless NetworkConfig::telemetry.enabled.
  Telemetry* telemetry() { return telemetry_.get(); }
  const Telemetry* telemetry() const { return telemetry_.get(); }
  TrafficSource& source(NodeId n) { return *sources_[static_cast<size_t>(n)]; }

  /// Capture every logical packet submitted at any NIC into `out`
  /// (replayable through WorkloadKind::Trace). Pass nullptr to stop.
  /// Packets submitted inside a step reach `out` at the end of that step,
  /// in serial order; packets submitted between steps at once.
  void record_trace(Trace* out);

  /// Open the metrics window and reset every source's per-window stats
  /// (transaction counts / latencies); close it again with
  /// end_measurement_window. Sweeps use these instead of driving
  /// metrics().begin_window directly so closed-loop statistics stay
  /// window-scoped.
  void begin_measurement_window(Cycle now);
  void end_measurement_window(Cycle now);

  /// True when no packet is anywhere in flight and no source holds pending
  /// work (outstanding closed-loop misses, unreplayed trace records). Every
  /// wire of a link counts: a credit or lookahead still on a wire blocks
  /// quiescence (drain phases must not end while flow-control state is in
  /// flight), tracked by an O(1) counter rather than a link scan.
  bool quiescent() const;

  /// Messages of any kind (flits, credits, lookaheads) currently on the
  /// links' wires, including arrivals not yet recycled.
  int64_t channel_items() const;

  // ---- parallel-stepping introspection (tests, docs/PERF.md Layer 4) ----

  /// Number of column spans the step loop drives; 1 in serial mode.
  int num_step_spans() const { return static_cast<int>(spans_.size()); }
  /// Workers actually running per step (after thread_budget clamping).
  int step_workers() const { return team_->workers(); }
  /// The column partition (a single span in serial mode).
  const SpanPartition& partition() const { return part_; }
  /// Links in the pool; a link's id is its pool index.
  int num_links() const { return static_cast<int>(links_.size()); }
  /// Link ids owned by span `s` (owner = receiver's span), ascending.
  std::vector<int> span_link_ids(int s) const;
  /// Nodes owned by span `s`, ascending.
  std::vector<NodeId> span_nodes(int s) const { return part_.nodes_of(s); }
  /// Deferred (cross-span) links owned by span `s`.
  int span_cross_link_count(int s) const {
    return static_cast<int>(spans_[static_cast<size_t>(s)].cross.size());
  }

 private:
  /// Everything one worker exclusively owns while stepping its column span.
  /// Serial stepping is a single span that owns every node and link.
  /// Components count energy into their span's counters and record
  /// metrics, trace events and workload records through its recorder,
  /// which the main thread drains each step in deterministic order. All
  /// scratch is sized at partition time (zero-alloc invariant).
  struct StepSpan {
    DestMask owned;  // the span's nodes: the ungated pass set
    // Owned links (receiver in span), and the deferred subset whose sender
    // lives in another span.
    std::vector<Link*> links, cross;
    // Activity machinery (docs/PERF.md Layer 3). Owned links register on
    // `active` while any wire holds messages; `items` counts their in-flight
    // messages in both gating modes (quiescent() needs it). Awake bits are
    // set by wake edges and cleared when a component's post-tick state
    // shows it cannot act next cycle; next_timed_wake caches the earliest
    // inject_wake_at_ entry of the span's nodes.
    ActiveList active;
    int64_t items = 0;
    DestMask router_awake;
    DestMask inject_awake;
    DestMask eject_awake;
    Cycle next_timed_wake = kCycleNever;
    MetricsRecorder rec;   // the span's routers' and NICs' recording sink
    EnergyCounters energy; // the span's routers and NICs
    size_t replay_cursor = 0;
  };

  struct StepCtx {
    Network* net;
    Cycle now;
  };

  /// Append the link `from` -> `to` to the pool and hand it to the
  /// receiver's span, deferred when the sender lives in another span.
  Link* make_link(NodeId from, NodeId to, int la_latency);

  StepSpan& span_of(NodeId node) {
    return spans_[static_cast<size_t>(part_.span_of_node(node))];
  }
  /// Nodes a pass visits: the awake set under activity gating, every owned
  /// node without it.
  DestMask pass_mask(const StepSpan& sp, const DestMask& awake) const {
    return cfg_.activity_gating ? awake : sp.owned;
  }

  void setup_activity();
  /// Apply fault-schedule events stamped <= now, pushing the updated
  /// dead-port masks / degrade flags into the affected routers. Runs on
  /// the main thread at the top of step(), before gating decisions and
  /// before the span fan-out, so the schedule commutes with activity
  /// gating and span decomposition.
  void apply_faults(Cycle now);
  /// Append one time-series sample (main thread, end of step(), after the
  /// merge so the cumulative counters are whole-network values).
  void sample_telemetry(Cycle now);

  void span_begin(StepSpan& sp, Cycle now);
  void span_compute(StepSpan& sp, Cycle now);
  void span_commit(StepSpan& sp, Cycle now);
  void span_inject_tick(StepSpan& sp, int node, Cycle now);
  void span_router_tick(StepSpan& sp, int node, Cycle now);
  void span_eject_tick(StepSpan& sp, int node, Cycle now);
  void merge_spans();
  static void compute_thunk(void* ctx, int worker);
  static void commit_thunk(void* ctx, int worker);

  NetworkConfig cfg_;
  MeshGeometry geom_;
  Metrics metrics_;
  int64_t cycles_ = 0;  // steps taken: energy().cycles
  FaultState fault_state_;
  std::unique_ptr<Telemetry> telemetry_;  // null unless telemetry.enabled

  // The one link pool (docs/PERF.md Layer 5): the gated per-cycle sweep
  // touches most links at saturation, so keeping the Link objects
  // themselves in one array (instead of heap-scattered unique_ptrs) makes
  // that walk cache-friendly. Capacity is reserved exactly in the
  // constructor before wiring -- handed-out pointers stay stable.
  std::vector<Link> links_;
  std::vector<std::unique_ptr<Router>> routers_;
  std::vector<std::unique_ptr<TrafficSource>> sources_;
  std::vector<std::unique_ptr<Nic>> nics_;

  // --- the span schedule (docs/PERF.md Layers 3-4) ---
  SpanPartition part_;
  std::vector<StepSpan> spans_;     // one per column span; one when serial
  std::unique_ptr<StepTeam> team_;  // one worker when serial or starved
  int budget_lease_ = 0;            // extra threads leased from thread_budget
  Trace* trace_out_ = nullptr;      // record_trace target
  // Timed injection wake-ups for sources that promise a future fire cycle
  // (identical-PRBS intervals, trace records, closed-loop response due
  // times), one entry per node; each is only touched by its node's span.
  std::vector<Cycle> inject_wake_at_;
};

}  // namespace noc
