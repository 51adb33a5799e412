#pragma once
// Network-level measurement: packet latency (to the LAST destination for
// multicasts, per the paper's "complete action" definition), received
// throughput, and per-link channel loads.
//
// Latency is measured from packet *generation* (so source queueing counts,
// which the paper's saturation definition -- latency reaching 3x the no-load
// latency -- requires), to the cycle the tail flit is drained at the last
// destination NIC.

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "noc/flit.hpp"
#include "noc/geometry.hpp"
#include "noc/routing.hpp"
#include "noc/telemetry.hpp"

namespace noc {

/// Fixed-bin latency histogram (docs/OBSERVABILITY.md): one bin per cycle
/// of latency, pow-2 bin count, held inline so recording is a single
/// array increment with no heap traffic. Packet latencies are integer
/// cycle counts, so percentiles below kBins are *exact*; samples at or
/// above kBins land in an overflow count (min/max still tracked exactly)
/// and percentile() falls back to the observed max when the requested
/// rank lies in the overflow region.
class LatencyHistogram {
 public:
  static constexpr int kBins = 1 << 12;

  void add(Cycle lat) {
    ++count_;
    if (lat < min_) min_ = lat;
    if (lat > max_) max_ = lat;
    if (lat >= 0 && lat < kBins)
      ++bins_[static_cast<size_t>(lat)];
    else
      ++overflow_;
  }
  void reset() {
    bins_.fill(0);
    count_ = overflow_ = 0;
    min_ = std::numeric_limits<Cycle>::max();
    max_ = 0;
  }

  int64_t count() const { return count_; }
  int64_t overflow() const { return overflow_; }
  Cycle min() const { return count_ > 0 ? min_ : 0; }
  Cycle max() const { return count_ > 0 ? max_ : 0; }
  /// Smallest latency L such that at least ceil(q * count) samples are
  /// <= L. Exact for samples below kBins; 0 when empty.
  Cycle percentile(double q) const;

 private:
  std::array<int64_t, kBins> bins_{};
  int64_t count_ = 0;
  int64_t overflow_ = 0;
  Cycle min_ = std::numeric_limits<Cycle>::max();
  Cycle max_ = 0;
};

/// Classification used for per-traffic-type statistics.
enum class PacketKind { UnicastRequest, UnicastResponse, Broadcast };
constexpr int kNumPacketKinds = 3;

/// One deferred packet-lifecycle event recorded by a per-span Metrics shard
/// during parallel stepping, replayed into the shared Metrics in serial
/// order (docs/PERF.md Layer 4). `node` is the node whose tick produced the
/// event; replay walks nodes in ascending order, which reconstructs the
/// exact serial call sequence (and therefore the exact floating-point
/// accumulation order of the latency statistics, and the exact position of
/// every packet-lifecycle trace event).
struct CapturedMetricsEvent {
  enum class Kind : uint8_t {
    LogicalPacket,
    FlitReceived,
    PacketDropped,
    Trace
  };
  Kind kind;
  bool tail = false;                             // FlitReceived
  TraceEventType trace_type = TraceEventType::PacketBegin;  // Trace
  uint8_t aux = 0;                               // Trace
  PacketKind pkind = PacketKind::UnicastRequest; // LogicalPacket
  NodeId node = 0;
  int deliveries = 0;  // LogicalPacket: required; PacketDropped: lost
  int track = 0;       // Trace: the event's router track
  PacketId id = 0;
  Cycle cycle = 0;  // generation, receive/drop cycle, or trace timestamp
};

/// Tick phases a capture shard distinguishes: events from tick_inject
/// (submission + NIC-duplicated local deliveries + injection-side drops)
/// replay before any router-tick event (fault-mode drop retirements),
/// which replay before any tick_eject event -- mirroring the serial phase
/// order exactly.
enum : int {
  kCaptureInject = 0,
  kCaptureRouter = 1,
  kCaptureEject = 2,
  kNumCapturePhases = 3
};

class Metrics {
 public:
  explicit Metrics(const MeshGeometry& geom);

  // ---- recording interface (called by NICs / routers) ----

  /// A logical packet came into existence. `deliveries` is the number of
  /// tail-flit deliveries required for completion (dest count; for a
  /// NIC-duplicated broadcast the copies share the logical id so the latency
  /// spans all of them).
  void on_logical_packet(PacketId logical_id, PacketKind kind, Cycle gen,
                         int deliveries);

  /// A flit was drained at a destination NIC.
  void on_flit_received(PacketId logical_id, const Flit& f, Cycle now);

  /// `count` of a logical packet's required deliveries will never happen
  /// (docs/FAULTS.md): destinations unreachable on the surviving topology,
  /// counted by the NIC at submission or by a router retiring a fault-mode
  /// drop branch. A packet with any dropped delivery counts toward
  /// dropped_packets (never completed_packets) once nothing remains open,
  /// keeping generated == completed + dropped conservation exact.
  void on_packet_dropped(PacketId logical_id, int count, Cycle now);

  /// A flit crossed the link leaving `node` through `port` (Local = ejection
  /// link toward the NIC). Injection links are recorded via
  /// on_injection_link.
  void on_link_flit(NodeId node, PortDir port);
  void on_injection_link(NodeId node);

  /// Packet-lifecycle trace hooks (docs/OBSERVABILITY.md). tracing() is
  /// the hot-path guard: false unless a tracing Telemetry is attached and
  /// samples this logical packet. on_trace() appends the event, or, on a
  /// capture shard, buffers it beside the lifecycle events so the replay
  /// puts it exactly where a serial step would.
  bool tracing(PacketId logical_id) const {
    return telemetry_ != nullptr && telemetry_->tracing(logical_id);
  }
  void on_trace(TraceEventType type, Cycle ts, PacketId logical_id,
                NodeId track, uint8_t aux = 0);

  // ---- capture shards (parallel stepping, docs/PERF.md Layer 4) ----
  //
  // A shard is a Metrics instance owned by one span worker with set_shared()
  // installed. Its per-node link counters forward straight to the shared
  // instance (disjoint nodes -> disjoint memory, race-free), while the
  // order-sensitive packet-lifecycle events (open-packet map churn, latency
  // RunningStat adds, trace events) are buffered as CapturedMetricsEvents
  // and replayed by the main thread via apply() in exact serial order after
  // the barrier.

  /// Turn this instance into a capture shard of `shared` (nullptr reverts).
  void set_shared(Metrics* shared) { shared_ = shared; }
  bool is_shard() const { return shared_ != nullptr; }

  /// Pre-size the per-phase capture buffers (zero-alloc invariant: sized at
  /// partition time for the per-cycle worst case, not grown under load).
  void reserve_capture(size_t per_phase) {
    for (auto& buf : captured_) buf.reserve(per_phase);
  }

  /// Tag subsequent captured events with the NIC phase and node whose tick
  /// is about to run. Shard-only.
  void set_capture_point(int phase, NodeId node) {
    capture_phase_ = phase;
    capture_node_ = node;
  }

  const std::vector<CapturedMetricsEvent>& captured(int phase) const {
    return captured_[static_cast<size_t>(phase)];
  }
  bool captured_empty() const {
    for (const auto& buf : captured_)
      if (!buf.empty()) return false;
    return true;
  }
  void clear_captured() {
    for (auto& buf : captured_) buf.clear();
  }

  /// Replay one captured event into this (shared) instance.
  void apply(const CapturedMetricsEvent& e);

  // ---- measurement window ----

  void begin_window(Cycle now);
  void end_window(Cycle now);
  bool in_window() const { return in_window_; }
  Cycle window_cycles() const;

  // ---- results ----

  /// Average latency over packets *completed* inside the window.
  double avg_packet_latency() const { return latency_all_.mean(); }
  const RunningStat& latency_stat() const { return latency_all_; }
  const RunningStat& latency_stat(PacketKind k) const {
    return latency_by_kind_[static_cast<int>(k)];
  }

  /// Exact window latency histograms (docs/OBSERVABILITY.md). Always on:
  /// recording is one inline-array increment per completed packet, and it
  /// happens where packets retire -- on the shared instance only, after
  /// capture replay -- so serial and parallel stepping fill identical bins.
  const LatencyHistogram& latency_hist() const { return hist_all_; }
  const LatencyHistogram& latency_hist(PacketKind k) const {
    return hist_by_kind_[static_cast<int>(k)];
  }

  /// Aggregate received flits per cycle inside the window.
  double received_flits_per_cycle() const;
  int64_t received_flits() const { return window_flits_received_; }
  int64_t completed_packets() const { return window_packets_completed_; }
  /// Packets retired inside the window with at least one dropped delivery
  /// (fault mode only; always 0 on a pristine mesh).
  int64_t dropped_packets() const { return window_packets_dropped_; }

  /// Flits per cycle on the busiest / average bisection link (the k vertical
  /// cut E/W channels in each direction), Table 1's L_bisection.
  double max_bisection_link_load() const;
  double avg_bisection_link_load() const;
  /// Flits per cycle on the busiest ejection (router->NIC) link, L_ejection.
  double max_ejection_link_load() const;
  double avg_ejection_link_load() const;

  /// Number of logical packets generated but not yet fully delivered.
  int64_t open_packets() const { return static_cast<int64_t>(open_.size()); }
  int64_t total_generated() const { return total_generated_; }
  int64_t total_completed() const { return total_completed_; }
  /// Lifetime dropped-packet count (conservation checks:
  /// total_generated == total_completed + total_dropped once quiescent).
  int64_t total_dropped() const { return total_dropped_; }
  /// Lifetime flits drained at destination NICs (not window-scoped) -- the
  /// telemetry time-series "delivered" counter.
  int64_t lifetime_flits_received() const { return lifetime_flits_received_; }

  /// Window flit count on the link leaving `node` through `port` (the
  /// telemetry per-link load heatmap input).
  int64_t link_flits(NodeId node, PortDir port) const {
    return link_flits_[static_cast<size_t>(node)]
                      [static_cast<size_t>(port_index(port))];
  }

  /// Attach the telemetry sink for packet-lifecycle trace events (the
  /// shared instance and every capture shard). Null detaches.
  void set_telemetry(Telemetry* t) { telemetry_ = t; }

 private:
  struct OpenPacket {
    Cycle gen = 0;
    int remaining = 0;
    int dropped = 0;  // deliveries lost to faults (docs/FAULTS.md)
    PacketKind kind = PacketKind::UnicastRequest;
  };

  void apply_flit_received(PacketId logical_id, bool tail, Cycle now);
  void apply_packet_dropped(PacketId logical_id, int count);
  void retire_if_closed(PacketId logical_id, OpenPacket* op, Cycle now);

  const MeshGeometry& geom_;
  Metrics* shared_ = nullptr;  // non-null: this instance is a capture shard
  int capture_phase_ = kCaptureInject;
  NodeId capture_node_ = 0;
  std::vector<CapturedMetricsEvent> captured_[kNumCapturePhases];
  /// Flat open-addressing map: insert/erase churn is allocation-free once
  /// the pre-reserved capacity covers the in-flight packet high-water mark.
  U64FlatMap<OpenPacket> open_{4096};

  bool in_window_ = false;
  Cycle window_start_ = 0;
  Cycle window_end_ = 0;

  RunningStat latency_all_;
  RunningStat latency_by_kind_[kNumPacketKinds];
  LatencyHistogram hist_all_;
  LatencyHistogram hist_by_kind_[kNumPacketKinds];
  Telemetry* telemetry_ = nullptr;
  int64_t lifetime_flits_received_ = 0;
  int64_t window_flits_received_ = 0;
  int64_t window_packets_completed_ = 0;
  int64_t window_packets_dropped_ = 0;
  int64_t total_generated_ = 0;
  int64_t total_completed_ = 0;
  int64_t total_dropped_ = 0;

  // link flit counters, window-scoped: [node][port]
  std::vector<std::array<int64_t, kNumPorts>> link_flits_;
  std::vector<int64_t> injection_flits_;
};

}  // namespace noc
