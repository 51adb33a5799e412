#pragma once
// Network-level measurement: packet latency (to the LAST destination for
// multicasts, per the paper's "complete action" definition), received
// throughput, and per-link channel loads.
//
// Latency is measured from packet *generation* (so source queueing counts,
// which the paper's saturation definition -- latency reaching 3x the no-load
// latency -- requires), to the cycle the tail flit is drained at the last
// destination NIC.
//
// Two classes: Metrics is the network-wide aggregate; MetricsRecorder is
// the sink each step span's routers and NICs record into. A recorder
// applies to the aggregate at once between steps and buffers inside one
// for the step merge's serial-order replay (docs/PERF.md Layer 4), so
// every stepping mode records through the same path.

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
#include "noc/workload.hpp"

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

/// One deferred packet-lifecycle event buffered by a MetricsRecorder inside
/// a step and replayed into the aggregate Metrics in serial order
/// (docs/PERF.md Layer 4). `node` is the node whose tick produced the
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

/// Tick phases a recorder distinguishes: events from tick_inject
/// (submission + NIC-duplicated local deliveries + injection-side drops)
/// replay before any router-tick event (fault-mode drop retirements),
/// which replay before any tick_eject event -- mirroring the serial phase
/// order exactly. kNoCapture is the between-steps state: events apply to
/// the aggregate at once.
enum : int {
  kNoCapture = -1,
  kCaptureInject = 0,
  kCaptureRouter = 1,
  kCaptureEject = 2,
  kNumCapturePhases = 3
};

/// The network-wide aggregate. Routers and NICs never call it directly:
/// they record through their span's MetricsRecorder (below), which applies
/// through the on_* methods here, at once between steps and in the serial
/// replay inside one.
class Metrics {
 public:
  explicit Metrics(const MeshGeometry& geom);

  // ---- apply side (MetricsRecorder, tests) ----

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
  /// link toward the NIC). Per-node counters: span workers call this
  /// concurrently for disjoint nodes, so it touches nothing shared.
  void on_link_flit(NodeId node, PortDir port);

  /// Packet-lifecycle trace guard (docs/OBSERVABILITY.md), the hot-path
  /// test before a trace event is recorded: false unless a tracing
  /// Telemetry is attached and samples this logical packet.
  bool tracing(PacketId logical_id) const {
    return telemetry_ != nullptr && telemetry_->tracing(logical_id);
  }

  /// Apply one event a MetricsRecorder recorded: at once between steps,
  /// in the serial-order replay inside one.
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
  /// happens where packets retire in this aggregate, which the recorders
  /// feed in serial order, so every stepping mode fills identical bins.
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

  /// Attach the telemetry sink for packet-lifecycle trace events. Null
  /// detaches.
  void set_telemetry(Telemetry* t) { telemetry_ = t; }

 private:
  struct OpenPacket {
    Cycle gen = 0;
    int remaining = 0;
    int dropped = 0;  // deliveries lost to faults (docs/FAULTS.md)
    PacketKind kind = PacketKind::UnicastRequest;
  };

  void apply_flit_received(PacketId logical_id, bool tail, Cycle now);
  void retire_if_closed(PacketId logical_id, OpenPacket* op, Cycle now);

  const MeshGeometry& geom_;
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
};

/// The one sink routers and NICs record into (docs/PERF.md Layer 4). Each
/// step span holds one by value. Between steps only the main thread runs,
/// so every event applies to the aggregate Metrics (or the recorded Trace)
/// at once. Inside a step -- from the first set_capture_point until the
/// merge calls end_capture -- span workers run side by side, so the
/// order-sensitive events (open-packet map churn, latency adds, trace
/// events, recorded workload packets) are buffered tagged with (phase,
/// node) for the main thread's serial-order replay. Per-node link counts
/// touch disjoint counters and forward at once in either state. A recorder
/// holds nothing but these buffers.
class MetricsRecorder {
 public:
  explicit MetricsRecorder(Metrics* sink = nullptr) : sink_(sink) {}

  // ---- recording interface (routers and NICs) ----

  void on_logical_packet(PacketId logical_id, PacketKind kind, Cycle gen,
                         int deliveries) {
    record({.kind = CapturedMetricsEvent::Kind::LogicalPacket,
            .pkind = kind,
            .deliveries = deliveries,
            .id = logical_id,
            .cycle = gen});
  }
  void on_flit_received(PacketId logical_id, const Flit& f, Cycle now) {
    record({.kind = CapturedMetricsEvent::Kind::FlitReceived,
            .tail = is_tail(f.type),
            .id = logical_id,
            .cycle = now});
  }
  void on_packet_dropped(PacketId logical_id, int count, Cycle now) {
    record({.kind = CapturedMetricsEvent::Kind::PacketDropped,
            .deliveries = count,
            .id = logical_id,
            .cycle = now});
  }
  void on_link_flit(NodeId node, PortDir port) {
    sink_->on_link_flit(node, port);
  }
  bool tracing(PacketId logical_id) const {
    return sink_->tracing(logical_id);
  }
  void on_trace(TraceEventType type, Cycle ts, PacketId logical_id,
                NodeId track, uint8_t aux = 0) {
    record({.kind = CapturedMetricsEvent::Kind::Trace,
            .trace_type = type,
            .aux = aux,
            .track = track,
            .id = logical_id,
            .cycle = ts});
  }
  /// Workload-trace recording (Network::record_trace): true while a Trace
  /// is attached; on_record appends one submitted packet to it.
  bool recording() const { return records_out_ != nullptr; }
  void on_record(const TraceRecord& r) {
    if (phase_ == kNoCapture)
      records_out_->push_back(r);
    else
      records_.push_back(r);
  }

  // ---- capture control (Network) ----

  /// Attach (or, with nullptr, detach) the recorded Trace's records; a
  /// step buffers at most `per_step` of them. Between steps only.
  void record_into(std::vector<TraceRecord>* out, size_t per_step) {
    records_out_ = out;
    if (out != nullptr) records_.reserve(per_step);
  }
  /// Pre-size one phase's event buffer for the per-step worst case
  /// (zero-alloc invariant: sized at partition time, not grown under load).
  void reserve(int phase, size_t events) {
    captured_[static_cast<size_t>(phase)].reserve(events);
  }
  /// Tag subsequent events with the tick phase and node about to run.
  void set_capture_point(int phase, NodeId node) {
    phase_ = phase;
    node_ = node;
  }
  const std::vector<CapturedMetricsEvent>& captured(int phase) const {
    return captured_[static_cast<size_t>(phase)];
  }
  const std::vector<TraceRecord>& records() const { return records_; }
  /// The merge replayed the buffers: drop them and apply at once again.
  void end_capture() {
    for (auto& buf : captured_) buf.clear();
    records_.clear();
    phase_ = kNoCapture;
  }

 private:
  void record(CapturedMetricsEvent e) {
    if (phase_ == kNoCapture) {
      sink_->apply(e);
      return;
    }
    e.node = node_;
    captured_[static_cast<size_t>(phase_)].push_back(e);
  }

  Metrics* sink_;
  std::vector<TraceRecord>* records_out_ = nullptr;
  int phase_ = kNoCapture;
  NodeId node_ = 0;
  std::vector<CapturedMetricsEvent> captured_[kNumCapturePhases];
  std::vector<TraceRecord> records_;
};

}  // namespace noc
