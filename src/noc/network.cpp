#include "noc/network.hpp"

#include "sim/thread_pool.hpp"

namespace noc {

NetworkConfig NetworkConfig::proposed(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::Proposed;
  c.router.multicast = true;
  return c;
}

NetworkConfig NetworkConfig::lowswing_multicast(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::ThreeStage;
  c.router.multicast = true;
  return c;
}

NetworkConfig NetworkConfig::baseline_3stage(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::ThreeStage;
  c.router.multicast = false;
  c.router.actionable_sa1_requests = false;  // textbook Fig-1 allocator
  return c;
}

NetworkConfig NetworkConfig::baseline_4stage(int k) {
  NetworkConfig c;
  c.k = k;
  c.router.pipeline = PipelineMode::FourStage;
  c.router.multicast = false;
  c.router.actionable_sa1_requests = false;  // textbook Fig-1 allocator
  return c;
}

Link* Network::make_link(NodeId from, NodeId to, int la_latency) {
  // The constructor reserved the exact pool size up front; growing past it
  // would reallocate and dangle every pointer already wired in.
  NOC_ASSERT(links_.size() < links_.capacity());
  const int id = static_cast<int>(links_.size());
  Link& link = links_.emplace_back(la_latency);
  // A link is owned by its RECEIVER's span: it registers on that span's
  // active list and items counter (the counter in both gating modes:
  // quiescent() relies on it). A link whose sender lives in a different
  // span is the boundary case -- it is deferred (sends staged, committed
  // by the owner after the compute barrier).
  StepSpan& sp = span_of(to);
  const bool cross = part_.crosses(from, to);
  link.for_each_channel([&](auto& ch) {
    ch.set_activity(cfg_.activity_gating ? &sp.active : nullptr, id,
                    &sp.items);
    if (cross) ch.set_deferred(true);
  });
  sp.links.push_back(&link);
  if (cross) sp.cross.push_back(&link);
  return &link;
}

Network::Network(const NetworkConfig& cfg)
    : cfg_(cfg),
      geom_(cfg.k, cfg.ky > 0 ? cfg.ky : cfg.k),
      metrics_(geom_) {
  const int n = geom_.num_nodes();
  // Fault schedule first: routers/NICs built below capture a pointer to
  // this state when the plan is non-empty (and none at all otherwise, so
  // pristine networks keep the fault-free fast path, bit for bit).
  fault_state_.init(geom_, cfg.fault);

  // Column-span step schedule; serial stepping is the one-span case. The
  // span COUNT is fixed by the config (clamped to one span per column), so
  // results depend only on step_threads, never on how many workers the
  // budget actually grants.
  NOC_EXPECTS(n <= DestMask::kBits);  // one awake bit per node
  part_ = SpanPartition(geom_,
                        SpanPartition::clamp_spans(geom_, cfg.step_threads));
  spans_.resize(static_cast<size_t>(part_.num_spans()));
  // Telemetry sink (docs/OBSERVABILITY.md). Every probe works in every
  // stepping mode: stall rows are per-router (one worker each), histograms
  // and packet-lifecycle trace events ride the recorders' replay, and the
  // time series samples on the main thread after the merge.
  if (cfg.telemetry.enabled) {
    telemetry_ = std::make_unique<Telemetry>(n, cfg.telemetry);
    metrics_.set_telemetry(telemetry_.get());
  }
  // Per-step worst case of captured events per node, by tick phase.
  // Inject: the packet submission, a fault-mode drop at the door, and,
  // when the routers cannot fork, the local flit deliveries of a
  // NIC-duplicated broadcast. Router: a faulted network retires up to one
  // drop per input VC. Eject: the drained flit. A tracing network adds the
  // NICs' begin and eject events and the router's own: per input port at
  // most two hop begins (a lookahead head and a buffered head), one hop end
  // per VC, one SA grant, and one VA grant per output branch.
  const bool faulted = !cfg.fault.empty();
  const bool tracing =
      cfg.telemetry.enabled && cfg.telemetry.trace_sample_every > 0;
  const int per_node[kNumCapturePhases] = {
      1 + (faulted ? 1 : 0) + (cfg.router.multicast ? 0 : kMaxPacketFlits) +
          (tracing ? 1 : 0),
      (faulted ? kNumPorts * kMaxTotalVcs : 0) +
          (tracing ? kNumPorts * (3 + kMaxTotalVcs + kNumPorts) : 0),
      1 + (tracing ? 1 : 0)};
  for (int s = 0; s < part_.num_spans(); ++s) {
    StepSpan& sp = spans_[static_cast<size_t>(s)];
    for (NodeId node : part_.nodes_of(s)) sp.owned.set(node);
    sp.rec = MetricsRecorder(&metrics_);
    for (int phase = 0; phase < kNumCapturePhases; ++phase)
      sp.rec.reserve(phase, static_cast<size_t>(sp.owned.count() *
                                                per_node[phase]));
  }

  routers_.reserve(static_cast<size_t>(n));
  sources_.reserve(static_cast<size_t>(n));
  nics_.reserve(static_cast<size_t>(n));
  // Resolve a file-backed trace once for all nodes.
  std::shared_ptr<const Trace> trace;
  if (cfg.workload.kind == WorkloadKind::Trace) {
    trace = resolve_trace(cfg.workload.trace);
    NOC_EXPECTS(trace != nullptr);
  }
  for (NodeId node = 0; node < n; ++node) {
    routers_.push_back(std::make_unique<Router>(node, geom_, cfg.router,
                                                &span_of(node).energy,
                                                &span_of(node).rec));
    sources_.push_back(
        make_traffic_source(geom_, cfg.traffic, cfg.workload, node, trace));
    nics_.push_back(std::make_unique<Nic>(node, geom_, cfg.router,
                                          sources_.back().get(),
                                          &span_of(node).energy,
                                          &span_of(node).rec));
    if (fault_state_.enabled()) {
      routers_.back()->attach_faults(&fault_state_);
      nics_.back()->attach_faults(&fault_state_);
    }
    if (telemetry_ != nullptr)
      routers_.back()->attach_telemetry(telemetry_.get());
  }

  const bool gated = cfg.activity_gating;

  // Exact pool size (pointer stability: see make_link): one link per
  // direction of each undirected mesh edge, and two per NIC.
  const int n_edges =
      (geom_.kx() - 1) * geom_.ky() + geom_.kx() * (geom_.ky() - 1);
  links_.reserve(static_cast<size_t>(2 * n_edges + 2 * n));
  for (auto& sp : spans_) sp.active.init(static_cast<int>(links_.capacity()));

  // With gating, each wire learns which component its arrivals must wake;
  // wake bits live in the receiver's owning span so every mask write during
  // a parallel step stays worker-local.
  auto wake_router = [&](Link* link, NodeId r) {
    if (!gated) return;
    const WakeHook wake{&span_of(r).router_awake, r};
    link->for_each_channel([&](auto& ch) { ch.set_wake_target(wake); });
  };

  // Router-to-router wiring: one link per direction of each undirected
  // edge, visited once (East and North neighbors).
  auto wire_edge = [&](NodeId a, PortDir a_out, NodeId b) {
    Link* ab = make_link(a, b, 1);
    Link* ba = make_link(b, a, 1);
    wake_router(ab, b);
    wake_router(ba, a);
    routers_[static_cast<size_t>(a)]->connect(a_out, ba, ab);
    routers_[static_cast<size_t>(b)]->connect(opposite(a_out), ab, ba);
  };

  for (int y = 0; y < geom_.ky(); ++y) {
    for (int x = 0; x < geom_.kx(); ++x) {
      const NodeId a = geom_.id(x, y);
      if (x + 1 < geom_.kx()) wire_edge(a, PortDir::East, geom_.id(x + 1, y));
      if (y + 1 < geom_.ky()) wire_edge(a, PortDir::North, geom_.id(x, y + 1));
    }
  }

  // NIC wiring through each router's Local port; both links stay inside
  // the node and therefore inside its span. The NIC->router lookahead is
  // latency 0: its wake fires at send time, during the NIC injection
  // phase, so the router sees it the same cycle. Nothing bypasses toward
  // the NIC, so the router->NIC lookahead wire stays unused.
  for (NodeId node = 0; node < n; ++node) {
    Link* to_router = make_link(node, node, 0);
    Link* from_router = make_link(node, node, 1);
    wake_router(to_router, node);
    if (gated) {
      from_router->flit.set_wake_target({&span_of(node).eject_awake, node});
      from_router->credit.set_wake_target(
          {&span_of(node).inject_awake, node});
    }
    routers_[static_cast<size_t>(node)]->connect(PortDir::Local, to_router,
                                                 from_router);
    nics_[static_cast<size_t>(node)]->connect(to_router, from_router);
  }

  setup_activity();

  // Lease extra workers from the shared budget for this network's
  // lifetime. A serial network, or a lease of 0 (budget exhausted, nested
  // parallelism), gets a one-worker team whose run() is a direct call: the
  // caller then steps the spans one after another, still through the
  // same schedule, so results stay identical.
  budget_lease_ = thread_budget::acquire(static_cast<int>(spans_.size()) - 1);
  team_ = std::make_unique<StepTeam>(budget_lease_ + 1);
}

Network::~Network() {
  team_.reset();
  thread_budget::release(budget_lease_);
}

void Network::setup_activity() {
  const int n = geom_.num_nodes();
  inject_wake_at_.assign(static_cast<size_t>(n), kCycleNever);
  // Everything starts awake; idle components fall asleep after their first
  // tick, which keeps cycle 0 identical to the ungated phase walk.
  for (auto& sp : spans_)
    sp.router_awake = sp.inject_awake = sp.eject_awake = sp.owned;

  if (cfg_.activity_gating) {
    for (NodeId node = 0; node < n; ++node) {
      const WakeHook inject{&span_of(node).inject_awake, node};
      nics_[static_cast<size_t>(node)]->set_inject_wake_hook(inject);
      sources_[static_cast<size_t>(node)]->set_wake_hook(inject);
    }
  }
}

// ---------------------------------------------------------------------------
// The step schedule (docs/PERF.md Layers 3-4).
//
// Per cycle, with a barrier after each of A and B:
//
//   A. compute  -- each span runs its timed wakes, link deliveries,
//      NIC-inject / router / NIC-eject passes. Every write lands in
//      span-owned state; sends on cross-span links only stage.
//   B. commit   -- each owner replays the messages other spans staged into
//      its boundary links, through the normal send path.
//   C. merge    (main thread) -- replay the recorders' captured metrics
//      and trace events in exact serial order (inject, router, then eject
//      phase, ascending node within each), append recorded workload
//      packets in ascending source order, and return every recorder to
//      applying at once for the between-step window. Energy needs no
//      merge: each span owns integer counters that energy() sums on demand.
//
// Serial stepping is this schedule with one span on a one-worker team:
// nothing crosses, so B is a no-op, and C replays one buffer in order.
// Bit-identity across span counts and worker counts holds
// because phase A is span-isolated, every within-cycle wake is intra-node,
// every cross-node interaction crosses a latency>=1 wire (visible only
// after the next cycle's begin_cycle), and phase C reconstructs the serial
// call order of all order-sensitive accumulation.

void Network::step(Cycle now) {
  apply_faults(now);
  StepCtx ctx{this, now};
  team_->run(&Network::compute_thunk, &ctx);
  team_->run(&Network::commit_thunk, &ctx);
  merge_spans();
  if (telemetry_ != nullptr && telemetry_->want_sample(now))
    sample_telemetry(now);
  ++cycles_;
}

EnergyCounters Network::energy() const {
  EnergyCounters total;
  for (const auto& sp : spans_) total += sp.energy;
  total.cycles = cycles_;
  return total;
}

void Network::sample_telemetry(Cycle now) {
  TimeSample s;
  s.cycle = now;
  s.injected_flits = energy().nic_link_traversals;
  s.delivered_flits = metrics_.lifetime_flits_received();
  s.open_packets = metrics_.open_packets();
  s.fault_epoch = fault_state_.epoch();
  // Awake-router count is a SCHEDULING observable -- how many routers the
  // gated sweep would visit -- so it legitimately differs across stepping
  // modes (ungated runs report every router awake) and is excluded from the
  // determinism comparisons in tests/test_gating_equivalence.cpp.
  if (!cfg_.activity_gating) {
    s.awake_routers = geom_.num_nodes();
  } else {
    for (const auto& sp : spans_) s.awake_routers += sp.router_awake.count();
  }
  telemetry_->push_sample(s);
}

void Network::apply_faults(Cycle now) {
  // One compare on the pristine/idle path (next event kCycleNever). Runs
  // on the main thread before gating decisions and the span fan-out, so
  // every stepping mode sees identical fault state for the whole cycle.
  if (fault_state_.next_event_at() > now) return;
  const uint64_t epoch = fault_state_.epoch();
  const size_t applied_before = fault_state_.cursor();
  fault_state_.advance(now);
  if (telemetry_ != nullptr) {
    for (size_t i = applied_before; i < fault_state_.cursor(); ++i) {
      const FaultEvent& e = fault_state_.event(i);
      telemetry_->record_fault(now, e.kind, e.a, e.b);
    }
  }
  if (fault_state_.epoch() != epoch) {
    // The surviving topology changed: re-validate open escape-class
    // packets everywhere (routers convert stranded branches to drops).
    // Wedged/busy routers are never asleep (busy VCs keep them awake), so
    // no wake edges are needed.
    for (auto& r : routers_) r->on_topology_change(now);
  }
}

void Network::compute_thunk(void* ctx, int worker) {
  auto* c = static_cast<StepCtx*>(ctx);
  Network& net = *c->net;
  const auto workers = static_cast<size_t>(net.team_->workers());
  // Strided span -> worker assignment: the worker count changes only the
  // schedule, never which span owns what, so results are grant-invariant.
  for (auto s = static_cast<size_t>(worker); s < net.spans_.size();
       s += workers)
    net.span_compute(net.spans_[s], c->now);
}

void Network::commit_thunk(void* ctx, int worker) {
  auto* c = static_cast<StepCtx*>(ctx);
  Network& net = *c->net;
  const auto workers = static_cast<size_t>(net.team_->workers());
  for (auto s = static_cast<size_t>(worker); s < net.spans_.size();
       s += workers)
    net.span_commit(net.spans_[s], c->now);
}

void Network::span_begin(StepSpan& sp, Cycle now) {
  if (!cfg_.activity_gating) {
    for (Link* link : sp.links)
      link->for_each_channel([now](auto& ch) { ch.begin_cycle(now); });
    return;
  }
  // 0. Timed wake-ups: sources that promised a future fire cycle.
  if (sp.next_timed_wake <= now) {
    sp.next_timed_wake = kCycleNever;
    sp.owned.for_each([&](int i) {
      Cycle& at = inject_wake_at_[static_cast<size_t>(i)];
      if (at <= now) {
        sp.inject_awake.set(i);
        at = kCycleNever;
      } else if (at < sp.next_timed_wake) {
        sp.next_timed_wake = at;
      }
    });
  }
  // 1. Links holding messages deliver; newly visible arrivals wake their
  //    receivers (this runs before every component phase, so same-cycle
  //    consumption is guaranteed). A drained wire inside a listed link is
  //    skipped, and fully drained links drop off the list -- their slots
  //    are all empty, so skipping begin_cycle is safe (see Channel's
  //    activity contract). Per-entry work is order-independent: begin_cycle
  //    touches only the wire itself and wake bits are ORed.
  sp.active.sweep([&](int id) {
    bool holding = false;
    links_[static_cast<size_t>(id)].for_each_channel([&](auto& ch) {
      if (ch.idle()) return;
      ch.begin_cycle(now);
      holding |= !ch.idle();
    });
    return holding;
  });
}

// 2. NIC injection halves. A NIC stays awake while it holds queued work or
//    its source may fire next cycle; otherwise it parks, with a timed wake
//    if the source promised a future fire.
void Network::span_inject_tick(StepSpan& sp, int node, Cycle now) {
  const auto i = static_cast<size_t>(node);
  sp.rec.set_capture_point(kCaptureInject, node);
  nics_[i]->tick_inject(now);
  if (!cfg_.activity_gating || nics_[i]->inject_busy()) return;
  const Cycle wake = sources_[i]->next_fire_cycle(now + 1);
  if (wake <= now + 1) return;
  sp.inject_awake.clear(node);
  // Overwrite unconditionally: an early hook wake may have left a stale
  // earlier entry that would otherwise fire a pointless timed wake.
  inject_wake_at_[i] = wake;  // element owned by this span: race-free
  if (wake < sp.next_timed_wake) sp.next_timed_wake = wake;
}

// 3. Routers. Skipped ticks are exact no-ops for idle routers (no arbiter
//    state advances without requests; the lookahead rotation is
//    cycle-derived), so sleeping preserves bit-identical metrics.
void Network::span_router_tick(StepSpan& sp, int node, Cycle now) {
  const auto i = static_cast<size_t>(node);
  sp.rec.set_capture_point(kCaptureRouter, node);
  routers_[i]->tick(now);
  if (cfg_.activity_gating && routers_[i]->idle()) sp.router_awake.clear(node);
}

// 4. NIC ejection halves.
void Network::span_eject_tick(StepSpan& sp, int node, Cycle now) {
  const auto i = static_cast<size_t>(node);
  sp.rec.set_capture_point(kCaptureEject, node);
  nics_[i]->tick_eject(now);
  if (cfg_.activity_gating && !nics_[i]->eject_busy())
    sp.eject_awake.clear(node);
}

// Each pass walks a snapshot of its mask, in ascending node id -- the
// phase-walk order, so shared-accumulator metrics see identical
// floating-point ordering.
void Network::span_compute(StepSpan& sp, Cycle now) {
  span_begin(sp, now);
  pass_mask(sp, sp.inject_awake)
      .for_each([&](int node) { span_inject_tick(sp, node, now); });
  pass_mask(sp, sp.router_awake)
      .for_each([&](int node) { span_router_tick(sp, node, now); });
  pass_mask(sp, sp.eject_awake)
      .for_each([&](int node) { span_eject_tick(sp, node, now); });
}

void Network::span_commit(StepSpan& sp, Cycle now) {
  for (Link* link : sp.cross)
    link->for_each_channel([now](auto& ch) { ch.commit_staged(now); });
}

namespace {

// The node whose tick buffered an entry: the merge's order key.
NodeId origin(const CapturedMetricsEvent& e) { return e.node; }
NodeId origin(const TraceRecord& r) { return r.src; }

}  // namespace

void Network::merge_spans() {
  // Deterministic merge, main thread. Each span buffered its own nodes'
  // entries in ascending node order, so merging the spans' buffers by
  // head node restores a serial step's order with no sorting; a step that
  // captured nothing costs one empty test per span and buffer.
  auto replay = [&](auto buffer_of, auto apply) {
    for (auto& sp : spans_) sp.replay_cursor = 0;
    for (;;) {
      StepSpan* next = nullptr;  // the span holding the lowest pending node
      NodeId node = 0;
      for (auto& sp : spans_) {
        const auto& buf = buffer_of(sp);
        if (sp.replay_cursor == buf.size()) continue;
        const NodeId head = origin(buf[sp.replay_cursor]);
        if (next == nullptr || head < node) {
          next = &sp;
          node = head;
        }
      }
      if (next == nullptr) return;
      const auto& buf = buffer_of(*next);
      while (next->replay_cursor < buf.size() &&
             origin(buf[next->replay_cursor]) == node)
        apply(buf[next->replay_cursor++]);
    }
  };
  // Events replay in the serial call order: inject-phase events, then
  // router-phase, then eject-phase.
  for (int phase = 0; phase < kNumCapturePhases; ++phase)
    replay([phase](const StepSpan& sp) -> const auto& {
             return sp.rec.captured(phase);
           },
           [this](const CapturedMetricsEvent& e) { metrics_.apply(e); });
  // Packets are submitted only in the inject phase, at most one per NIC
  // tick: ascending source order is the order a serial step appends them.
  replay([](const StepSpan& sp) -> const auto& { return sp.rec.records(); },
         [this](const TraceRecord& r) { trace_out_->records.push_back(r); });
  for (auto& sp : spans_) sp.rec.end_capture();
}

void Network::record_trace(Trace* out) {
  trace_out_ = out;
  if (out != nullptr) {
    // Stamp the capture geometry so replay layers can reject a trace fed
    // to the wrong mesh (trace_geometry_error / the v2 file header).
    out->kx = geom_.kx();
    out->ky = geom_.ky();
  }
  // A step buffers at most one submission per owned NIC.
  for (auto& sp : spans_)
    sp.rec.record_into(out != nullptr ? &out->records : nullptr,
                       static_cast<size_t>(sp.owned.count()));
}

void Network::begin_measurement_window(Cycle now) {
  metrics_.begin_window(now);
  if (telemetry_ != nullptr) telemetry_->reset_stalls();
  for (auto& src : sources_) src->begin_window(now);
}

void Network::end_measurement_window(Cycle now) {
  metrics_.end_window(now);
  for (auto& src : sources_) src->end_window(now);
}

std::vector<int> Network::span_link_ids(int s) const {
  std::vector<int> ids;
  for (const Link* link : spans_[static_cast<size_t>(s)].links)
    ids.push_back(static_cast<int>(link - links_.data()));
  return ids;
}

int64_t Network::channel_items() const {
  int64_t total = 0;
  for (const auto& sp : spans_) total += sp.items;
  return total;
}

bool Network::quiescent() const {
  if (metrics_.open_packets() != 0) return false;
  // The aggregate counter covers every wire of every link: a flit-only
  // scan would let a drain phase end with a credit still on a wire,
  // corrupting back-to-back measurement windows. The count is kept per
  // span.
  if (channel_items() != 0) return false;
  for (const auto& r : routers_)
    if (!r->idle()) return false;
  for (const auto& nic : nics_)
    if (!nic->idle()) return false;
  for (const auto& src : sources_)
    if (!src->idle()) return false;
  return true;
}

}  // namespace noc
