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

template <typename T>
Channel<T>* Network::make_channel(std::vector<Channel<T>>& pool, int latency) {
  // The constructor reserved the exact pool size up front; growing past it
  // would reallocate and dangle every pointer already wired in.
  NOC_ASSERT(pool.size() < pool.capacity());
  pool.emplace_back(latency);
  return &pool.back();
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
  NOC_EXPECTS(n <= DestMask::kCapacity);  // one awake bit per node
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

  const bool bypass = cfg.router.has_bypass();
  const bool gated = cfg.activity_gating;

  // Exact pool sizes (pointer stability: see make_channel). Per undirected
  // mesh edge: one flit/credit/lookahead channel per direction; per node:
  // NIC flit + credit channels both ways, lookahead toward the router only.
  const int n_edges =
      (geom_.kx() - 1) * geom_.ky() + geom_.kx() * (geom_.ky() - 1);
  flit_channels_.reserve(static_cast<size_t>(2 * n_edges + 2 * n));
  credit_channels_.reserve(static_cast<size_t>(2 * n_edges + 2 * n));
  if (bypass) la_channels_.reserve(static_cast<size_t>(2 * n_edges + n));

  // Router-to-router wiring. Each undirected edge gets one channel of each
  // kind per direction. We visit each edge once (East and North neighbors).
  // With gating, each channel learns which component its arrivals must wake;
  // wake bits live in the receiver's owning span so every mask write during
  // a parallel step stays worker-local.
  auto router_wake = [&](NodeId r) {
    return gated ? WakeHook{&span_of(r).router_awake, r} : WakeHook{};
  };
  auto wire_edge = [&](NodeId a, PortDir a_out, NodeId b) {
    const PortDir b_out = opposite(a_out);
    auto* f_ab = make_channel(flit_channels_, 1);
    auto* f_ba = make_channel(flit_channels_, 1);
    auto* c_ab = make_channel(credit_channels_, 1);  // a's inport -> b's outport
    auto* c_ba = make_channel(credit_channels_, 1);  // b's inport -> a's outport
    Channel<Lookahead>* l_ab = bypass ? make_channel(la_channels_, 1) : nullptr;
    Channel<Lookahead>* l_ba = bypass ? make_channel(la_channels_, 1) : nullptr;
    flit_ep_.push_back({a, b});
    flit_ep_.push_back({b, a});
    credit_ep_.push_back({a, b});
    credit_ep_.push_back({b, a});
    if (bypass) {
      la_ep_.push_back({a, b});
      la_ep_.push_back({b, a});
    }
    f_ab->set_wake_target(router_wake(b));
    f_ba->set_wake_target(router_wake(a));
    c_ab->set_wake_target(router_wake(b));
    c_ba->set_wake_target(router_wake(a));
    if (l_ab != nullptr) l_ab->set_wake_target(router_wake(b));
    if (l_ba != nullptr) l_ba->set_wake_target(router_wake(a));

    Router::PortChannels pa;  // router a, port a_out
    pa.flit_out = f_ab;
    pa.flit_in = f_ba;
    pa.credit_in = c_ba;   // credits from b for flits a sent
    pa.credit_out = c_ab;  // credits a sends for flits received from b
    pa.la_out = l_ab;
    pa.la_in = l_ba;
    routers_[static_cast<size_t>(a)]->connect(a_out, pa);

    Router::PortChannels pb;  // router b, port b_out
    pb.flit_out = f_ba;
    pb.flit_in = f_ab;
    pb.credit_in = c_ab;
    pb.credit_out = c_ba;
    pb.la_out = l_ba;
    pb.la_in = l_ab;
    routers_[static_cast<size_t>(b)]->connect(b_out, pb);
  };

  for (int y = 0; y < geom_.ky(); ++y) {
    for (int x = 0; x < geom_.kx(); ++x) {
      const NodeId a = geom_.id(x, y);
      if (x + 1 < geom_.kx()) wire_edge(a, PortDir::East, geom_.id(x + 1, y));
      if (y + 1 < geom_.ky()) wire_edge(a, PortDir::North, geom_.id(x, y + 1));
    }
  }

  // NIC wiring through each router's Local port. All five channels stay
  // inside the node and therefore inside its span.
  for (NodeId node = 0; node < n; ++node) {
    auto* f_nr = make_channel(flit_channels_, 1);   // NIC -> router
    auto* f_rn = make_channel(flit_channels_, 1);   // router -> NIC
    auto* c_rn = make_channel(credit_channels_, 1); // router local-in -> NIC
    auto* c_nr = make_channel(credit_channels_, 1); // NIC rx -> router local-out
    Channel<Lookahead>* l_nr = bypass ? make_channel(la_channels_, 0) : nullptr;
    flit_ep_.push_back({node, node});
    flit_ep_.push_back({node, node});
    credit_ep_.push_back({node, node});
    credit_ep_.push_back({node, node});
    if (bypass) la_ep_.push_back({node, node});
    if (gated) {
      f_nr->set_wake_target(router_wake(node));
      f_rn->set_wake_target({&span_of(node).eject_awake, node});
      c_rn->set_wake_target({&span_of(node).inject_awake, node});
      c_nr->set_wake_target(router_wake(node));
      // Latency 0: the wake fires at send time, during the NIC injection
      // phase, so the router sees the lookahead the same cycle.
      if (l_nr != nullptr)
        l_nr->set_wake_target(router_wake(node));
    }

    Router::PortChannels pl;
    pl.flit_in = f_nr;
    pl.flit_out = f_rn;
    pl.credit_in = c_nr;
    pl.credit_out = c_rn;
    pl.la_in = l_nr;
    pl.la_out = nullptr;  // no lookahead toward the NIC
    routers_[static_cast<size_t>(node)]->connect(PortDir::Local, pl);

    Nic::Channels nc;
    nc.flit_to_router = f_nr;
    nc.la_to_router = l_nr;
    nc.credit_from_router = c_rn;
    nc.flit_from_router = f_rn;
    nc.credit_to_router = c_nr;
    nics_[static_cast<size_t>(node)]->connect(nc);
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
  const bool gated = cfg_.activity_gating;

  // Contiguous channel ids per pool so the active-list sweep can recover
  // the typed pointer from the id alone. Every channel is owned by its
  // RECEIVER's span: it registers on that span's active list and items
  // counter (installed in both gating modes: quiescent() relies on it),
  // and a channel whose sender lives in a different span is the boundary
  // case -- it becomes deferred (double-buffered sends committed by the
  // owner after the compute barrier).
  const int total = num_channels();
  for (auto& sp : spans_) sp.active.init(total);
  credit_id_base_ = static_cast<int>(flit_channels_.size());
  la_id_base_ = credit_id_base_ + static_cast<int>(credit_channels_.size());

  auto install = [&](auto& pool, const auto& eps, int id_base, auto owned,
                     auto cross) {
    for (size_t i = 0; i < pool.size(); ++i) {
      StepSpan& sp = span_of(eps[i].second);
      pool[i].set_activity(gated ? &sp.active : nullptr,
                           id_base + static_cast<int>(i), &sp.items);
      (sp.*owned).push_back(&pool[i]);
      if (part_.crosses(eps[i].first, eps[i].second)) {
        pool[i].set_deferred(true);
        (sp.*cross).push_back(&pool[i]);
      }
    }
  };
  install(flit_channels_, flit_ep_, 0, &StepSpan::flit, &StepSpan::cross_flit);
  install(credit_channels_, credit_ep_, credit_id_base_, &StepSpan::credit,
          &StepSpan::cross_credit);
  install(la_channels_, la_ep_, la_id_base_, &StepSpan::la,
          &StepSpan::cross_la);

  const int n = geom_.num_nodes();
  inject_wake_at_.assign(static_cast<size_t>(n), kCycleNever);
  // Everything starts awake; idle components fall asleep after their first
  // tick, which keeps cycle 0 identical to the ungated phase walk.
  for (auto& sp : spans_)
    sp.router_awake = sp.inject_awake = sp.eject_awake = sp.owned;

  if (gated) {
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
//   A. compute  -- each span runs its timed wakes, channel deliveries,
//      NIC-inject / router / NIC-eject passes. Every write lands in
//      span-owned state; sends on cross-span channels only stage.
//   B. commit   -- each owner replays the messages other spans staged into
//      its boundary channels, through the normal send path.
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
// every cross-node interaction crosses a latency>=1 channel (visible only
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

bool Network::begin_channel(int id, Cycle now) {
  if (id < credit_id_base_) {
    auto& ch = flit_channels_[static_cast<size_t>(id)];
    ch.begin_cycle(now);
    return ch.stored() > 0;
  }
  if (id < la_id_base_) {
    auto& ch = credit_channels_[static_cast<size_t>(id - credit_id_base_)];
    ch.begin_cycle(now);
    return ch.stored() > 0;
  }
  auto& ch = la_channels_[static_cast<size_t>(id - la_id_base_)];
  ch.begin_cycle(now);
  return ch.stored() > 0;
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
    for (auto* ch : sp.flit) ch->begin_cycle(now);
    for (auto* ch : sp.credit) ch->begin_cycle(now);
    for (auto* ch : sp.la) ch->begin_cycle(now);
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
  // 1. Channels holding messages deliver; newly visible arrivals wake their
  //    receivers (this runs before every component phase, so same-cycle
  //    consumption is guaranteed). Fully drained channels drop off the list
  //    -- their slots are all empty, so skipping begin_cycle is safe (see
  //    Channel's activity contract). Per-entry work is order-independent:
  //    begin_cycle touches only the channel itself and wake bits are ORed.
  sp.active.sweep([&](int id) { return begin_channel(id, now); });
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
  for (auto* ch : sp.cross_flit) ch->commit_staged(now);
  for (auto* ch : sp.cross_credit) ch->commit_staged(now);
  for (auto* ch : sp.cross_la) ch->commit_staged(now);
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

std::vector<int> Network::span_channel_ids(int s) const {
  const StepSpan& sp = spans_[static_cast<size_t>(s)];
  std::vector<int> ids;
  auto add = [&](const auto& owned, const auto& pool, int id_base) {
    for (const auto* ch : owned)
      ids.push_back(id_base + static_cast<int>(ch - pool.data()));
  };
  add(sp.flit, flit_channels_, 0);
  add(sp.credit, credit_channels_, credit_id_base_);
  add(sp.la, la_channels_, la_id_base_);
  return ids;
}

int64_t Network::channel_items() const {
  int64_t total = 0;
  for (const auto& sp : spans_) total += sp.items;
  return total;
}

bool Network::quiescent() const {
  if (metrics_.open_packets() != 0) return false;
  // The aggregate counter covers flit, credit AND lookahead channels: the
  // old flit-only scan let a drain phase end with a credit still on a wire,
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
