// Repository benchmark program (perfbench/README.md).
//
// Runs one named workload through the simulator's public API for a fixed
// host-time budget, checks the outputs of every run, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
//   noc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--commit ID] [--smoke]
//                 [--break-check bitident|conservation|stationarity]
//
// --smoke shrinks every simulated size so the self-test finishes in
// seconds; --break-check deliberately breaks one output check so the
// self-test can prove a failed check exits non-zero. run.py builds this
// binary and is the command BENCHMARK.json names.
//
// Host time (wall_s, setup_s, mncps, step times) is noisy; every simulated
// quantity is exact and deterministic for a seed, so the checks compare
// simulated results bit for bit across repetitions, stepping modes and
// traced/untraced runs.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "noc/experiment.hpp"
#include "noc/network.hpp"
#include "sim/simulation.hpp"
#include "theory/mesh_limits.hpp"

namespace {

using namespace noc;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (the same rule as numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Benchmark-side spans: one around each call into a simulator layer (name,
// start, end, parent), kept in memory and written as Chrome/Perfetto
// trace_event JSON when the traced run ends. Untraced runs record nothing.

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name) : log_(log), id_(log->open(name)) {}
    ~Scope() { log_->close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
  };

  explicit SpanLog(bool on) : on_(on) {}

  Scope scope(const char* name) { return Scope(this, name); }

  bool write_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d}}\n",
                    i == 0 ? "" : ",", s.name, s.start_us,
                    s.end_us - s.start_us, i, s.parent);
      f << buf;
    }
    f << "]}\n";
    return static_cast<bool>(f);
  }

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };

  int open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_us(), -1.0, parent});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---------------------------------------------------------------------------
// Output checks. Each failed check is printed, counted in `failed`, and
// makes the process exit non-zero.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++run_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  int64_t run() const { return run_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t run_ = 0;
  int64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Simulated results of one run: everything here is exact, so two runs of
// the same config and seed must agree bit for bit whatever the stepping
// mode, repetition or telemetry setting.

struct SimStats {
  int64_t generated = 0;  // lifetime logical packets
  int64_t completed = 0;
  int64_t dropped = 0;
  int64_t open = 0;  // still undelivered when the run ends
  int64_t window_packets = 0;
  int64_t window_flits = 0;
  int64_t inject_flits = 0;  // window NIC->router link traversals
  double recv_fpc = 0;
  double lat_avg = 0;
  Cycle lat_p50 = 0;
  Cycle lat_p99 = 0;
  Cycle lat_max = 0;
  EnergyCounters energy;  // window delta
  int64_t transactions = 0;
  double txn_lat = 0;
  double probe_lat = 0;
  double resp_lat = 0;
  std::vector<int64_t> open_trace;   // open_packets() every kSampleEvery
  std::vector<int64_t> items_trace;  // channel_items() every kSampleEvery
};

bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}
template <typename T>
bool same_bits(const T& a, const T& b) {
  return a == b;
}

/// Name of the first field on which two runs differ; empty when identical.
std::string first_difference(const SimStats& a, const SimStats& b) {
#define PB_FIELD(f) \
  if (!same_bits(a.f, b.f)) return #f;
  PB_FIELD(generated)
  PB_FIELD(completed)
  PB_FIELD(dropped)
  PB_FIELD(open)
  PB_FIELD(window_packets)
  PB_FIELD(window_flits)
  PB_FIELD(inject_flits)
  PB_FIELD(recv_fpc)
  PB_FIELD(lat_avg)
  PB_FIELD(lat_p50)
  PB_FIELD(lat_p99)
  PB_FIELD(lat_max)
  PB_FIELD(energy.xbar_traversals)
  PB_FIELD(energy.link_traversals)
  PB_FIELD(energy.nic_link_traversals)
  PB_FIELD(energy.buffer_writes)
  PB_FIELD(energy.buffer_reads)
  PB_FIELD(energy.sa1_arbitrations)
  PB_FIELD(energy.sa2_arbitrations)
  PB_FIELD(energy.vc_allocations)
  PB_FIELD(energy.lookaheads_sent)
  PB_FIELD(energy.cycles)
  PB_FIELD(energy.vc_active_cycles)
  PB_FIELD(energy.bypasses)
  PB_FIELD(energy.partial_bypasses)
  PB_FIELD(energy.buffered_hops)
  PB_FIELD(transactions)
  PB_FIELD(txn_lat)
  PB_FIELD(probe_lat)
  PB_FIELD(resp_lat)
  PB_FIELD(open_trace)
  PB_FIELD(items_trace)
#undef PB_FIELD
  return {};
}

// ---------------------------------------------------------------------------
// One simulated run driven through Network + Simulation the way
// measure_point does it (warmup, measurement window), with the window
// stepped in kSampleEvery-cycle chunks so the backlog and channel
// occupancy can be sampled between chunks.

constexpr Cycle kSampleEvery = 100;

struct RunSpec {
  NetworkConfig cfg;
  Cycle warmup = 0;
  Cycle window = 0;
};

struct RunObs {
  SimStats sim;
  double window_s = 0;  // host seconds, window only
  // Host seconds per kSampleEvery-cycle chunk, warmup chunks first.
  std::vector<double> chunk_s;
  size_t warmup_chunks = 0;
  int64_t window_node_cycles = 0;
  int workers = 1;  // step_workers() granted to the network
  int64_t stalls[kNumStallClasses] = {0, 0, 0, 0, 0};
  std::vector<double> step_us;     // traced: one per window cycle
  std::vector<double> awake_frac;  // traced: one per window time sample
  double open_slope_per_k = 0;     // least-squares backlog growth
};

double open_slope_per_kcycle(const std::vector<int64_t>& open) {
  const auto n = static_cast<double>(open.size());
  if (open.size() < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < open.size(); ++i) {
    const double x = static_cast<double>(i) * static_cast<double>(kSampleEvery);
    const auto y = static_cast<double>(open[i]);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double den = n * sxx - sx * sx;
  return den != 0.0 ? 1000.0 * (n * sxy - sx * sy) / den : 0.0;
}

template <typename T>
double mean_of(const std::vector<T>& v) {
  double s = 0;
  for (T x : v) s += static_cast<double>(x);
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

SimStats collect(Network& net, const EnergyCounters& before) {
  SimStats s;
  const Metrics& m = net.metrics();
  s.generated = m.total_generated();
  s.completed = m.total_completed();
  s.dropped = m.total_dropped();
  s.open = m.open_packets();
  s.window_packets = m.completed_packets();
  s.window_flits = m.received_flits();
  s.recv_fpc = m.received_flits_per_cycle();
  s.lat_avg = m.avg_packet_latency();
  s.lat_p50 = m.latency_hist().percentile(0.50);
  s.lat_p99 = m.latency_hist().percentile(0.99);
  s.lat_max = m.latency_hist().max();
  s.energy = net.energy().delta_since(before);
  // NIC link traversals count both directions; the ejection half is the
  // window flit count on each router's Local output link.
  s.inject_flits = s.energy.nic_link_traversals;
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n)
    s.inject_flits -= m.link_flits(n, PortDir::Local);
  TrafficSource::WindowStats w;
  for (NodeId n = 0; n < net.geom().num_nodes(); ++n) {
    const auto x = net.source(n).window_stats();
    w.transactions += x.transactions;
    w.latency_sum += x.latency_sum;
    w.probe_legs += x.probe_legs;
    w.probe_latency_sum += x.probe_latency_sum;
    w.response_legs += x.response_legs;
    w.response_latency_sum += x.response_latency_sum;
  }
  s.transactions = w.transactions;
  s.txn_lat = ratio(w.latency_sum, static_cast<double>(w.transactions));
  s.probe_lat = ratio(w.probe_latency_sum, static_cast<double>(w.probe_legs));
  s.resp_lat =
      ratio(w.response_latency_sum, static_cast<double>(w.response_legs));
  return s;
}

NetworkConfig traced_config(NetworkConfig cfg) {
  cfg.telemetry.enabled = true;
  cfg.telemetry.sample_every = kSampleEvery;
  cfg.telemetry.trace_sample_every = 0;
  return cfg;
}

/// Run `spec`; a traced run turns on telemetry (stall attribution + time
/// series), times every window cycle as one Simulation::run(1) call, and
/// writes the telemetry files under `export_prefix` when it is non-empty.
RunObs step_run(const RunSpec& spec, bool traced, SpanLog& spans,
                const std::string& export_prefix = {}) {
  const NetworkConfig cfg = traced ? traced_config(spec.cfg) : spec.cfg;
  RunObs obs;
  obs.step_us.reserve(traced ? static_cast<size_t>(spec.window) : 0);
  std::unique_ptr<Network> net;
  {
    auto s = spans.scope("network.construct");
    net = std::make_unique<Network>(cfg);
  }
  obs.workers = net->step_workers();
  Simulation sim(*net);
  {
    auto s = spans.scope("simulation.run.warmup");
    for (Cycle done = 0; done < spec.warmup; done += kSampleEvery) {
      const auto a = Clock::now();
      sim.run(std::min(kSampleEvery, spec.warmup - done));
      obs.chunk_s.push_back(seconds_between(a, Clock::now()));
    }
  }
  obs.warmup_chunks = obs.chunk_s.size();
  net->begin_measurement_window(sim.now());
  const Cycle window_start = sim.now();
  const EnergyCounters before = net->energy();
  std::vector<int64_t> open_trace, items_trace;
  const auto t1 = Clock::now();
  {
    auto s = spans.scope("simulation.run.window");
    for (Cycle done = 0; done < spec.window; done += kSampleEvery) {
      const Cycle n = std::min(kSampleEvery, spec.window - done);
      const auto chunk_start = Clock::now();
      if (traced) {
        auto c = spans.scope("simulation.run");
        for (Cycle i = 0; i < n; ++i) {
          const auto a = Clock::now();
          sim.run(1);
          obs.step_us.push_back(
              std::chrono::duration<double, std::micro>(Clock::now() - a)
                  .count());
        }
      } else {
        sim.run(n);
      }
      obs.chunk_s.push_back(seconds_between(chunk_start, Clock::now()));
      open_trace.push_back(net->metrics().open_packets());
      items_trace.push_back(net->channel_items());
    }
  }
  const auto t2 = Clock::now();
  net->end_measurement_window(sim.now());
  obs.window_s = seconds_between(t1, t2);
  obs.window_node_cycles =
      static_cast<int64_t>(net->geom().num_nodes()) * spec.window;
  {
    auto s = spans.scope("metrics.collect");
    obs.sim = collect(*net, before);
    obs.sim.open_trace = std::move(open_trace);
    obs.sim.items_trace = std::move(items_trace);
  }
  obs.open_slope_per_k = open_slope_per_kcycle(obs.sim.open_trace);
  if (const Telemetry* t = net->telemetry()) {
    for (int c = 0; c < kNumStallClasses; ++c)
      obs.stalls[c] = t->total_stalls(static_cast<StallClass>(c));
    const double nodes = net->geom().num_nodes();
    for (const TimeSample& ts : t->samples())
      if (ts.cycle >= window_start)
        obs.awake_frac.push_back(ts.awake_routers / nodes);
    if (!export_prefix.empty()) {
      auto s = spans.scope("telemetry.export");
      const std::string& x = export_prefix;
      const bool ok = t->write_timeseries_csv(x + "timeseries.csv") &&
                      t->write_timeseries_json(x + "timeseries.json") &&
                      t->write_stalls_csv(x + "stalls.csv", cfg.k);
      if (!ok)
        std::fprintf(stderr, "warning: could not write telemetry under %s\n",
                     export_prefix.c_str());
    }
  }
  return obs;
}

// ---------------------------------------------------------------------------
// Host time at reference speed. Other tenants of a shared host change its
// speed by up to ~50% for seconds to minutes at a time, so the same code
// timed a few minutes apart differs by more than a bound can absorb. Each
// run therefore times a fixed reference kernel (sorting a fixed
// pseudo-random array; it calls nothing in src/) between repetitions, and
// divides each host time by the fastest reference pass timed just before
// or just after it. wall_s and setup_s are medians of these ratios times
// kRefPassS: host seconds on a host where one reference pass takes
// kRefPassS. A change to the simulator moves them as it moves the raw
// times; a change in host speed moves the reference too.

constexpr double kRefPassS = 0.010;

/// Host times of one kind, each paired with the reference pass around it.
class RefTimed {
 public:
  void add(double s) { pending_.push_back(s); }
  /// Pairs every time added since the last call with `ref_s`.
  void pair(double ref_s) {
    for (double s : pending_) {
      raw_.push_back(s);
      scaled_.push_back(s / ref_s * kRefPassS);
    }
    pending_.clear();
  }
  double raw_median() const { return median(raw_); }
  double scaled_median() const { return median(scaled_); }

 private:
  std::vector<double> pending_, raw_, scaled_;
};

/// The reference kernel: sorting a copy of 2^17 fixed pseudo-random words
/// (512 KiB), timed pass by pass.
class HostSpeed {
 public:
  /// Times the first `passes` reference passes.
  explicit HostSpeed(int passes) : passes_(passes), data_(size_t{1} << 17) {
    std::mt19937 g(20120603);
    for (uint32_t& x : data_) x = static_cast<uint32_t>(g());
    prev_s_ = fastest_pass();
  }

  /// Times `passes` more reference passes and pairs every time added to
  /// `times` since the last call with the fastest pass before or after it.
  void pair(std::initializer_list<RefTimed*> times) {
    const double next_s = fastest_pass();
    for (RefTimed* t : times) t->pair(std::min(prev_s_, next_s));
    prev_s_ = next_s;
  }

  double median_pass_s() const { return median(pass_s_); }

 private:
  double fastest_pass() {
    double best = 0;
    for (int i = 0; i < passes_; ++i) {
      work_ = data_;
      const auto a = Clock::now();
      std::sort(work_.begin(), work_.end());
      pass_s_.push_back(seconds_between(a, Clock::now()));
      best = i == 0 ? pass_s_.back() : std::min(best, pass_s_.back());
    }
    return best;
  }

  int passes_;
  std::vector<uint32_t> data_, work_;
  std::vector<double> pass_s_;
  double prev_s_ = 0;
};

void print_unscaled(const HostSpeed& host, const RefTimed& setup,
                    const RefTimed& wall) {
  std::printf("host seconds, unscaled: setup_s %.9f wall_s %.6f "
              "(reference pass %.3f ms, median)\n",
              setup.raw_median(), wall.raw_median(),
              1e3 * host.median_pass_s());
}

/// Time `reps` constructions of the workload's networks, adding one
/// sample per construction set. setup_s is the median of all samples; runs
/// take a few between repetitions so the samples span the whole run.
void sample_setup(const std::vector<NetworkConfig>& cfgs, int reps,
                  SpanLog& spans, RefTimed& samples) {
  auto s = spans.scope("bench.setup");
  for (int r = 0; r < reps; ++r) {
    const auto a = Clock::now();
    for (const NetworkConfig& c : cfgs) {
      auto n = spans.scope("network.construct");
      const Network net(c);
    }
    samples.add(seconds_between(a, Clock::now()));
  }
}

// ---------------------------------------------------------------------------
// Workloads.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir;
  std::string commit;
  std::string break_check;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Accumulates what every workload reports: operations attempted (packets
/// generated plus checks run) and failed (packets dropped plus checks
/// failed), the metrics, and the result line.
struct Outcome {
  Checks checks;
  int64_t generated = 0;  // logical packets across every checked run
  int64_t dropped = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> notes;  // human table only

  void count_run(const SimStats& s) {
    generated += s.generated;
    dropped += s.dropped;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

void check_conservation(Outcome& out, const SimStats& s, const Options& o,
                        const std::string& what) {
  const int64_t generated = s.generated + (o.break_check == "conservation");
  out.checks.expect(generated == s.completed + s.dropped + s.open,
                    what + ": generated == completed + dropped + open");
}

void check_identical(Outcome& out, const SimStats& a, SimStats b,
                     const Options& o, const std::string& what) {
  if (o.break_check == "bitident")
    b.lat_avg = std::nextafter(b.lat_avg, 1e300);
  const std::string diff = first_difference(a, b);
  out.checks.expect(diff.empty(), what + " (first difference: " + diff + ")");
}

/// Peak resident set of this process image. VmHWM belongs to the address
/// space exec created; getrusage's ru_maxrss also carries the launching
/// process's peak across exec, which would report the Python wrapper's
/// footprint instead of the simulator's.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Per-layer metrics shared by every workload: derived from the traced
/// runs' window counters, samples and step times.
void add_layer_metrics(Outcome& out, const std::vector<RunObs>& traced,
                       const std::vector<RunObs>& untraced) {
  EnergyCounters e;
  int64_t nc = 0;
  int64_t injected = 0;
  int64_t stalls[kNumStallClasses] = {0, 0, 0, 0, 0};
  std::vector<double> steps, awake, items, open, slopes;
  for (const RunObs& r : traced) {
    e += r.sim.energy;
    injected += r.sim.inject_flits;
    nc += r.window_node_cycles;
    for (int c = 0; c < kNumStallClasses; ++c) stalls[c] += r.stalls[c];
    steps.insert(steps.end(), r.step_us.begin(), r.step_us.end());
    awake.insert(awake.end(), r.awake_frac.begin(), r.awake_frac.end());
    for (int64_t x : r.sim.items_trace) items.push_back(static_cast<double>(x));
    for (int64_t x : r.sim.open_trace) open.push_back(static_cast<double>(x));
    slopes.push_back(r.open_slope_per_k);
  }
  double untraced_ns = 0;
  int64_t untraced_hops = 0;
  for (const RunObs& r : untraced) {
    untraced_ns += r.window_s * 1e9;
    untraced_hops += r.sim.energy.link_traversals;
  }
  const auto per_nc = [&](int64_t x) {
    return ratio(static_cast<double>(x), static_cast<double>(nc));
  };
  const double p50 = quantile(steps, 0.50);
  const double p99 = quantile(steps, 0.99);

  out.add("network.step_us_p50", p50, "us");
  out.add("network.step_us_p99", p99, "us");
  out.add("network.ns_per_flit_hop",
          ratio(untraced_ns, static_cast<double>(untraced_hops)), "ns");
  out.add("network.awake_frac", mean_of(awake), "frac");
  out.add("router.xbar_per_nc", per_nc(e.xbar_traversals), "events/nc");
  out.add("router.buffer_writes_per_nc", per_nc(e.buffer_writes), "events/nc");
  out.add("router.sa1_per_nc", per_nc(e.sa1_arbitrations), "events/nc");
  out.add("router.sa2_per_nc", per_nc(e.sa2_arbitrations), "events/nc");
  out.add("router.va_per_nc", per_nc(e.vc_allocations), "events/nc");
  out.add("router.lookaheads_per_nc", per_nc(e.lookaheads_sent), "events/nc");
  out.add("router.bypass_rate", e.bypass_rate(), "frac");
  out.add("router.sa_grant_ratio",
          ratio(static_cast<double>(e.xbar_traversals),
                static_cast<double>(e.sa1_arbitrations + e.sa2_arbitrations)),
          "ratio");
  const char* stall_names[kNumStallClasses] = {
      "router.stall.buffer_empty", "router.stall.no_free_vc",
      "router.stall.no_credit", "router.stall.lost_sa",
      "router.stall.lost_va"};
  for (int c = 0; c < kNumStallClasses; ++c)
    out.add(stall_names[c], per_nc(stalls[c]), "cycles/nc");
  out.add("channel.items_mean", mean_of(items), "count");
  out.add("channel.link_per_nc", per_nc(e.link_traversals), "flits/nc");
  out.add("nic.inject_per_nc", per_nc(injected), "flits/nc");
  out.add("nic.open_packets_mean", mean_of(open), "count");
  out.add("nic.open_packets_slope", median(slopes), "count/kcycle");
  double probe = 0, resp = 0;
  for (const RunObs& r : traced) {
    probe += r.sim.probe_lat;
    resp += r.sim.resp_lat;
  }
  out.add("workload.probe_lat_cycles",
          ratio(probe, static_cast<double>(traced.size())), "cycles");
  out.add("workload.resp_lat_cycles",
          ratio(resp, static_cast<double>(traced.size())), "cycles");
}

double step_tail_ratio(const std::vector<RunObs>& runs) {
  std::vector<double> steps;
  for (const RunObs& r : runs)
    steps.insert(steps.end(), r.step_us.begin(), r.step_us.end());
  return ratio(quantile(steps, 0.99), quantile(steps, 0.50));
}

/// Traffic seed of ensemble member `j`: --seed itself, then 1000 * seed + j.
uint64_t ensemble_seed(uint64_t seed, int j) {
  return j == 0 ? seed : seed * 1000 + static_cast<uint64_t>(j);
}

/// Mean of one simulated statistic over runs [first, first + n).
template <typename F>
double mean_stat(const std::vector<RunObs>& runs, size_t first, size_t n,
                 F stat) {
  double s = 0;
  for (size_t i = first; i < first + n; ++i) s += stat(runs[i].sim);
  return s / static_cast<double>(n);
}

// ---- Stepping workloads: uniform16_serial, coherence8_closed -------------

struct SteppingWorkload {
  RunSpec spec;
  /// Traffic seeds per repetition, derived from --seed. The closed loop's
  /// latency depends strongly on its seed (single-seed spread 10% in mean
  /// and 22% in p99 latency over 40 seeds), so its simulated metrics are
  /// means over an ensemble of seeds.
  int seeds = 1;
  bool open_loop = false;  // stationarity guard and offered-load check
  /// The traced run also steps one repetition on 2 threads (sim.step_team).
  bool measure_spans = false;
  double offered_fpc = 0;  // open loop: offered flits/node/cycle
};

SteppingWorkload make_stepping(const Options& o) {
  SteppingWorkload w{};
  if (o.workload == "coherence8_closed") {
    NetworkConfig c = NetworkConfig::proposed(8);
    c.workload.kind = WorkloadKind::ClosedLoop;
    c.workload.closed.window = 4;
    c.workload.closed.issue_prob = 1.0;
    w.spec = {c, o.smoke ? 300 : 1000, o.smoke ? 1000 : 4000};
    w.seeds = o.smoke ? 2 : 8;
    return w;
  }
  // uniform16_serial: 0.16 flits/node/cycle is about 0.86 of the measured
  // 16x16 uniform saturation -- stationary, unlike the perf microbench's
  // past-saturation 0.20 row.
  NetworkConfig c = NetworkConfig::proposed(16);
  c.traffic.pattern = TrafficPattern::UniformRequest;
  c.traffic.offered_flits_per_node_cycle =
      o.break_check == "stationarity" ? 0.25 : 0.16;
  w.spec = {c, o.smoke ? 300 : 500, o.smoke ? 1000 : 2500};
  w.open_loop = true;
  w.measure_spans = true;
  w.offered_fpc = c.traffic.offered_flits_per_node_cycle;
  return w;
}

/// One repetition: a fresh network per ensemble seed through warmup and
/// window.
using Rep = std::vector<RunObs>;

/// Lowers each chunk time of `best` to the one `rep` took where that was
/// faster, and sets each run's window_s to the sum of its window chunks.
/// `best` and `rep` replay the same simulated work. The per-layer host
/// rates take each chunk at its fastest over a run's repetitions:
/// interference from other tenants of a shared host only ever slows a
/// chunk down, and comes in bursts of a few seconds.
void fold_fastest(Rep& best, const Rep& rep) {
  for (size_t j = 0; j < best.size(); ++j) {
    RunObs& b = best[j];
    b.window_s = 0;
    for (size_t i = 0; i < b.chunk_s.size(); ++i) {
      b.chunk_s[i] = std::min(b.chunk_s[i], rep[j].chunk_s[i]);
      if (i >= b.warmup_chunks) b.window_s += b.chunk_s[i];
    }
  }
}

/// Host seconds of `rep`'s chunks (window chunks only when `window_only`).
double chunk_total(const Rep& rep, bool window_only) {
  double total = 0;
  for (const RunObs& r : rep)
    for (size_t i = window_only ? r.warmup_chunks : 0; i < r.chunk_s.size();
         ++i)
      total += r.chunk_s[i];
  return total;
}

int64_t window_node_cycles(const Rep& rep) {
  int64_t nc = 0;
  for (const RunObs& r : rep) nc += r.window_node_cycles;
  return nc;
}

Rep run_rep(const SteppingWorkload& w, uint64_t seed, int step_threads,
            bool traced, SpanLog& spans, const std::string& prefix = {}) {
  Rep rep;
  for (int j = 0; j < w.seeds; ++j) {
    RunSpec spec = w.spec;
    spec.cfg.traffic.seed = ensemble_seed(seed, j);
    spec.cfg.step_threads = step_threads;
    rep.push_back(
        step_run(spec, traced, spans, j == 0 ? prefix : std::string{}));
  }
  return rep;
}

void check_run(Outcome& out, const SteppingWorkload& w, const RunObs& r,
               const Options& o, const std::string& what) {
  out.count_run(r.sim);
  check_conservation(out, r.sim, o, what);
  out.checks.expect(r.sim.dropped == 0, what + ": no packet dropped");
  out.checks.expect(r.sim.window_packets > 0 && r.sim.recv_fpc > 0,
                    what + ": packets delivered in the window");
  if (!w.open_loop) return;
  // Stationarity guard: the backlog must not grow across the window. A
  // past-saturation load grows it by thousands of packets per kcycle; a
  // stationary one only fluctuates around its mean.
  const double mean_open = mean_of(r.sim.open_trace);
  const double growth =
      r.open_slope_per_k * static_cast<double>(w.spec.window) / 1000.0;
  out.checks.expect(growth <= 0.25 * mean_open + 32.0,
                    what + ": open-packet backlog stationary (growth " +
                        std::to_string(growth) + " over the window, mean " +
                        std::to_string(mean_open) + ")");
  const double offered = w.offered_fpc * w.spec.cfg.k * w.spec.cfg.k;
  out.checks.expect(std::abs(r.sim.recv_fpc - offered) <= 0.05 * offered,
                    what + ": received flits/cycle within 5% of offered");
}

/// Checks every run of `rep` and its bit-identity with `ref`, run by run.
void check_rep(Outcome& out, const SteppingWorkload& w, const Rep& rep,
               const Rep& ref, const Options& o, const std::string& what,
               const std::string& against) {
  for (size_t j = 0; j < rep.size(); ++j) {
    const std::string run = what + " seed " + std::to_string(j);
    check_run(out, w, rep[j], o, run);
    check_identical(out, rep[j].sim, ref[j].sim, o,
                    run + " bit-identical to " + against);
  }
}

int run_stepping(const Options& o, Outcome& out, SpanLog& spans) {
  const SteppingWorkload w = make_stepping(o);
  HostSpeed host(o.smoke ? 1 : 3);
  RefTimed setup;
  sample_setup({w.spec.cfg}, o.smoke ? 3 : 9, spans, setup);
  host.pair({&setup});
  std::printf("host.step_workers 1\n");

  // Each repetition is checked as it ends, timed against the reference, and
  // folded into the phase's fastest chunks. The untraced phase keeps only
  // its first repetition, so peak RSS does not grow with the number the
  // host speed allows.
  std::vector<Rep> reps[2];  // [traced]
  Rep fastest[2];            // [traced]
  RefTimed wall[2];          // [traced]
  const auto run_phase = [&](bool tr, double budget) {
    const std::string prefix =
        tr && !o.out_dir.empty() ? o.out_dir + "/" : std::string{};
    const auto start = Clock::now();
    double last = 0;
    int n = 0;
    do {
      auto s = spans.scope(tr ? "bench.unit.traced" : "bench.unit");
      const auto a = Clock::now();
      Rep rep = run_rep(w, o.seed, 1, tr, spans, prefix);
      last = seconds_between(a, Clock::now());
      const std::string what = std::string(tr ? "traced" : "untraced") +
                               " repetition " + std::to_string(++n);
      check_rep(out, w, rep, reps[0].empty() ? rep : reps[0].front(), o,
                what, "the first untraced repetition");
      std::printf("%s: %.3f s\n", what.c_str(), last);
      wall[tr].add(chunk_total(rep, false));
      if (n == 1)
        fastest[tr] = rep;
      else
        fold_fastest(fastest[tr], rep);
      if (tr || n == 1) reps[tr].push_back(std::move(rep));
      sample_setup({w.spec.cfg}, o.smoke ? 1 : 3, spans, setup);
      host.pair({&setup, &wall[tr]});
    } while (seconds_between(start, Clock::now()) + last <= budget);
  };
  run_phase(false, o.trace ? o.seconds / 2 : o.seconds);
  if (o.trace) run_phase(true, o.seconds / 2);

  const Rep& first = reps[0].front();
  if (!o.trace) {
    const double window = static_cast<double>(w.spec.window);
    const bool closed = first.front().sim.transactions > 0;
    print_unscaled(host, setup, wall[0]);
    out.add("setup_s", setup.scaled_median(), "s");
    out.add("wall_s", wall[0].scaled_median(), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    const auto mean = [&](auto stat) {
      return mean_stat(first, 0, first.size(), stat);
    };
    out.add("recv_fpc", mean([](const SimStats& s) { return s.recv_fpc; }),
            "flits/cycle");
    out.add("lat_avg_cycles",
            mean([](const SimStats& s) { return s.lat_avg; }), "cycles");
    out.add("lat_p99_cycles", mean([](const SimStats& s) {
              return static_cast<double>(s.lat_p99);
            }),
            "cycles");
    // A transaction is what a source waits on: a miss (broadcast probe +
    // data response) in the closed loop, a logical packet in the open loop.
    out.add("txn_per_kcycle", mean([&](const SimStats& s) {
              return 1000.0 *
                     static_cast<double>(closed ? s.transactions
                                                : s.window_packets) /
                     window;
            }),
            "txn/kcycle");
    out.add("txn_lat_cycles", mean([&](const SimStats& s) {
              return closed ? s.txn_lat : s.lat_avg;
            }),
            "cycles");
    return 0;
  }
  std::vector<RunObs> traced_runs;
  for (const Rep& r : reps[1])
    traced_runs.insert(traced_runs.end(), r.begin(), r.end());
  add_layer_metrics(out, traced_runs, fastest[0]);
  out.add("network.mncps",
          static_cast<double>(window_node_cycles(first)) /
              chunk_total(fastest[0], true) / 1e6,
          "Mnc/s");
  // sim.step_team: one traced repetition on 2 step threads, right after the
  // traced serial ones. It must match serial stepping bit for bit.
  int workers = 0;
  double speedup = 0, tail = 0;
  if (w.measure_spans) {
    Rep par;
    {
      auto s = spans.scope("bench.unit.spans2");
      par = run_rep(w, o.seed, 2, true, spans);
    }
    check_rep(out, w, par, first, o, "2-thread repetition", "serial stepping");
    workers = par.front().workers;
    std::printf("host.step_workers.spans %d\n", workers);
    if (workers < 2) {
      std::fprintf(stderr,
                   "the thread budget granted %d step worker(s) of 2; "
                   "spans.speedup and spans.step_tail_ratio read 0\n",
                   workers);
    } else {
      speedup = chunk_total(fastest[1], true) / chunk_total(par, true);
      tail = step_tail_ratio(par);
    }
  }
  out.add("spans.workers", workers, "count");
  out.add("spans.speedup", speedup, "x");
  out.add("spans.step_tail_ratio", tail, "ratio");
  out.add("experiment.search_s.proposed", 0.0, "s");
  out.add("experiment.search_s.baseline", 0.0, "s");
  out.add("experiment.zero_load_s", 0.0, "s");
  out.add("experiment.sat_gbps", 0.0, "Gb/s");
  out.add("experiment.zero_load_cycles", 0.0, "cycles");
  out.add("experiment.sat_gain_x", 0.0, "x");
  out.add("experiment.paper_err_pct", 0.0, "%");
  const double untraced_wall = wall[0].scaled_median();
  const double traced_wall = wall[1].scaled_median();
  const double overhead = 100.0 * (traced_wall / untraced_wall - 1.0);
  out.add("telemetry.overhead_pct", overhead, "%");
  std::printf("untraced wall_s %.4f s | traced wall_s %.4f s | "
              "telemetry.overhead_pct %.2f %%\n",
              untraced_wall, traced_wall, overhead);
  return 0;
}

// ---- fig5_chip4x4: the paper's own measurement ------------------------------

// Paper values (fig5 headline table): saturation throughput, zero-load
// latency of the proposed router, and its throughput gain over the
// baseline.
constexpr double kPaperSatGbps = 892.0;
constexpr double kPaperZeroLoad = 13.1;
constexpr double kPaperGain = 2.1;

struct Fig5Search {
  SaturationResult prop, base;
  double prop_s = 0, base_s = 0;  // host seconds per find_saturation call

  double gain() const { return prop.saturation_gbps / base.saturation_gbps; }
  double paper_err_pct() const {
    return 100.0 *
           std::max({std::abs(prop.saturation_gbps - kPaperSatGbps) /
                         kPaperSatGbps,
                     std::abs(prop.zero_load_latency - kPaperZeroLoad) /
                         kPaperZeroLoad,
                     std::abs(gain() - kPaperGain) / kPaperGain});
  }
};

Fig5Search fig5_search(const NetworkConfig& prop, const NetworkConfig& base,
                       const MeasureOptions& opt, bool traced, SpanLog& spans) {
  Fig5Search f;
  {
    auto s = spans.scope("experiment.find_saturation.proposed");
    const auto t = Clock::now();
    f.prop = find_saturation(traced ? traced_config(prop) : prop, opt);
    f.prop_s = seconds_between(t, Clock::now());
  }
  {
    auto s = spans.scope("experiment.find_saturation.baseline");
    const auto t = Clock::now();
    f.base = find_saturation(traced ? traced_config(base) : base, opt);
    f.base_s = seconds_between(t, Clock::now());
  }
  return f;
}

// With identical PRBS every NIC injects at the same cycles, so one seed's
// zero-load latency rests on a few dozen synchronized injections and spread
// by 18% (interquartile range over median) over 40 seeds. Latency near
// saturation is steep in the offered load the search lands on (p99 spread
// by 40% over 10 seeds). The fig5 latency metrics therefore come from
// ensembles over PRBS seeds: zero-load latency over kZeroLoadSeeds seeds,
// and mid-curve latency at kMidLoadFrac of the ejection limit over
// kMidLoadSeeds seeds (single-seed spread there: 3% mean, 4% p99).
constexpr int kZeroLoadSeeds = 16;
constexpr int kMidLoadSeeds = 4;
constexpr double kMidLoadFrac = 0.55;
// Probe layout within one probe set.
constexpr size_t kPropSat = 0;
constexpr size_t kBaseZeroLoad = 1;
constexpr size_t kBaseSat = 2;
constexpr size_t kFirstZeroLoad = 3;  // ensemble member 0: the search's seed
constexpr size_t kFirstMidLoad = kFirstZeroLoad + kZeroLoadSeeds;

/// One probe set. Each search's zero-load and saturation points are re-run
/// through Network + Simulation directly (the proposed router's zero-load
/// point is ensemble member 0). They must reproduce the search's numbers
/// bit for bit, and they expose the networks the conservation check needs.
/// The proposed saturation probe exports the telemetry files.
std::vector<RunObs> fig5_probes(const NetworkConfig& prop,
                                const NetworkConfig& base,
                                const Fig5Search& f, const MeasureOptions& opt,
                                bool traced, SpanLog& spans,
                                const std::string& prefix) {
  auto s = spans.scope("bench.probes");
  std::vector<RunObs> probes;
  const auto probe = [&](const NetworkConfig& cfg, double offered,
                         Cycle window, const std::string& export_prefix) {
    RunSpec r{cfg, opt.warmup, window};
    r.cfg.traffic.offered_flits_per_node_cycle = offered;
    probes.push_back(step_run(r, traced, spans, export_prefix));
  };
  // zero_load_latency()'s load and window.
  const Cycle zl_window = std::max<Cycle>(opt.window, 20000);
  probe(prop, f.prop.saturation_offered, opt.window, prefix);
  probe(base, 0.002, zl_window, {});
  probe(base, f.base.saturation_offered, opt.window, {});
  NetworkConfig member = prop;
  for (int j = 0; j < kZeroLoadSeeds; ++j) {
    member.traffic.seed = ensemble_seed(prop.traffic.seed, j);
    probe(member, 0.002, zl_window, {});
  }
  const double mid = kMidLoadFrac / deliveries_per_offered_flit(prop);
  for (int j = 0; j < kMidLoadSeeds; ++j) {
    member.traffic.seed = ensemble_seed(prop.traffic.seed, j);
    probe(member, mid, opt.window, {});
  }
  return probes;
}



/// Window node-cycles per host second of a probe set's fastest chunks.
double probe_mncps(const Rep& fastest) {
  return static_cast<double>(window_node_cycles(fastest)) /
         chunk_total(fastest, true) / 1e6;
}

void check_fig5(Outcome& out, const Fig5Search& f,
                const std::vector<RunObs>& probes, const Fig5Search& first,
                const Options& o, const std::string& what) {
  const SaturationResult* sats[2] = {&f.prop, &f.base};
  const char* names[2] = {"proposed", "baseline"};
  const size_t zl_probe[2] = {kFirstZeroLoad, kBaseZeroLoad};
  const size_t sat_probe[2] = {kPropSat, kBaseSat};
  for (int i = 0; i < 2; ++i) {
    const SaturationResult& sr = *sats[i];
    const RunObs& zl = probes[zl_probe[i]];
    const RunObs& at = probes[sat_probe[i]];
    const std::string w = what + " " + names[i];
    SimStats expect_zl = zl.sim;
    expect_zl.lat_avg = sr.zero_load_latency;
    check_identical(out, zl.sim, expect_zl, o,
                    w + ": zero-load re-run reproduces the search");
    SimStats expect_at = at.sim;
    expect_at.lat_avg = sr.at_saturation.avg_latency;
    expect_at.recv_fpc = sr.at_saturation.recv_flits_per_cycle;
    expect_at.window_packets = sr.at_saturation.completed_packets;
    expect_at.lat_p99 = sr.at_saturation.p99_latency;
    check_identical(out, at.sim, expect_at, o,
                    w + ": saturation re-run reproduces the search");
    out.checks.expect(sr.saturation_gbps <=
                          theory::aggregate_throughput_limit_gbps(4),
                      w + ": sat_gbps <= aggregate throughput limit");
    out.checks.expect(sr.saturation_gbps > 0 && sr.zero_load_latency > 0,
                      w + ": search found a saturation point");
  }
  out.checks.expect(
      same_bits(f.prop.saturation_gbps, first.prop.saturation_gbps) &&
          same_bits(f.base.saturation_gbps, first.base.saturation_gbps) &&
          same_bits(f.prop.zero_load_latency, first.prop.zero_load_latency) &&
          same_bits(f.base.zero_load_latency, first.base.zero_load_latency),
      what + ": searches bit-identical to the first run of this seed");
}

/// Conservation, no drops, and bit-identity with `first` for one set of
/// probes (the first set of the seed, or of the untraced run).
void check_probes(Outcome& out, const std::vector<RunObs>& probes,
                  const std::vector<RunObs>& first, const Options& o,
                  const std::string& what) {
  for (size_t i = 0; i < probes.size(); ++i) {
    const std::string w = what + " probe " + std::to_string(i);
    out.count_run(probes[i].sim);
    check_conservation(out, probes[i].sim, o, w);
    out.checks.expect(probes[i].sim.dropped == 0, w + ": no packet dropped");
    check_identical(out, probes[i].sim, first[i].sim, o,
                    w + " bit-identical to the first untraced probe set");
  }
}

int run_fig5(const Options& o, Outcome& out, SpanLog& spans) {
  NetworkConfig prop = NetworkConfig::proposed(4);
  NetworkConfig base = NetworkConfig::baseline_3stage(4);
  for (NetworkConfig* c : {&prop, &base}) {
    c->traffic.pattern = TrafficPattern::MixedPaper;
    c->traffic.identical_prbs = true;
    c->traffic.seed = o.seed;
  }
  // bench_fig5_mixed_traffic's measurement phases.
  const MeasureOptions opt = o.smoke ? MeasureOptions{300, 1200}
                                     : MeasureOptions{3000, 12000};
  HostSpeed host(o.smoke ? 1 : 3);
  RefTimed setup;
  sample_setup({prop, base}, o.smoke ? 3 : 21, spans, setup);
  host.pair({&setup});
  std::printf("host.step_workers 1\n");

  // Each phase runs the two searches once, checks them with one probe set,
  // and fills the rest of its budget with further probe sets. A search is
  // one opaque call of ~10 s whose cost depends on where the seed's
  // bisection lands, so host time comes from the probe sets instead: fixed
  // work for a seed, stepped in chunks and repeated many times in a run.
  // Each set is checked as it ends, timed against the reference, and
  // folded into the phase's fastest chunks. The untraced phase keeps only
  // its first set, so peak RSS does not grow with the number of sets the
  // host speed allows.
  std::vector<Fig5Search> searches[2];                // [traced]
  std::vector<Rep> probe_sets[2];                     // [traced]
  Rep fastest[2];                                     // [traced]
  RefTimed wall[2];                                   // [traced]
  const auto run_phase = [&](bool tr, double budget) {
    const std::string prefix =
        tr && !o.out_dir.empty() ? o.out_dir + "/" : std::string{};
    const std::string mode = tr ? "traced" : "untraced";
    std::vector<Fig5Search>& fs = searches[tr];
    std::vector<Rep>& ps = probe_sets[tr];
    int sets = 1;
    const auto start = Clock::now();
    const auto elapsed = [&] { return seconds_between(start, Clock::now()); };
    {
      auto s = spans.scope(tr ? "bench.unit.traced" : "bench.unit");
      fs.push_back(fig5_search(prop, base, opt, tr, spans));
      ps.push_back(fig5_probes(prop, base, fs.back(), opt, tr, spans, prefix));
      const std::string what = mode + " search";
      check_fig5(out, fs.back(), ps.back(), searches[0].front(), o, what);
      check_probes(out, ps.back(), probe_sets[0].front(), o, mode + " set 1");
      fastest[tr] = ps.back();
      wall[tr].add(chunk_total(ps.back(), false));
      host.pair({&wall[tr]});
      std::printf("%s: %.3f s + %.3f s, sat %.1f Gb/s (base %.1f), "
                  "zero-load %.3f cycles\n",
                  what.c_str(), fs.back().prop_s, fs.back().base_s,
                  fs.back().prop.saturation_gbps,
                  fs.back().base.saturation_gbps,
                  fs.back().prop.zero_load_latency);
    }
    double last = 0;
    do {
      const auto a = Clock::now();
      Rep set = fig5_probes(prop, base, fs.front(), opt, tr, spans, {});
      check_probes(out, set, probe_sets[0].front(), o,
                   mode + " set " + std::to_string(++sets));
      fold_fastest(fastest[tr], set);
      wall[tr].add(chunk_total(set, false));
      if (tr) ps.push_back(std::move(set));
      sample_setup({prop, base}, o.smoke ? 1 : 11, spans, setup);
      host.pair({&setup, &wall[tr]});
      last = seconds_between(a, Clock::now());
    } while (elapsed() + last <= budget);
    std::printf("%s: %d probe sets, %.4f s per set at the fastest chunks, "
                "%.4f Mnc/s\n",
                mode.c_str(), sets, chunk_total(fastest[tr], false),
                probe_mncps(fastest[tr]));
  };
  run_phase(false, o.trace ? o.seconds / 2 : o.seconds);
  if (o.trace) run_phase(true, o.seconds / 2);

  const Fig5Search& f = searches[0].front();
  const PointResult& at = f.prop.at_saturation;
  out.notes.push_back({"sat_gbps (paper 892)", f.prop.saturation_gbps});
  out.notes.push_back(
      {"zero_load_cycles (paper 13.1)", f.prop.zero_load_latency});
  out.notes.push_back({"sat_gain_x (paper 2.1)", f.gain()});
  out.notes.push_back({"paper_err_pct", f.paper_err_pct()});
  if (!o.trace) {
    print_unscaled(host, setup, wall[0]);
    out.add("setup_s", setup.scaled_median(), "s");
    out.add("wall_s", wall[0].scaled_median(), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    // The proposed router's saturation throughput and zero-load latency
    // (the paper's two fig5 headline axes), and its mid-curve latency.
    const std::vector<RunObs>& p = probe_sets[0].front();
    out.add("recv_fpc", at.recv_flits_per_cycle, "flits/cycle");
    out.add("lat_avg_cycles",
            mean_stat(p, kFirstZeroLoad, kZeroLoadSeeds,
                       [](const SimStats& s) { return s.lat_avg; }),
            "cycles");
    out.add("lat_p99_cycles",
            mean_stat(p, kFirstMidLoad, kMidLoadSeeds,
                       [](const SimStats& s) {
                         return static_cast<double>(s.lat_p99);
                       }),
            "cycles");
    out.add("txn_per_kcycle",
            mean_stat(p, kFirstMidLoad, kMidLoadSeeds,
                       [&](const SimStats& s) {
                         return 1000.0 *
                                static_cast<double>(s.window_packets) /
                                static_cast<double>(opt.window);
                       }),
            "txn/kcycle");
    out.add("txn_lat_cycles",
            mean_stat(p, kFirstMidLoad, kMidLoadSeeds,
                       [](const SimStats& s) { return s.lat_avg; }),
            "cycles");
    return 0;
  }
  std::vector<RunObs> traced_probes;
  for (const auto& p : probe_sets[1])
    traced_probes.insert(traced_probes.end(), p.begin(), p.end());
  add_layer_metrics(out, traced_probes, fastest[0]);
  out.add("network.mncps", probe_mncps(fastest[0]), "Mnc/s");
  out.add("spans.workers", 0, "count");
  out.add("spans.speedup", 0.0, "x");
  out.add("spans.step_tail_ratio", 0.0, "ratio");
  double zl_s = 0;
  {
    auto s = spans.scope("experiment.zero_load_latency");
    const auto t = Clock::now();
    const double zl = zero_load_latency(prop, opt);
    zl_s = seconds_between(t, Clock::now());
    out.checks.expect(same_bits(zl, f.prop.zero_load_latency),
                      "zero_load_latency() matches the search's zero-load");
  }
  out.add("experiment.search_s.proposed", f.prop_s, "s");
  out.add("experiment.search_s.baseline", f.base_s, "s");
  out.add("experiment.zero_load_s", zl_s, "s");
  out.add("experiment.sat_gbps", f.prop.saturation_gbps, "Gb/s");
  out.add("experiment.zero_load_cycles", f.prop.zero_load_latency, "cycles");
  out.add("experiment.sat_gain_x", f.gain(), "x");
  out.add("experiment.paper_err_pct", f.paper_err_pct(), "%");
  const double untraced_wall = wall[0].scaled_median();
  const double traced_wall = wall[1].scaled_median();
  const double overhead = 100.0 * (traced_wall / untraced_wall - 1.0);
  out.add("telemetry.overhead_pct", overhead, "%");
  std::printf("untraced wall_s %.4f s | traced wall_s %.4f s | "
              "telemetry.overhead_pct %.2f %%\n",
              untraced_wall, traced_wall, overhead);
  return 0;
}

void print_result(const Outcome& out) {
  std::printf("\n%-32s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : out.metrics)
    std::printf("%-32s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const auto& [name, v] : out.notes)
    std::printf("  (%s: %.6g)\n", name.c_str(), v);
  const int64_t attempted = out.generated + out.checks.run();
  const int64_t failed = out.dropped + out.checks.failed();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.checks.failed() == 0 ? "true" : "false",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  Options o;
  o.workload = args.get_str("workload", "");
  o.seed = static_cast<uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10);
  o.trace = args.get_int("trace", 0) != 0;
  o.smoke = args.has("smoke");
  o.out_dir = args.get_str("out", "");
  o.commit = args.get_str("commit", "unknown");
  o.break_check = args.get_str("break-check", "");
  if (args.help() || !args.check_unused() || o.workload.empty()) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--commit ID] [--smoke] [--break-check WHAT]\n",
                 argv[0]);
    return 2;
  }
  const bool fig5 = o.workload == "fig5_chip4x4";
  if (!fig5 && o.workload != "uniform16_serial" &&
      o.workload != "coherence8_closed") {
    std::fprintf(stderr, "unknown workload: %s\n", o.workload.c_str());
    return 2;
  }
  if (!o.break_check.empty() && o.break_check != "bitident" &&
      o.break_check != "conservation" && o.break_check != "stationarity") {
    std::fprintf(stderr, "unknown --break-check: %s\n", o.break_check.c_str());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  std::printf("host.nproc %u\nhost.compiler %s\nhost.build_type %s\n"
              "host.commit %s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, o.commit.c_str());

  SpanLog spans(o.trace);
  Outcome out;
  const int rc = fig5 ? run_fig5(o, out, spans) : run_stepping(o, out, spans);
  if (rc != 0) return rc;
  if (o.trace && !o.out_dir.empty()) {
    if (!spans.write_json(o.out_dir + "/spans.json"))
      std::fprintf(stderr, "warning: could not write %s/spans.json\n",
                   o.out_dir.c_str());
    else
      std::printf("wrote %zu spans and the telemetry time series to %s\n",
                  spans.size(), o.out_dir.c_str());
  }
  print_result(out);
  return out.checks.failed() == 0 ? 0 : 1;
}
