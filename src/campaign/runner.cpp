#include "campaign/runner.hpp"

#include <cstdio>
#include <mutex>

#include "sim/thread_pool.hpp"

namespace noc::campaign {

std::vector<std::pair<std::string, double>> point_report(
    const PointResult& r) {
  std::vector<std::pair<std::string, double>> rep;
  rep.reserve(24);
  // Delivered flits/cycle at 1 GHz -> flits/second: the one metric every
  // point kind reports, and the column the perf gate compares.
  rep.emplace_back("items_per_second", r.recv_flits_per_cycle * 1e9);
  rep.emplace_back("offered_fpc", r.offered_fpc);
  rep.emplace_back("avg_latency", r.avg_latency);
  rep.emplace_back("recv_flits_per_cycle", r.recv_flits_per_cycle);
  rep.emplace_back("recv_gbps", r.recv_gbps);
  rep.emplace_back("bypass_rate", r.bypass_rate);
  rep.emplace_back("completed_packets",
                   static_cast<double>(r.completed_packets));
  rep.emplace_back("dropped_packets",
                   static_cast<double>(r.dropped_packets));
  rep.emplace_back("max_ejection_load", r.max_ejection_load);
  rep.emplace_back("max_bisection_load", r.max_bisection_load);
  rep.emplace_back("transactions", static_cast<double>(r.transactions));
  rep.emplace_back("avg_transaction_latency", r.avg_transaction_latency);
  rep.emplace_back("max_transaction_latency", r.max_transaction_latency);
  rep.emplace_back("transactions_per_cycle", r.transactions_per_cycle);
  rep.emplace_back("closed_loop_window",
                   static_cast<double>(r.closed_loop_window));
  rep.emplace_back("avg_probe_latency", r.avg_probe_latency);
  rep.emplace_back("avg_response_latency", r.avg_response_latency);
  // Latency order statistics (docs/OBSERVABILITY.md): always available --
  // the histogram in Metrics is unconditional. Report rows never feed the
  // content hash, so adding them leaves every existing hash valid.
  rep.emplace_back("p50_latency", static_cast<double>(r.p50_latency));
  rep.emplace_back("p95_latency", static_cast<double>(r.p95_latency));
  rep.emplace_back("p99_latency", static_cast<double>(r.p99_latency));
  rep.emplace_back("min_latency", static_cast<double>(r.min_latency));
  rep.emplace_back("max_latency", static_cast<double>(r.max_latency));
  // Stall attribution totals; zero unless the point enables telemetry.
  for (int c = 0; c < kNumStallClasses; ++c)
    rep.emplace_back(
        std::string("stall_") + stall_class_name(static_cast<StallClass>(c)),
        static_cast<double>(r.stall_cycles[c]));
  // The energy-event counts that differ across router configs -- the
  // ablation axis trace replay exists to compare.
  rep.emplace_back("xbar_traversals",
                   static_cast<double>(r.energy.xbar_traversals));
  rep.emplace_back("link_traversals",
                   static_cast<double>(r.energy.link_traversals));
  rep.emplace_back("buffer_writes",
                   static_cast<double>(r.energy.buffer_writes));
  rep.emplace_back("buffer_reads",
                   static_cast<double>(r.energy.buffer_reads));
  rep.emplace_back("vc_active_cycles",
                   static_cast<double>(r.energy.vc_active_cycles));
  rep.emplace_back("bypasses", static_cast<double>(r.energy.bypasses));
  rep.emplace_back("buffered_hops",
                   static_cast<double>(r.energy.buffered_hops));
  return rep;
}

std::vector<std::pair<std::string, double>> saturation_report(
    const SaturationResult& s) {
  std::vector<std::pair<std::string, double>> rep;
  rep.reserve(4 + 24);
  rep.emplace_back("items_per_second",
                   s.at_saturation.recv_flits_per_cycle * 1e9);
  rep.emplace_back("zero_load_latency", s.zero_load_latency);
  rep.emplace_back("saturation_offered", s.saturation_offered);
  rep.emplace_back("saturation_gbps", s.saturation_gbps);
  // The full point measured at saturation, prefixed to stay one flat map.
  for (auto& [key, value] : point_report(s.at_saturation))
    if (key != "items_per_second")
      rep.emplace_back("sat_" + key, value);
  return rep;
}

CampaignRecord make_record(
    const Manifest& m, const ResolvedPoint& r,
    std::vector<std::pair<std::string, double>> report) {
  CampaignRecord rec;
  rec.campaign = m.name;
  rec.point_id = r.point->id;
  rec.kind = point_kind_name(r.point->kind);
  rec.hash = r.hash;
  rec.host = current_host();
  rec.report = std::move(report);
  return rec;
}

namespace {

struct PointOutcome {
  bool executed = false;
  std::string error;  // non-empty = failed
};

/// Execute one resolved point and persist its record (and trace, for
/// captures). Runs on a worker thread; everything it touches is either
/// point-local or an atomically-renamed file keyed by the point hash.
PointOutcome execute_point(const Manifest& m, const ResultStore& store,
                           const ResolvedPoint& r,
                           const ResolvedPoint* dep) {
  PointOutcome out;
  out.executed = true;
  std::vector<std::pair<std::string, double>> report;
  switch (r.point->kind) {
    case PointKind::Measure:
      report = point_report(measure_workload(r.cfg, r.measure));
      break;
    case PointKind::Saturation:
      report = saturation_report(find_saturation(r.cfg, r.measure));
      break;
    case PointKind::Capture: {
      Trace trace;
      report = point_report(measure_workload(r.cfg, r.measure, &trace));
      if (!save_trace(store.trace_path(r.hash), trace)) {
        out.error = "cannot write trace " + store.trace_path(r.hash);
        return out;
      }
      report.emplace_back("trace_records",
                          static_cast<double>(trace.records.size()));
      break;
    }
    case PointKind::Replay: {
      // Always from the file, even when the capture ran moments ago in
      // this process: a fresh run and a resumed run must replay
      // byte-identical inputs.
      std::string err;
      const std::string path = store.trace_path(dep->hash);
      std::shared_ptr<Trace> trace = load_trace(path, &err);
      if (trace == nullptr) {
        out.error = err;
        return out;
      }
      const int ky = r.cfg.ky > 0 ? r.cfg.ky : r.cfg.k;
      if (std::string geo = trace_geometry_error(*trace, r.cfg.k, ky);
          !geo.empty()) {
        out.error = path + ": " + geo;
        return out;
      }
      NetworkConfig cfg = r.cfg;
      cfg.workload.trace.trace = std::move(trace);
      report = point_report(measure_workload(cfg, r.measure));
      break;
    }
  }
  if (!store.save_record(make_record(m, r, std::move(report))))
    out.error = "cannot write record " +
                store.record_path(r.point->id, r.hash);
  return out;
}

}  // namespace

RunSummary run_campaign(const Manifest& m, const ResultStore& store,
                        const RunOptions& opt) {
  RunSummary sum;
  std::string err;
  const auto resolved = resolve_manifest(m, &err);
  if (resolved.empty()) {
    sum.failed = 1;
    sum.errors.push_back(err);
    return sum;
  }
  if (!store.ensure_dirs()) {
    sum.failed = 1;
    sum.errors.push_back("cannot create results directory " + store.root());
    return sum;
  }

  // Decide the whole schedule up front so it is a pure function of
  // (manifest, store contents): the first `max_points` incomplete points in
  // manifest order, dependency wave first. Replays whose capture has no
  // trace on disk yet (its capture is deferred or later in the budget) are
  // deferred to the next invocation rather than failed.
  int budget = opt.max_points < 0 ? static_cast<int>(resolved.size())
                                  : opt.max_points;
  std::vector<const ResolvedPoint*> wave1, wave2;
  std::vector<bool> scheduled(resolved.size(), false);
  for (int wave = 0; wave < 2; ++wave) {
    for (size_t i = 0; i < resolved.size(); ++i) {
      const ResolvedPoint& r = resolved[i];
      const bool is_replay = r.point->kind == PointKind::Replay;
      if ((wave == 0) == is_replay) continue;
      // Each point is visited exactly once: non-replays in wave 0,
      // replays in wave 1.
      if (store.has_record(r.point->id, r.hash)) {
        ++sum.skipped;
        continue;
      }
      if (budget <= 0) {
        ++sum.deferred;
        continue;
      }
      if (is_replay) {
        const ResolvedPoint& dep = resolved[static_cast<size_t>(r.dep_index)];
        const bool trace_ready =
            store.has_record(dep.point->id, dep.hash) ||
            scheduled[static_cast<size_t>(r.dep_index)];
        if (!trace_ready) {
          ++sum.deferred;
          continue;
        }
      }
      (is_replay ? wave2 : wave1).push_back(&r);
      scheduled[i] = true;
      --budget;
    }
  }

  const int threads =
      opt.threads > 0 ? opt.threads : hardware_threads();
  std::mutex mu;
  auto run_wave = [&](const std::vector<const ResolvedPoint*>& wave) {
    std::vector<PointOutcome> outcomes(wave.size());
    parallel_for(threads, static_cast<int>(wave.size()), [&](int i) {
      const auto idx = static_cast<size_t>(i);
      const ResolvedPoint& r = *wave[idx];
      const ResolvedPoint* dep =
          r.dep_index >= 0 ? &resolved[static_cast<size_t>(r.dep_index)]
                           : nullptr;
      outcomes[idx] = execute_point(m, store, r, dep);
      if (opt.verbose) {
        std::lock_guard<std::mutex> lock(mu);
        std::printf("  [%s] %s (%s)\n",
                    outcomes[idx].error.empty() ? "done" : "FAIL",
                    r.point->id.c_str(), r.hash.c_str());
        std::fflush(stdout);
      }
    });
    for (const PointOutcome& o : outcomes) {
      if (!o.error.empty()) {
        ++sum.failed;
        sum.errors.push_back(o.error);
      } else if (o.executed) {
        ++sum.executed;
      }
    }
  };
  run_wave(wave1);
  run_wave(wave2);
  return sum;
}

}  // namespace noc::campaign
