// The measured run loop: rounds of setup + burst + closed-loop updates on
// the workload's runtime, the reference check, and the per-layer
// attribution of traced rounds.
//
// Timing of a round never includes the reference replay, digest
// extraction or trace analysis; those run between rounds or after the last.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "bdd/manager.hpp"
#include "core/error.hpp"
#include "eval/dist_run.hpp"
#include "fib/prefix_index.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "pred/atom_set.hpp"
#include "runtime/digest.hpp"
#include "runtime/sharded_runtime.hpp"
#include "scenario/spec.hpp"

#ifndef PERFBENCH_GIT_DESCRIBE
#define PERFBENCH_GIT_DESCRIBE "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace obs = tulkun::obs;
namespace rt = tulkun::runtime;
using tulkun::DeviceId;
using tulkun::Error;

namespace {

using Clock = std::chrono::steady_clock;
using Layers = std::map<std::string, double>;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// An update (or burst) slower than this counts as a timed-out operation.
constexpr double kUpdateTimeoutS = 1.0;
constexpr double kBurstTimeoutS = 60.0;
/// A segment that has not met its minimum sample count by then aborts.
constexpr double kSegmentCapS = 140.0;
/// Traced sharded rounds drain the flight recorder this often (updates), so
/// no shard ring wraps between drains.
constexpr std::size_t kDrainEvery = 16;
/// Rounds of an untraced run, at least: setup_s and burst_s are medians.
constexpr std::size_t kMinRounds = 3;
/// update_p99_s and updates_per_s are taken per window of at least this
/// many consecutive updates (a p99 needs 1000 samples).
constexpr std::size_t kWindowUpdates = 1000;
/// Updates of the traced in-process layer probe on distributed workloads
/// (enough for a queue-wait p99).
constexpr std::size_t kProbeUpdates = 1000;

// --- trace analysis ---------------------------------------------------------

struct Span {
  std::string_view name;
  std::uint32_t rank = 0;
  std::uint64_t start = 0;  // ns, steady clock (CLOCK_MONOTONIC: host-wide)
  std::uint64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t arg = 0;
  bool event = false;
};

/// Flattens snapshots into spans/events; `snaps` must outlive the result.
std::vector<Span> flatten(const std::vector<obs::TraceSnapshot>& snaps,
                          std::uint64_t& dropped) {
  std::vector<Span> out;
  for (const auto& snap : snaps) {
    for (const auto& t : snap.threads) {
      dropped += t.dropped;
      for (const auto& r : t.records) {
        Span s;
        s.name = r.name_id < snap.names.size()
                     ? std::string_view(snap.names[r.name_id])
                     : std::string_view();
        s.rank = r.rank;
        s.start = r.start_ns;
        s.end = r.start_ns + r.dur_ns;
        s.id = r.span_id;
        s.parent = r.parent_span;
        s.arg = r.arg;
        s.event = r.kind == obs::RecordKind::kEvent;
        out.push_back(s);
      }
    }
  }
  return out;
}

std::vector<const Span*> named(const std::vector<Span>& spans,
                               std::initializer_list<std::string_view> names,
                               bool event = false) {
  std::vector<const Span*> out;
  for (const auto& s : spans) {
    if (s.event != event) continue;
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      out.push_back(&s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  return out;
}

/// Length of the union of `ivs`, each clipped to [lo, hi].
std::uint64_t covered(std::vector<std::pair<std::uint64_t, std::uint64_t>> ivs,
                      std::uint64_t lo, std::uint64_t hi) {
  std::sort(ivs.begin(), ivs.end());
  std::uint64_t total = 0;
  std::uint64_t cur_s = 0;
  std::uint64_t cur_e = 0;
  bool open = false;
  for (auto [s, e] : ivs) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (s >= e) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// Self time of every span (parallel to `spans`, ns): its duration minus the
/// part of it covered by its child spans (children on any thread or rank).
std::vector<std::uint64_t> self_ns(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const auto& s : spans) {
    if (!s.event && s.parent != 0) children[s.parent].push_back({s.start, s.end});
  }
  std::vector<std::uint64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.event) continue;
    std::uint64_t kids = 0;
    if (const auto it = children.find(s.id); it != children.end()) {
      kids = covered(it->second, s.start, s.end);
    }
    out[i] = s.end - s.start - kids;
  }
  return out;
}

/// Seconds of self time of the spans named `name` that start inside one of
/// `phases` (sorted by start, disjoint).
double self_within(const std::vector<Span>& spans,
                   const std::vector<std::uint64_t>& self,
                   std::string_view name,
                   const std::vector<const Span*>& phases) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.event || s.name != name) continue;
    auto it = std::upper_bound(
        phases.begin(), phases.end(), s.start,
        [](std::uint64_t t, const Span* p) { return t < p->start; });
    if (it == phases.begin()) continue;
    if (s.start <= (*std::prev(it))->end) total += self[i];
  }
  return double(total) * 1e-9;
}

/// Per-update DVM compute: self time of the device handler spans inside
/// the update phases.
void add_dvm_compute_layers(Layers& L, const std::vector<Span>& spans,
                            const std::vector<const Span*>& updates,
                            double n) {
  const auto self = self_ns(spans);
  L["dvm.lec_delta_s_per_update"] =
      self_within(spans, self, "device.lec_delta", updates) / n;
  L["dvm.recompute_s_per_update"] =
      self_within(spans, self, "device.recompute", updates) / n;
  L["dvm.emit_s_per_update"] =
      self_within(spans, self, "device.emit", updates) / n;
  L["xform.apply_s"] = self_within(spans, self, "xform.apply", updates) / n;
  L["xform.invert_s"] = self_within(spans, self, "xform.invert", updates) / n;
}

/// Splits each phase interval into three back-to-back parts: until the
/// first work span starts (fan-out), first start to last end (device work),
/// last end to the phase end (termination detection). Work spans are
/// attributed to the phase their start falls in; the parts of one phase add
/// up to its duration exactly.
struct PhaseSplit {
  double phase_s = 0.0;
  double fanout_s = 0.0;
  double work_s = 0.0;
  double detect_s = 0.0;
  double probe_waves = 0.0;
};

PhaseSplit split_phases(const std::vector<const Span*>& phases,
                        const std::vector<const Span*>& work,
                        const std::vector<const Span*>& waves) {
  PhaseSplit out;
  std::size_t wi = 0;
  std::size_t vi = 0;
  for (const Span* p : phases) {
    std::uint64_t first = p->end;
    std::uint64_t last = p->start;
    while (wi < work.size() && work[wi]->start < p->start) ++wi;
    for (; wi < work.size() && work[wi]->start <= p->end; ++wi) {
      first = std::min(first, work[wi]->start);
      last = std::max(last, std::min(work[wi]->end, p->end));
    }
    if (first > last) first = last = p->end;  // no work seen: all fan-out
    out.phase_s += double(p->end - p->start) * 1e-9;
    out.fanout_s += double(first - p->start) * 1e-9;
    out.work_s += double(last - first) * 1e-9;
    out.detect_s += double(p->end - last) * 1e-9;
    while (vi < waves.size() && waves[vi]->start < p->start) ++vi;
    for (; vi < waves.size() && waves[vi]->start <= p->end; ++vi) {
      out.probe_waves += 1.0;
    }
  }
  return out;
}

/// Largest share of the phase that passed before some rank's first work
/// span began (a forked rank builds its world before it takes the Begin).
double max_rank_wait_share(const std::vector<const Span*>& work,
                           const Span& phase) {
  if (phase.end <= phase.start) return 0.0;
  std::map<std::uint32_t, std::uint64_t> first;
  for (const Span* s : work) {
    if (s->start < phase.start || s->start > phase.end) continue;
    auto [it, fresh] = first.emplace(s->rank, s->start);
    if (!fresh) it->second = std::min(it->second, s->start);
  }
  std::uint64_t wait = 0;
  for (const auto& [rank, t] : first) wait = std::max(wait, t - phase.start);
  return double(wait) / double(phase.end - phase.start);
}

/// Largest share of `window` that any rank spent inside `spans`.
double max_rank_share(const std::vector<const Span*>& spans,
                      std::uint64_t lo, std::uint64_t hi) {
  if (hi <= lo) return 0.0;
  std::map<std::uint32_t,
           std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      by_rank;
  for (const Span* s : spans) by_rank[s->rank].push_back({s->start, s->end});
  double best = 0.0;
  for (auto& [rank, ivs] : by_rank) {
    best = std::max(best, double(covered(ivs, lo, hi)) / double(hi - lo));
  }
  return best;
}

// --- per-layer counters -----------------------------------------------------

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Queue waits of the jobs handled after `before` was taken. metrics()
/// concatenates each shard's samples in shard order, one per job.
std::vector<double> queue_waits_since(const rt::RuntimeMetrics& before,
                                      const rt::RuntimeMetrics& after) {
  const auto& values = after.queue_wait_seconds.values();
  std::size_t total = 0;
  for (const auto n : after.jobs_per_shard) total += n;
  if (total != values.size()) {
    throw Error("queue-wait samples do not match per-shard job counts");
  }
  std::vector<double> out;
  std::size_t offset = 0;
  for (std::size_t s = 0; s < after.jobs_per_shard.size(); ++s) {
    const std::size_t n1 = after.jobs_per_shard[s];
    const std::size_t n0 =
        s < before.jobs_per_shard.size() ? before.jobs_per_shard[s] : 0;
    for (std::size_t j = n0; j < n1; ++j) out.push_back(values[offset + j]);
    offset += n1;
  }
  return out;
}

void add_index_layers(Layers& L,
                      const std::array<tulkun::fib::IndexCounters,
                                       tulkun::fib::kNumIndexKinds>& index) {
  double box = 0.0;
  for (std::size_t k = 0; k < tulkun::fib::kNumIndexKinds; ++k) {
    const auto& c = index[k];
    const std::string p = std::string("fib.") +
                          tulkun::fib::index_kind_name(
                              static_cast<tulkun::fib::IndexKind>(k)) +
                          ".";
    L[p + "skip_rate"] = c.skip_rate();
    L[p + "full_scans"] = double(c.full_scans);
    box += double(c.box_queries);
  }
  L["fib.box_queries"] = box;
}

void add_transport_layers(Layers& L, const tulkun::net::LinkMetrics& t) {
  L["net.send_queue_peak"] = double(t.send_queue_peak);
  L["net.protocol_errors"] = double(t.protocol_errors);
  L["net.reconnects"] = double(t.reconnects);
  L["net.heartbeat_misses"] = double(t.heartbeat_misses);
}

double dvm_compute(const rt::RuntimeMetrics& m) {
  return m.lec_delta_seconds + m.recompute_seconds + m.emit_seconds;
}

// --- rounds -----------------------------------------------------------------

/// One round of a workload: set up, burst, `n` closed-loop updates.
struct Round {
  std::size_t n_updates = 0;
  bool traced = false;
  double setup_s = 0.0;
  double burst_s = 0.0;
  std::vector<double> update_s;
  std::uint64_t individually_failed = 0;  // timeouts, resets, protocol errors
  std::vector<std::string> rows;          // sorted canonical digest
  std::uint64_t violations = 0;
  std::size_t stream = 0;
  rt::RuntimeMetrics metrics;  // merged over ranks (distributed rounds)
  Layers layers;               // traced rounds only
};

/// Replays the workload's world on a ShardedRuntime of `shards` workers.
/// Used for the sharded workload's rounds and, untimed, as every
/// workload's reference and the distributed workloads' traced layer probe.
Round sharded_round(const Workload& w, std::size_t shards, std::size_t n,
                    bool traced) {
  static const std::uint32_t kSetup = obs::intern("bench.setup");
  static const std::uint32_t kWorld = obs::intern("bench.world_build");
  static const std::uint32_t kInstall = obs::intern("bench.install");
  static const std::uint32_t kBurst = obs::intern("bench.burst");
  static const std::uint32_t kUpdate = obs::intern("bench.update");

  Round out;
  out.n_updates = n;
  out.traced = traced;
  auto& reg = obs::Registry::instance();
  std::vector<obs::TraceSnapshot> snaps;
  const std::uint64_t dfa_hits0 = reg.counter("planner_dfa_cache_hits").value();
  const std::uint64_t dfa_miss0 =
      reg.counter("planner_dfa_cache_misses").value();
  const std::uint64_t resets0 = reg.counter("dist_epoch_resets").value();
  const auto gc0 = tulkun::bdd::gc_totals();

  const auto t0 = Clock::now();
  auto setup_span = std::make_unique<obs::ScopedSpan>(kSetup);
  tulkun::eval::HarnessOptions hopts = w.harness;
  hopts.engine.runtime_shards = shards;
  tulkun::eval::Harness harness(w.dataset, hopts);
  const auto tw = Clock::now();
  rt::DistWorld world;
  {
    obs::ScopedSpan span(kWorld);
    world = harness.world_builder(n, &w.churn)();
  }
  const double world_build_s = since(tw);
  rt::ShardedRuntime runtime(harness.topology(), hopts.engine);
  const auto ti = Clock::now();
  {
    obs::ScopedSpan span(kInstall);
    for (const auto& plan : world.plans) runtime.install(plan);
  }
  const double install_s = since(ti);
  setup_span.reset();
  out.setup_s = since(t0);

  const auto tb = Clock::now();
  {
    obs::ScopedSpan span(kBurst);
    for (DeviceId d = 0; d < static_cast<DeviceId>(world.tables.size()); ++d) {
      runtime.post_initialize(d, world.tables[d]);
    }
    runtime.wait_quiescent();
  }
  out.burst_s = since(tb);
  if (out.burst_s > kBurstTimeoutS) out.individually_failed += 1;
  const auto m_burst = runtime.metrics();
  std::uint64_t live_peak = tulkun::bdd::global_live_nodes();
  if (traced) snaps.push_back(obs::drain_snapshot());
  tulkun::fib::index_counters_reset();
  const auto atoms0 = tulkun::pred::atom_counters_snapshot();

  const std::size_t steps = std::min(n, world.steps.size());
  out.update_s.reserve(steps);
  tulkun::scenario::StepCursor cursor;
  for (std::size_t i = 0; i < steps; ++i) {
    const auto& step = world.steps[i];
    const auto upd = cursor.resolve(step.update, step.erase_of);
    const auto tu = Clock::now();
    std::shared_ptr<const tulkun::fib::FibUpdate> handle;
    {
      obs::ScopedSpan span(kUpdate);
      handle = runtime.post_rule_update(upd.device, upd);
      runtime.wait_quiescent();
    }
    const double dt = since(tu);
    cursor.record(handle->rule_id);
    out.update_s.push_back(dt);
    if (dt > kUpdateTimeoutS) out.individually_failed += 1;
    if (traced && (i + 1) % kDrainEvery == 0) {
      snaps.push_back(obs::drain_snapshot());
      live_peak = std::max(live_peak, tulkun::bdd::global_live_nodes());
    }
  }
  live_peak = std::max(live_peak, tulkun::bdd::global_live_nodes());
  const auto m_end = runtime.metrics();
  const auto index = tulkun::fib::index_counters_snapshot();
  const auto atoms1 = tulkun::pred::atom_counters_snapshot();
  if (traced) snaps.push_back(obs::drain_snapshot());

  out.violations = runtime.violations().size();
  for (DeviceId d = 0; d < static_cast<DeviceId>(runtime.device_count());
       ++d) {
    auto rows = rt::canonical_device_rows(runtime.device(d));
    out.rows.insert(out.rows.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  std::sort(out.rows.begin(), out.rows.end());
  if (!traced) return out;

  // ---- per-layer attribution ----
  Layers& L = out.layers;
  const double nu = double(std::max<std::size_t>(steps, 1));
  std::uint64_t dropped = 0;
  const auto spans = flatten(snaps, dropped);
  const auto update_spans = named(spans, {"bench.update"});

  double commit_s = 0.0;
  for (const Span* s : named(spans, {"planner.commit"})) {
    commit_s += double(s->end - s->start) * 1e-9;
  }
  L["planner.world_build_s"] = world_build_s;
  L["planner.commit_s"] = commit_s;
  const double dfa_hits =
      double(reg.counter("planner_dfa_cache_hits").value() - dfa_hits0);
  const double dfa_miss =
      double(reg.counter("planner_dfa_cache_misses").value() - dfa_miss0);
  L["planner.dfa_cache_hit_ratio"] = ratio(dfa_hits, dfa_hits + dfa_miss);

  L["runtime.install_s"] = install_s;
  const auto waits = queue_waits_since(m_burst, m_end);
  const auto wait50 = tail_quantile(waits, 0.5);
  const auto wait99 = tail_quantile(waits, 0.99);
  if (!wait50 || !wait99) {
    throw Error("too few update-phase jobs for a queue-wait p99 (" +
                std::to_string(waits.size()) + ")");
  }
  L["runtime.queue_wait_p50_s"] = *wait50;
  L["runtime.queue_wait_p99_s"] = *wait99;
  L["runtime.jobs_per_update"] = double(m_end.jobs - m_burst.jobs) / nu;
  L["runtime.mean_batch_size"] = m_end.mean_batch_size();
  double max_jobs = 0.0;
  double sum_jobs = 0.0;
  for (const auto j : m_end.jobs_per_shard) {
    max_jobs = std::max(max_jobs, double(j));
    sum_jobs += double(j);
  }
  L["runtime.shard_jobs_max_over_mean"] = ratio(
      max_jobs, sum_jobs / double(std::max<std::size_t>(
                               m_end.jobs_per_shard.size(), 1)));

  add_dvm_compute_layers(L, spans, update_spans, nu);
  L["dvm.envelopes_per_update"] =
      double(m_end.envelopes - m_burst.envelopes) / nu;
  L["dvm.burst_compute_s"] = dvm_compute(m_burst);
  L["dvm.frame_bytes_per_envelope"] =
      ratio(double(m_burst.frame_bytes), double(m_burst.envelopes));
  L["dvm.transfer_cache_hit_rate"] = m_end.transfer_cache_hit_rate();
  L["dvm.channel_nodes_shipped"] = double(m_end.channel_nodes_shipped);

  add_index_layers(L, index);
  const double hits = double(atoms1.atom_hits - atoms0.atom_hits);
  const double falls = double(atoms1.bdd_fallbacks - atoms0.bdd_fallbacks);
  L["pred.atom_hit_ratio"] = ratio(hits, hits + falls);
  L["pred.demotions"] = double(atoms1.demotions - atoms0.demotions);
  L["pred.promote_failures"] =
      double(atoms1.promote_failures - atoms0.promote_failures);
  L["bdd.live_nodes_peak"] = double(live_peak);
  L["bdd.gc_runs"] = double(tulkun::bdd::gc_totals().runs - gc0.runs);

  // In-process "wire": the encoded frames crossing shard queues.
  L["net.frames_per_update"] = double(m_end.frames - m_burst.frames) / nu;
  L["net.bytes_per_update"] =
      double(m_end.frame_bytes - m_burst.frame_bytes) / nu;
  L["net.burst_bytes"] = double(m_burst.frame_bytes);
  add_transport_layers(L, m_end.transport);

  // Post -> first shard batch -> last batch end -> quiescence observed.
  const auto split =
      split_phases(update_spans, named(spans, {"runtime.batch"}),
                   named(spans, {"dist.probe_wave"}, /*event=*/true));
  L["coord.phase_s"] = split.phase_s / nu;
  L["coord.begin_fanout_s"] = split.fanout_s / nu;
  L["coord.device_work_s"] = split.work_s / nu;
  L["coord.detect_s"] = split.detect_s / nu;
  L["coord.probe_waves_per_update"] = split.probe_waves / nu;

  L["dist.epoch_resets"] =
      double(reg.counter("dist_epoch_resets").value() - resets0);
  const auto plans = named(spans, {"harness.plan_all"});
  L["dist.world_builds"] = double(plans.size());
  const auto bursts = named(spans, {"bench.burst"});
  if (bursts.empty()) throw Error("traced round recorded no burst span");
  L["dist.burst_plan_all_share"] =
      max_rank_share(plans, bursts.front()->start, bursts.front()->end);
  L["dist.burst_world_build_share"] =
      max_rank_wait_share(named(spans, {"runtime.batch"}), *bursts.front());
  L["obs.trace_dropped_records"] = double(dropped);
  return out;
}

/// One eval::dist_run over forked UDS ranks. `burst_only` (the traced
/// segment's n = 0 round) is the baseline per-update counters subtract.
Round dist_round(const Workload& w, std::size_t n, const std::string& dir,
                 bool traced, const rt::RuntimeMetrics* burst_only) {
  Round out;
  out.n_updates = n;
  out.traced = traced;
  tulkun::eval::DistOptions d;
  d.kind = tulkun::net::TransportKind::Unix;
  d.device_procs = w.procs;
  d.n_updates = n;
  d.socket_dir = dir;
  d.churn = w.churn;
  d.collect_trace = traced;
  d.fanout = w.fanout;
  d.recovery = w.recovery;
  d.anchor_every = w.anchor_every;
  Clock::time_point burst_done{};
  d.hooks.on_phase = [&](std::size_t phase,
                         const rt::DistCoordinator::PhaseOutcome& o) {
    const bool failed = o.resets > 0 || o.wall_seconds > (phase == 0
                                                              ? kBurstTimeoutS
                                                              : kUpdateTimeoutS);
    if (failed) out.individually_failed += 1;
    if (phase == 0) {
      burst_done = Clock::now();
      out.burst_s = o.wall_seconds;
    } else {
      out.update_s.push_back(o.wall_seconds);
    }
  };
  obs::set_trace_enabled(traced);
  std::filesystem::create_directories(dir);
  const auto t0 = Clock::now();
  auto res = tulkun::eval::dist_run(w.dataset, w.harness, d);
  std::filesystem::remove_all(dir);
  // Fork + exec + Hello: everything before the burst phase began.
  out.setup_s =
      std::chrono::duration<double>(burst_done - t0).count() - out.burst_s;
  out.individually_failed += res.metrics.transport.protocol_errors;
  out.rows = std::move(res.rows);
  out.violations = res.violations;
  out.metrics = res.metrics;
  if (!traced) return out;

  Layers& L = out.layers;
  std::uint64_t dropped = 0;
  const auto spans = flatten(res.traces, dropped);
  std::vector<const Span*> phases;  // the coordinator's, by phase number
  for (const Span* s : named(spans, {"dist.phase"})) {
    if (s->rank == rt::kCoordinatorRank) phases.push_back(s);
  }
  std::sort(phases.begin(), phases.end(),
            [](const Span* a, const Span* b) { return a->arg < b->arg; });
  if (phases.empty() || phases.front()->arg != 0) {
    throw Error("traced distributed round recorded no burst phase span");
  }
  std::vector<const Span*> ranks_work;
  for (const Span* s : named(spans, {"dist.device_phase", "dist.handle_data"})) {
    if (s->rank != rt::kCoordinatorRank) ranks_work.push_back(s);
  }
  std::vector<const Span*> plan_spans;
  for (const Span* s : named(spans, {"harness.plan_all"})) {
    if (s->rank != rt::kCoordinatorRank) plan_spans.push_back(s);
  }
  // Forked ranks Hello before building their world, so each rank's
  // planning overlaps the burst phase.
  L["dist.burst_plan_all_share"] = max_rank_share(
      plan_spans, phases.front()->start, phases.front()->end);
  L["dist.burst_world_build_share"] =
      max_rank_wait_share(ranks_work, *phases.front());
  L["dist.epoch_resets"] = double(res.resets);
  double builds = 0.0;
  for (const auto& e : res.entries) builds += 1.0 + double(e.world_rebuilds);
  L["dist.world_builds"] = builds;
  L["obs.trace_dropped_records"] = double(dropped);
  add_transport_layers(L, res.metrics.transport);

  if (burst_only == nullptr) {
    // The burst-only round: burst-phase counters.
    L["dvm.burst_compute_s"] = dvm_compute(res.metrics);
    L["dvm.frame_bytes_per_envelope"] =
        ratio(double(res.metrics.frame_bytes), double(res.metrics.envelopes));
    L["net.burst_bytes"] = double(res.metrics.transport.bytes_sent);
    return out;
  }
  if (phases.size() != n + 1) {
    throw Error("traced distributed round lost phase spans (" +
                std::to_string(phases.size()) + " of " +
                std::to_string(n + 1) + ")");
  }
  const double nu = double(std::max<std::size_t>(n, 1));
  const std::vector<const Span*> updates(phases.begin() + 1, phases.end());
  const auto split = split_phases(
      updates, ranks_work, named(spans, {"dist.probe_wave"}, /*event=*/true));
  L["coord.phase_s"] = split.phase_s / nu;
  L["coord.begin_fanout_s"] = split.fanout_s / nu;
  L["coord.device_work_s"] = split.work_s / nu;
  L["coord.detect_s"] = split.detect_s / nu;
  L["coord.probe_waves_per_update"] = split.probe_waves / nu;

  add_dvm_compute_layers(L, spans, updates, nu);
  // Per-update counts: this round minus the burst-only round.
  const auto& m = res.metrics;
  const auto& b = *burst_only;
  L["dvm.envelopes_per_update"] =
      (double(m.envelopes) - double(b.envelopes)) / nu;
  L["dvm.transfer_cache_hit_rate"] = m.transfer_cache_hit_rate();
  L["dvm.channel_nodes_shipped"] = double(m.channel_nodes_shipped);
  L["net.frames_per_update"] =
      (double(m.transport.frames_sent) - double(b.transport.frames_sent)) / nu;
  L["net.bytes_per_update"] =
      (double(m.transport.bytes_sent) - double(b.transport.bytes_sent)) / nu;
  return out;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in KiB on Linux.
  return double(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// `v` cut into consecutive windows of at least kWindowUpdates samples
/// (the last takes the remainder); `v` must hold at least kWindowUpdates.
std::vector<std::vector<double>> windows_of(const std::vector<double>& v) {
  const std::size_t k = v.size() / kWindowUpdates;
  const std::size_t size = v.size() / k;
  std::vector<std::vector<double>> out(k);
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[std::min(i / size, k - 1)].push_back(v[i]);
  }
  return out;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string provenance_json(const Workload& w, const RunConfig& cfg,
                            const RunResult& r) {
  const auto topo = tulkun::eval::build_topology(w.dataset);
  const bool dist = w.vehicle == Vehicle::DistUds;
  std::ostringstream os;
  std::string streams;
  for (std::size_t k = 0; k < (cfg.trace ? 1 : kStreams); ++k) {
    streams += (k == 0 ? "" : ", ") + std::to_string(stream_seed(w.seed, k));
  }
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"seed\": " << w.seed << ", \"stream_seeds\": [" << streams
     << "], \"git_describe\": \""
     << json_escape(PERFBENCH_GIT_DESCRIBE) << "\", \"build_type\": \""
     << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"trace_compiled_in\": "
     << (obs::kTraceCompiledIn ? "true" : "false")
     << ", \"trace_enabled\": " << (cfg.trace ? "true" : "false")
     << ", \"workload\": \"" << w.name << "\", \"runtime\": \""
     << (dist ? "DistributedRuntime/uds" : "ShardedRuntime")
     << "\", \"dataset\": \"" << json_escape(w.dataset.name)
     << "\", \"devices\": " << topo.device_count()
     << ", \"prefixes_per_device\": " << w.dataset.prefixes_per_device
     << ", \"extra_rules\": " << w.dataset.extra_rules
     << ", \"fattree_k\": " << w.dataset.fattree_k
     << ", \"max_destinations\": " << w.harness.max_destinations
     << ", \"device_procs\": " << (dist ? w.procs : 0)
     << ", \"shards\": " << (dist ? 0 : w.shards)
     << ", \"fanout\": " << w.fanout << ", \"recovery\": \""
     << (dist ? rt::recovery_mode_name(w.recovery) : "none")
     << "\", \"anchor_every\": " << (dist ? w.anchor_every : 0)
     << ", \"churn\": \"" << json_escape(tulkun::scenario::format_churn_arg(w.churn))
     << "\", \"updates_per_round\": " << w.updates_per_round
     << ", \"traced_updates_per_round\": " << w.traced_updates_per_round
     << ", \"seconds\": " << cfg.seconds << ", \"rounds\": " << r.rounds
     << ", \"update_samples\": " << r.update_samples << "}";
  return os.str();
}

}  // namespace

RunResult run_workload(const Workload& w, const RunConfig& cfg) {
  const bool dist = w.vehicle == Vehicle::DistUds;
  std::vector<Round> rounds;
  double rss_mb = 0.0;
  rt::RuntimeMetrics burst_only;
  bool have_burst_only = false;

  // Untraced runs cycle the input streams; traced runs keep stream 0, so
  // per-update counts can subtract its burst-only round.
  const auto one_round = [&](std::size_t n, bool traced, std::size_t stream) {
    const Workload ws = with_stream(w, stream);
    Round r;
    if (!dist) {
      r = sharded_round(ws, w.shards, n, traced);
    } else {
      const std::string dir =
          cfg.socket_dir + "/r" + std::to_string(rounds.size());
      r = dist_round(ws, n, dir, traced,
                     have_burst_only ? &burst_only : nullptr);
    }
    r.stream = stream;
    return r;
  };
  // Rounds until the budget is spent and the minimum counts are met.
  const auto segment = [&](bool traced, double budget_s,
                           std::size_t min_rounds, std::size_t min_updates) {
    const std::size_t n = traced ? w.traced_updates_per_round
                                 : w.updates_per_round;
    const auto t0 = Clock::now();
    std::size_t done_rounds = 0;
    std::size_t done_updates = 0;
    while (done_rounds < min_rounds || done_updates < min_updates ||
           since(t0) < budget_s) {
      if (since(t0) > kSegmentCapS) {
        throw Error("workload too slow: " + std::to_string(done_updates) +
                    " updates in " + std::to_string(since(t0)) + " s");
      }
      const std::size_t stream = cfg.trace ? 0 : done_rounds % kStreams;
      rounds.push_back(one_round(n, traced, stream));
      done_rounds += 1;
      done_updates += rounds.back().update_s.size();
      // The in-process heap keeps what earlier rounds freed, so the high-
      // water mark is read after a fixed number of rounds (one per stream),
      // not after however many the host fits in the budget.
      if (rounds.size() <= kStreams) rss_mb = peak_rss_mb();
    }
  };

  std::size_t untraced_rounds = 0;
  double untraced_mean = 0.0;
  Layers probe_layers;
  if (!cfg.trace) {
    obs::set_trace_enabled(false);
    segment(false, cfg.seconds, kMinRounds, w.min_updates);
  } else {
    if (!obs::kTraceCompiledIn) {
      throw Error("a traced run needs a build with TULKUN_TRACE=ON");
    }
    // Untraced third: the base of obs.trace_overhead.
    obs::set_trace_enabled(false);
    segment(false, cfg.seconds / 3.0, 1, 0);
    untraced_rounds = rounds.size();
    std::vector<double> all;
    for (const auto& r : rounds) {
      all.insert(all.end(), r.update_s.begin(), r.update_s.end());
    }
    untraced_mean = mean(all);
    obs::set_trace_enabled(true);
    (void)obs::drain_snapshot();
    if (dist) {
      rounds.push_back(one_round(0, true, 0));
      burst_only = rounds.back().metrics;
      have_burst_only = true;
    }
    segment(true, cfg.seconds * 2.0 / 3.0, 2, 0);
    if (dist) {
      // Forked ranks keep their process-global counters (prefix index,
      // atoms, BDD arena) to themselves, so the in-process layers are read
      // off a traced ShardedRuntime replay of the same world.
      (void)obs::drain_snapshot();
      probe_layers = sharded_round(w, w.procs, kProbeUpdates, true).layers;
    }
    obs::set_trace_enabled(false);
  }

  // ---- reference check (untimed) ----
  // A single-shard ShardedRuntime replay: one thread, one queue, so the
  // reference itself is deterministic.
  std::map<std::pair<std::size_t, std::size_t>, Round> refs;  // (stream, n)
  RunResult result;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    const auto key = std::make_pair(r.stream, r.n_updates);
    auto it = refs.find(key);
    if (it == refs.end()) {
      it = refs.emplace(key, sharded_round(with_stream(w, r.stream), 1,
                                           r.n_updates, false))
               .first;
    }
    bool matches = r.rows == it->second.rows &&
                   r.violations == it->second.violations;
    if (static_cast<int>(i) == cfg.inject_mismatch_round) matches = false;
    const std::uint64_t ops = 1 + r.update_s.size();
    result.attempted += ops;
    result.failed += failed_ops(ops, r.individually_failed, matches);
  }
  result.correct = result.failed == 0;

  // ---- metrics of the active table ----
  std::vector<double> setups;
  std::vector<double> bursts;
  std::vector<double> updates;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    if (r.traced != cfg.trace) continue;
    if (r.traced && r.n_updates == 0) continue;  // burst-only baseline
    result.rounds += 1;
    setups.push_back(r.setup_s);
    bursts.push_back(r.burst_s);
    updates.insert(updates.end(), r.update_s.begin(), r.update_s.end());
  }
  result.update_samples = updates.size();
  auto& M = result.metrics;
  if (!cfg.trace) {
    const auto p50 = tail_quantile(updates, 0.5);
    if (!p50 || updates.size() < kWindowUpdates) {
      throw Error("too few updates for a p99: " +
                  std::to_string(updates.size()));
    }
    std::vector<double> p99s;
    std::vector<double> rates;
    for (const auto& win : windows_of(updates)) {
      p99s.push_back(*tail_quantile(win, 0.99));
      double busy = 0.0;
      for (const double u : win) busy += u;
      rates.push_back(double(win.size()) / busy);
    }
    M["setup_s"] = median(setups);
    M["burst_s"] = median(bursts);
    M["update_p50_s"] = *p50;
    // A mean, not a median: about 1% of distributed updates take one extra
    // 2 ms probe wave, so a window's p99 sits in one of two modes and a
    // median over few windows flips between them from run to run. The
    // noisiest quarter of the windows (at least one) is left out, so one
    // stretch of host noise does not move the result.
    std::sort(p99s.begin(), p99s.end());
    p99s.resize(std::max<std::size_t>(1, p99s.size() - (p99s.size() + 3) / 4));
    M["update_p99_s"] = mean(p99s);
    M["updates_per_s"] = median(rates);
    M["peak_rss_mb"] = rss_mb;
  } else {
    // Mean per layer metric over the traced rounds that measured it. Traced
    // rounds share one update count, so this is the pooled per-update value
    // and stays additive: the coord.* parts sum to coord.phase_s.
    std::map<std::string, std::vector<double>> values;
    for (std::size_t i = untraced_rounds; i < rounds.size(); ++i) {
      for (const auto& [k, v] : rounds[i].layers) values[k].push_back(v);
    }
    for (const auto& [k, v] : probe_layers) {
      for (const char* p : {"planner.", "runtime.", "fib.", "pred.", "bdd.",
                            "xform."}) {
        if (k.rfind(p, 0) == 0) values[k].push_back(v);
      }
    }
    for (const auto& [k, v] : values) M[k] = mean(v);
    M["obs.trace_overhead"] = ratio(mean(updates), untraced_mean);
    M["bench.update_samples"] = double(updates.size());
  }
  result.provenance = provenance_json(w, cfg, result);
  return result;
}

}  // namespace perfbench
