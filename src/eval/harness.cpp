#include "eval/harness.hpp"

#include <algorithm>
#include <chrono>

#include "core/rng.hpp"
#include "obs/trace.hpp"
#include "planner/plan_service.hpp"
#include "pred/atom_set.hpp"
#include "runtime/sharded_runtime.hpp"
#include "scenario/spec.hpp"
#include "spec/builtins.hpp"

namespace tulkun::eval {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

regex::Ast any_to(DeviceId dst) {
  return regex::Ast::concat(
      {regex::Ast::star(regex::Ast::symbols_node(regex::SymbolSet::any())),
       regex::Ast::symbols_node(regex::SymbolSet::single(dst))});
}

/// Projects a host-speed overhead measurement onto a switch profile. Every
/// duration scales by the profile's CPU factor; memory is speed-invariant;
/// CPU load (busy/timeline) is scale-invariant to first order — compute
/// dominates both numerator and timeline, and host timing noise between
/// two measured runs exceeds the link-propagation correction.
Harness::DeviceOverhead scale_overhead(const Harness::DeviceOverhead& host,
                                       double cpu_scale) {
  Harness::DeviceOverhead out;
  for (const double v : host.init_seconds.values()) {
    out.init_seconds.add(v * cpu_scale);
  }
  out.init_memory = host.init_memory;
  out.init_cpu = host.init_cpu;
  for (const double v : host.msg_seconds.values()) {
    out.msg_seconds.add(v * cpu_scale);
  }
  out.msg_memory = host.msg_memory;
  out.msg_cpu = host.msg_cpu;
  for (const double v : host.per_message_seconds.values()) {
    out.per_message_seconds.add(v * cpu_scale);
  }
  return out;
}

}  // namespace

const std::vector<SwitchProfile>& switch_profiles() {
  // §9.4: three x86 switch CPUs of increasing age and one ARM (Centec),
  // which the paper finds markedly slower.
  static const std::vector<SwitchProfile> profiles = {
      {"Mellanox", 1.0},
      {"UfiSpace", 1.2},
      {"Edgecore", 1.45},
      {"Centec", 3.0},
  };
  return profiles;
}

Harness::Harness(DatasetSpec spec, HarnessOptions opts)
    : spec_(std::move(spec)), opts_(opts), topo_(build_topology(spec_)) {
  // Honor the TULKUN_ATOMS kill switch even when the harness is driven
  // outside the bench mains (tests, tools). Latch-once: flags already
  // applied by a bench's Args::parse stay in force.
  pred::apply_atom_env_overrides();
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    if (!topo_.prefixes(d).empty()) dsts_.push_back(d);
  }
  if (opts_.max_destinations > 0 && dsts_.size() > opts_.max_destinations) {
    Rng rng(opts_.seed ^ 0xd57);
    std::shuffle(dsts_.begin(), dsts_.end(), rng.engine());
    dsts_.resize(opts_.max_destinations);
    std::sort(dsts_.begin(), dsts_.end());
  }
}

std::size_t Harness::total_rules() {
  if (!rules_cache_) {
    const auto net = synthesize(
        topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
    rules_cache_ = net.total_rules();
  }
  return *rules_cache_;
}

spec::Invariant Harness::dst_invariant(packet::PacketSpace& space,
                                       DeviceId dst) const {
  spec::Invariant inv;
  inv.name = "reach_" + topo_.name(dst);
  inv.packet_space = space.none();
  for (const auto& p : topo_.prefixes(dst)) {
    inv.packet_space |= space.dst_prefix(p);
  }
  inv.packet_space_text = "prefixes(" + topo_.name(dst) + ")";
  for (const DeviceId ing : dsts_.empty() ? topo_.all_devices() : dsts_) {
    if (ing != dst) inv.ingress_set.push_back(ing);
  }
  // WAN/LAN invariant (§9.2): loop-free blackhole-free reachability within
  // shortest+slack hops; DC (§9.3.1): all-ToR-pair shortest-path reach.
  spec::PathExpr pe;
  pe.regex_text = ".* " + topo_.name(dst);
  pe.ast = any_to(dst);
  pe.loop_free = true;
  spec::LengthFilter f;
  f.base = spec::LengthFilter::Base::Shortest;
  if (spec_.kind == "DC") {
    f.cmp = spec::LengthFilter::Cmp::Eq;
    f.offset = 0;
  } else {
    f.cmp = spec::LengthFilter::Cmp::Le;
    f.offset = static_cast<std::int32_t>(opts_.slack);
  }
  pe.filters.push_back(f);
  inv.behavior = spec::Behavior::exist(
      spec::CountExpr{spec::CountExpr::Cmp::Ge, 1}, std::move(pe));
  return inv;
}

std::vector<planner::InvariantPlan> Harness::plan_all(
    packet::PacketSpace& space, const spec::FaultSpec& faults,
    double* seconds) const {
  TLK_SPAN_ARG("harness.plan_all", dsts_.size());
  const auto t0 = std::chrono::steady_clock::now();
  planner::PlanServiceOptions sopts;
  sopts.workers = opts_.plan_workers;
  sopts.incremental = opts_.plan_incremental;
  planner::PlanService service(topo_, space, sopts);
  for (const DeviceId dst : dsts_) {
    spec::Invariant inv = dst_invariant(space, dst);
    inv.faults = faults;
    service.add_invariant(std::move(inv));
  }
  service.commit();
  std::vector<planner::InvariantPlan> plans;
  plans.reserve(dsts_.size());
  for (const auto* plan : service.plans()) plans.push_back(*plan);
  if (seconds != nullptr) *seconds = seconds_since(t0);
  return plans;
}

Harness::TulkunRun Harness::start_tulkun(const spec::FaultSpec& faults) {
  TulkunRun tr;
  tr.space = std::make_unique<packet::PacketSpace>();

  const auto plans = plan_all(*tr.space, faults, &tr.plan_seconds);

  runtime::SimConfig scfg;
  scfg.cpu_scale = opts_.cpu_scale;
  tr.sim = std::make_unique<runtime::EventSimulator>(topo_, scfg);
  tr.sim->make_devices(*tr.space, opts_.engine);
  for (const auto& plan : plans) {
    tr.sim->install(plan);
  }

  const auto net = synthesize(
      topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    tr.sim->post_initialize(d, net.table(d), 0.0);
  }
  tr.burst_seconds = tr.sim->run();
  tr.now = tr.burst_seconds;
  return tr;
}

Harness::Result Harness::run(bool with_baselines, std::size_t n_updates) {
  Result result;
  result.dataset = spec_.name;
  result.devices = topo_.device_count();
  result.links = topo_.link_count();
  result.rules = total_rules();

  // ---- Tulkun ----
  TulkunRun tr = start_tulkun(spec::FaultSpec{});
  result.tulkun_plan_seconds = tr.plan_seconds;

  ToolRow tulkun_row;
  tulkun_row.tool = "Tulkun";
  tulkun_row.burst_seconds = tr.burst_seconds;
  tulkun_row.violations = tr.sim->violations().size();

  {
    const auto plan = update_plan(n_updates);
    scenario::StepCursor cur;
    for (const auto& step : plan.steps) {
      const fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
      const double post_time = tr.now;
      const auto handle =
          tr.sim->post_rule_update(upd.device, upd, post_time);
      const double end = tr.sim->run();
      cur.record(handle->rule_id);  // assigned during run()
      tulkun_row.incremental_seconds.add(end - post_time);
      tr.now = std::max(tr.now, end);
    }
  }
  result.rows.push_back(std::move(tulkun_row));

  if (!with_baselines) return result;

  // ---- Centralized baselines ----
  Rng loc_rng(opts_.seed ^ 0xbeef);
  const auto verifier_loc =
      static_cast<DeviceId>(loc_rng.index(topo_.device_count()));

  for (auto& tool : baseline::make_all_baselines()) {
    auto net = synthesize(
        topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
    auto queries =
        baseline::all_pair_queries(topo_, net.space(),
                                   spec_.kind == "DC" ? 0 : opts_.slack);
    std::erase_if(queries, [&](const baseline::Query& q) {
      return std::find(dsts_.begin(), dsts_.end(), q.dst) == dsts_.end() ||
             std::find(dsts_.begin(), dsts_.end(), q.ingress) == dsts_.end();
    });

    ToolRow row;
    row.tool = tool->name();
    row.burst_seconds = baseline::collection_latency(topo_, verifier_loc) +
                        tool->burst(net, queries);
    row.violations = tool->violations().size();
    row.memory_out = tool->memory_bytes() > opts_.memory_budget;

    if (!row.memory_out) {
      const auto plan = update_plan(n_updates);
      scenario::StepCursor cur;
      for (const auto& step : plan.steps) {
        fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
        const auto deltas = fib::apply_update(net, upd);
        cur.record(upd.rule_id);
        const double compute = tool->incremental(net, upd, deltas, queries);
        row.incremental_seconds.add(
            baseline::update_latency(topo_, verifier_loc, upd.device) +
            compute);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

Harness::FaultResult Harness::run_faults(std::size_t n_scenes,
                                         std::size_t updates_per_scene,
                                         bool with_baselines) {
  FaultResult result;
  result.dataset = spec_.name;

  const auto sampled =
      sample_fault_scenes(topo_, n_scenes, 3, opts_.seed + 2);
  spec::FaultSpec faults;
  faults.scenes = with_subsets(sampled);
  result.scenes = sampled.size();

  // ---- Tulkun ----
  TulkunRun tr = start_tulkun(faults);
  result.tulkun_plan_seconds = tr.plan_seconds;

  FaultToolRow tulkun_row;
  tulkun_row.tool = "Tulkun";

  std::uint64_t update_seed = opts_.seed + 3;
  std::vector<UpdatePlan> scene_plans;  // replayed identically for baselines
  for (std::size_t si = 0; si < sampled.size(); ++si) {
    scene_plans.push_back(scenario::legacy_plan(topo_, updates_per_scene,
                                                update_seed + si));
  }

  for (std::size_t si = 0; si < sampled.size(); ++si) {
    const auto& scene = sampled[si];
    // Fail the scene's links; measure recount convergence (Fig 12a).
    const double fail_at = tr.now;
    for (const auto& link : scene.failed) {
      tr.sim->post_link_event(link, /*up=*/false, fail_at);
    }
    double end = tr.sim->run();
    tulkun_row.scene_seconds.add(end - fail_at);
    tr.now = std::max(tr.now, end);

    // Incremental updates under the scene (Fig 12b/c).
    scenario::StepCursor cur;
    for (const auto& step : scene_plans[si].steps) {
      const fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
      const double post_time = tr.now;
      const auto handle =
          tr.sim->post_rule_update(upd.device, upd, post_time);
      end = tr.sim->run();
      cur.record(handle->rule_id);  // assigned during run()
      tulkun_row.incremental_seconds.add(end - post_time);
      tr.now = std::max(tr.now, end);
    }

    // Restore the links and reconverge before the next scene.
    for (const auto& link : scene.failed) {
      tr.sim->post_link_event(link, /*up=*/true, tr.now);
    }
    end = tr.sim->run();
    tr.now = std::max(tr.now, end);
  }
  result.rows.push_back(std::move(tulkun_row));

  if (!with_baselines) return result;

  Rng loc_rng(opts_.seed ^ 0xbeef);
  const auto verifier_loc =
      static_cast<DeviceId>(loc_rng.index(topo_.device_count()));

  for (auto& tool : baseline::make_all_baselines()) {
    auto net = synthesize(
        topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
    auto queries =
        baseline::all_pair_queries(topo_, net.space(),
                                   spec_.kind == "DC" ? 0 : opts_.slack);
    std::erase_if(queries, [&](const baseline::Query& q) {
      return std::find(dsts_.begin(), dsts_.end(), q.dst) == dsts_.end() ||
             std::find(dsts_.begin(), dsts_.end(), q.ingress) == dsts_.end();
    });

    FaultToolRow row;
    row.tool = tool->name();
    (void)tool->burst(net, queries);  // setup (not a Fig 12 number)
    if (tool->memory_bytes() > opts_.memory_budget) {
      result.rows.push_back(std::move(row));
      continue;
    }

    for (std::size_t si = 0; si < sampled.size(); ++si) {
      // Scene verification: link state must reach the verifier, then the
      // tool re-checks every query on its existing EC structures.
      double notify = 0.0;
      for (const auto& link : sampled[si].failed) {
        notify = std::max(
            notify, baseline::update_latency(topo_, verifier_loc, link.from));
      }
      row.scene_seconds.add(notify + tool->reverify(net, queries));

      scenario::StepCursor cur;
      for (const auto& step : scene_plans[si].steps) {
        fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
        const auto deltas = fib::apply_update(net, upd);
        cur.record(upd.rule_id);
        const double compute = tool->incremental(net, upd, deltas, queries);
        row.incremental_seconds.add(
            baseline::update_latency(topo_, verifier_loc, upd.device) +
            compute);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

Harness::DeviceOverhead Harness::measure_overhead(
    const SwitchProfile& profile, std::size_t n_updates) {
  return scale_overhead(measure_overhead_host(n_updates), profile.cpu_scale);
}

std::vector<std::pair<SwitchProfile, Harness::DeviceOverhead>>
Harness::measure_overhead_all(std::size_t n_updates) {
  const DeviceOverhead host = measure_overhead_host(n_updates);
  std::vector<std::pair<SwitchProfile, DeviceOverhead>> out;
  for (const auto& profile : switch_profiles()) {
    out.emplace_back(profile, scale_overhead(host, profile.cpu_scale));
  }
  return out;
}

Harness::DeviceOverhead Harness::measure_overhead_host(
    std::size_t n_updates) {
  DeviceOverhead out;
  constexpr double kCores = 4.0;

  // Phase 1 (Fig 14): per-device initialization, measured standalone.
  auto space = std::make_unique<packet::PacketSpace>();
  double plan_seconds = 0.0;
  const auto plans = plan_all(*space, spec::FaultSpec{}, &plan_seconds);
  const auto net = synthesize(
      topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});

  std::vector<std::unique_ptr<verifier::OnDeviceVerifier>> devices;
  std::vector<double> init_durations(topo_.device_count(), 0.0);
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    auto dev = std::make_unique<verifier::OnDeviceVerifier>(
        d, topo_, *space, opts_.engine);
    for (const auto& plan : plans) dev->install(plan);
    const auto t0 = std::chrono::steady_clock::now();
    (void)dev->initialize(net.table(d));
    const double dur = seconds_since(t0);
    init_durations[d] = dur;
    out.init_seconds.add(dur);
    out.init_memory.add(static_cast<double>(dev->memory_bytes()));
    devices.push_back(std::move(dev));
  }
  const double init_makespan =
      *std::max_element(init_durations.begin(), init_durations.end());
  for (const double dur : init_durations) {
    out.init_cpu.add(init_makespan > 0.0 ? dur / (init_makespan * kCores)
                                         : 0.0);
  }

  // Phase 2 (Fig 15): run the full evaluation in the simulator, collecting
  // the DVM message trace per device, then report processing costs.
  runtime::SimConfig scfg;
  scfg.cpu_scale = 1.0;
  runtime::EventSimulator sim(topo_, scfg);
  sim.make_devices(*space, opts_.engine);
  for (const auto& plan : plans) sim.install(plan);
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    sim.post_initialize(d, net.table(d), 0.0);
  }
  double now = sim.run();
  {
    const auto plan = update_plan(n_updates);
    scenario::StepCursor cur;
    for (const auto& step : plan.steps) {
      const fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
      const auto handle = sim.post_rule_update(upd.device, upd, now);
      now = std::max(now, sim.run());
      cur.record(handle->rule_id);  // assigned during run()
    }
  }

  for (const double s : sim.stats().per_message_seconds.values()) {
    out.per_message_seconds.add(s);
  }
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    const double busy = sim.device_busy_seconds(d);
    out.msg_seconds.add(busy);
    out.msg_memory.add(static_cast<double>(sim.device(d).memory_bytes()));
    out.msg_cpu.add(now > 0.0 ? busy / (now * kCores) : 0.0);
  }
  return out;
}

Harness::DistributedRun Harness::run_distributed(std::size_t n_updates) {
  DistributedRun out;
  // Scope the process-global index counters to this run.
  fib::index_counters_reset();

  // Plan in a dedicated space; the runtime localizes each plan into every
  // device's private space through the wire codec.
  packet::PacketSpace plan_space;
  double plan_seconds = 0.0;
  const auto plans = plan_all(plan_space, spec::FaultSpec{}, &plan_seconds);

  runtime::ShardedRuntime rt(topo_, opts_.engine);
  out.shards = rt.shard_count();
  for (const auto& plan : plans) rt.install(plan);

  const auto net = synthesize(
      topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
  const auto t0 = std::chrono::steady_clock::now();
  for (DeviceId d = 0; d < topo_.device_count(); ++d) {
    rt.post_initialize(d, net.table(d));
  }
  rt.wait_quiescent();
  out.burst_wall_seconds = seconds_since(t0);

  const auto plan = update_plan(n_updates, opts_.drop_fraction);
  scenario::StepCursor cur;
  for (const auto& step : plan.steps) {
    const fib::FibUpdate upd = cur.resolve(step.update, step.erase_of);
    const auto u0 = std::chrono::steady_clock::now();
    const auto handle = rt.post_rule_update(upd.device, upd);
    rt.wait_quiescent();
    cur.record(handle->rule_id);  // assigned by quiescence
    out.incremental_wall_seconds.add(seconds_since(u0));
  }

  out.violations = rt.violations().size();
  out.metrics = rt.metrics();
  return out;
}

UpdatePlan Harness::update_plan(std::size_t n_updates, double drop_fraction,
                                const scenario::ChurnProfile* churn) const {
  if (churn != nullptr) {
    scenario::ChurnProfile p = *churn;
    if (n_updates != 0) p.events = n_updates;
    if (drop_fraction > 0.0) p.drop_fraction = drop_fraction;
    return scenario::generate(topo_, p).untimed();
  }
  return scenario::legacy_plan(topo_, n_updates, opts_.seed + 1,
                               drop_fraction);
}

runtime::WorldBuilder Harness::world_builder(
    std::size_t n_updates, const scenario::ChurnProfile* churn) {
  const std::optional<scenario::ChurnProfile> churn_copy =
      churn != nullptr ? std::optional<scenario::ChurnProfile>(*churn)
                       : std::nullopt;
  return [this, n_updates, churn_copy]() {
    // Key the cache on everything the world derives from beyond the
    // harness itself (dataset + options are fixed per Harness).
    std::string key = std::to_string(n_updates);
    if (churn_copy) key += "|" + scenario::format_churn_arg(*churn_copy);
    std::lock_guard<std::mutex> cache_lock(world_cache_mu_);
    const auto hit = world_cache_.find(key);
    if (hit != world_cache_.end()) return hit->second;

    runtime::DistWorld world;
    // One space backs everything shipped in the world; devices localize
    // out of it through the wire codec exactly like ShardedRuntime does.
    auto space = std::make_shared<packet::PacketSpace>();
    world.plans = plan_all(*space, spec::FaultSpec{}, nullptr);

    auto net = synthesize(
        topo_, SynthOptions{opts_.ecmp_width, spec_.extra_rules, opts_.seed});
    world.tables.reserve(topo_.device_count());
    for (DeviceId d = 0; d < topo_.device_count(); ++d) {
      world.tables.push_back(runtime::localize_fib(net.table(d), *space));
    }

    const auto plan = update_plan(
        n_updates, 0.0, churn_copy ? &*churn_copy : nullptr);
    world.steps.reserve(plan.steps.size());
    for (const auto& step : plan.steps) {
      runtime::DistWorld::Step s;
      s.update = step.update;
      if (s.update.kind == fib::FibUpdate::Kind::Insert) {
        s.update.rule = runtime::localize_rule(step.update.rule, *space);
      } else {
        // Erases are identified by rule_id; drop the rule so no predicate
        // from the scratch space (which lives only inside the cached
        // world's keepalive) escapes into the world.
        s.update.rule = fib::Rule{};
      }
      s.erase_of = step.erase_of;
      world.steps.push_back(std::move(s));
    }
    world.keepalive = std::move(space);
    // Concurrent in-process ranks receive copies sharing the same BDD
    // space; their build-time localization reads serialize on this.
    world.localize_mu = std::make_shared<std::mutex>();
    return world_cache_.emplace(key, std::move(world)).first->second;
  };
}

Harness::PlanLatency Harness::plan_latency(std::uint32_t k,
                                           std::size_t max_scenes) {
  PlanLatency out;
  spec::FaultSpec faults;
  if (k > 0) {
    // Expand explicitly so we can cap deterministically.
    spec::FaultSpec any;
    any.any_k = k;
    std::vector<spec::FaultScene> scenes;
    try {
      scenes = dpvnet::expand_scenes(topo_, any, max_scenes);
    } catch (const Error&) {
      // Too many k-combinations: fall back to a sampled scene set of the
      // same failure sizes and report the run as capped.
      out.capped = true;
      const auto sampled =
          sample_fault_scenes(topo_, max_scenes / 4 + 1, k, opts_.seed + 7);
      scenes = with_subsets(sampled);
      if (scenes.size() > max_scenes) scenes.resize(max_scenes);
    }
    // Scene 0 is implicit in planning; strip it from the explicit list.
    std::erase_if(scenes,
                  [](const spec::FaultScene& s) { return s.failed.empty(); });
    faults.scenes = std::move(scenes);
  }
  out.scenes = faults.scenes.size() + 1;

  packet::PacketSpace space;
  (void)plan_all(space, faults, &out.seconds);
  return out;
}

}  // namespace tulkun::eval
