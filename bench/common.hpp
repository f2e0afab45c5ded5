// Shared plumbing for the figure-reproduction bench binaries.
//
// Every binary accepts:
//   --full           run all 13 datasets at full update counts (slow)
//   --updates=N      incremental updates per dataset
//   --max-dst=N      destination sample per dataset (0 = all)
//   --seed=N
//   --shards=N       worker-pool size of the sharded runtime sections
//                    (0 = one worker per hardware thread; the TULKUN_SHARDS
//                    environment variable sets the same knob, flags win)
//   --plan-workers=N planning concurrency of the PlanService sections
//                    (1 = serial, 0 = one per hardware thread; the
//                    TULKUN_PLAN_WORKERS environment variable sets the same
//                    knob, flags win; plans are byte-identical regardless)
//   --plan-incremental=0|1  disable/enable incremental replanning on the
//                    PlanService sections (default on; off = every commit
//                    replans the full intent set)
//   --atoms=0|1      disable/enable the atom-decomposition fast path
//                    (default on; TULKUN_ATOMS=0 sets the same kill switch,
//                    flags win)
//   --gc-nodes=N     per-device BDD gc threshold for the sharded runtime
//                    (live nodes before a mark/sweep; 0 = gc off)
//   --fib-index=0|1  disable/enable the destination-hull table index
//                    (default on; off = the pre-index full-scan engine,
//                    the baseline row of BENCH_HOTPATH.json)
//   --drop=F         fraction of incremental inserts that are Drop-class
//                    (/0-hull profile; see scenario::legacy_plan)
//   --transport=K    inproc|uds|tcp: also run the multi-process
//                    DistributedRuntime section over that transport
//                    (binaries that support it; empty = skip)
//   --procs=N        device processes for the --transport section
//   --chaos=SPEC     ';'-separated chaos k=v pairs (scenario/spec.hpp):
//                    re-run the --transport section with every rank's
//                    transport wrapped in a scenario::ChaosTransport and
//                    report a `...chaos.*` row next to the fault-free one
//   --json <path>    also write a flat machine-readable summary (--json=path
//                    works too)
//   --trace-out=F    enable the flight recorder and write a Chrome
//                    trace-event JSON (Perfetto-loadable) to F at exit
//   --metrics-listen=IP:PORT  serve a Prometheus-style text snapshot of the
//                    obs::Registry counters over HTTP while the bench runs
//
// The default (no flags) is a quick profile that finishes in minutes and
// still reproduces the figures' *shapes*; EXPERIMENTS.md records both.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bdd/manager.hpp"
#include "eval/datasets.hpp"
#include "fib/prefix_index.hpp"
#include "eval/dist_run.hpp"
#include "eval/harness.hpp"
#include "eval/report.hpp"
#include "obs/export.hpp"
#include "obs/metrics_server.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pred/atom_set.hpp"

// Stamped into the --json reports by bench/CMakeLists.txt; the fallbacks
// keep common.hpp includable from other targets (tests) without the stamps.
#ifndef TULKUN_GIT_DESCRIBE
#define TULKUN_GIT_DESCRIBE "unknown"
#endif
#ifndef TULKUN_BUILD_PRESET
#define TULKUN_BUILD_PRESET "unknown"
#endif

namespace tulkun::bench {

/// Bump when the meaning or naming of existing --json keys changes (adding
/// keys is not a bump); lets downstream plotting scripts reject stale files.
/// v3: sharded sections carry predicate-tier and gc counters, and the
/// top-level `atoms_enabled` records the fast-path switch.
inline constexpr std::uint64_t kJsonSchemaVersion = 3;

/// Flat key -> value summary written as one JSON object. Keys are bench
/// identifiers we mint ourselves (dataset.tool.metric), so no escaping.
class JsonReport {
 public:
  void add(const std::string& key, double value) {
    std::ostringstream os;
    os.precision(9);
    os << value;
    fields_.emplace_back(key, os.str());
  }
  void add(const std::string& key, std::uint64_t value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void add(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + value + "\"");
  }

  /// No-op when `path` is empty (no --json flag given). Every report leads
  /// with provenance: schema version, the git describe of the build, the
  /// CMake preset, and whether trace points were compiled in/enabled.
  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << "\n";
      return;
    }
    out << "{\n";
    out << "  \"schema_version\": " << kJsonSchemaVersion << ",\n";
    out << "  \"git_describe\": \"" << TULKUN_GIT_DESCRIBE << "\",\n";
    out << "  \"build_preset\": \"" << TULKUN_BUILD_PRESET << "\",\n";
    out << "  \"trace_compiled_in\": " << (obs::kTraceCompiledIn ? 1 : 0)
        << ",\n";
    out << "  \"trace_enabled\": " << (obs::trace_enabled() ? 1 : 0)
        << ",\n";
    out << "  \"atoms_enabled\": " << (pred::atom_path_enabled() ? 1 : 0)
        << (fields_.empty() ? "" : ",") << "\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out << "  \"" << fields_[i].first << "\": " << fields_[i].second
          << (i + 1 < fields_.size() ? "," : "") << "\n";
    }
    out << "}\n";
    std::cout << "\nwrote " << path << "\n";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Args {
  bool full = false;
  std::size_t updates = 100;
  std::size_t max_destinations = 4;
  std::size_t fault_scenes = 8;
  std::uint64_t seed = 42;
  std::size_t shards = 0;  // 0 = hardware concurrency
  std::size_t plan_workers = 1;    // PlanService concurrency (0 = hw threads)
  bool plan_incremental = true;    // PlanService delta replanning
  std::size_t gc_nodes = 0;  // per-device bdd gc threshold (0 = off)
  double drop_fraction = 0.0;  // Drop-class share of incremental inserts
  std::string transport;   // empty = skip the distributed section
  std::size_t dist_procs = 2;
  std::string chaos;       // empty = no chaos row (see scenario/spec.hpp)
  std::string json_path;
  std::string trace_out;       // empty = flight recorder stays disabled
  std::string metrics_listen;  // empty = no metrics endpoint

  static Args parse(int argc, char** argv) {
    Args a;
    pred::apply_atom_env_overrides();  // TULKUN_ATOMS; --atoms wins below
    if (const char* env = std::getenv("TULKUN_SHARDS")) {
      // Ignore empty/garbage environment values (flags still win below).
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') a.shards = v;
    }
    if (const char* env = std::getenv("TULKUN_PLAN_WORKERS")) {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') a.plan_workers = v;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&](const char* prefix) -> const char* {
        return arg.rfind(prefix, 0) == 0 ? arg.c_str() + std::strlen(prefix)
                                         : nullptr;
      };
      if (arg == "--full") {
        a.full = true;
        a.updates = 1000;
        a.max_destinations = 0;
        a.fault_scenes = 50;
      } else if (const char* v = value("--updates=")) {
        a.updates = std::stoul(v);
      } else if (const char* v = value("--max-dst=")) {
        a.max_destinations = std::stoul(v);
      } else if (const char* v = value("--scenes=")) {
        a.fault_scenes = std::stoul(v);
      } else if (const char* v = value("--seed=")) {
        a.seed = std::stoull(v);
      } else if (const char* v = value("--shards=")) {
        a.shards = std::stoul(v);
      } else if (const char* v = value("--plan-workers=")) {
        a.plan_workers = std::stoul(v);
      } else if (const char* v = value("--plan-incremental=")) {
        a.plan_incremental = std::string(v) != "0";
      } else if (const char* v = value("--atoms=")) {
        pred::set_atom_path_enabled(std::string(v) != "0");
      } else if (const char* v = value("--fib-index=")) {
        fib::set_prefix_index_enabled(std::string(v) != "0");
      } else if (const char* v = value("--gc-nodes=")) {
        a.gc_nodes = std::stoul(v);
      } else if (const char* v = value("--drop=")) {
        a.drop_fraction = std::stod(v);
      } else if (const char* v = value("--transport=")) {
        a.transport = v;
      } else if (const char* v = value("--procs=")) {
        a.dist_procs = std::stoul(v);
      } else if (const char* v = value("--chaos=")) {
        a.chaos = v;
      } else if (const char* v = value("--json=")) {
        a.json_path = v;
      } else if (arg == "--json" && i + 1 < argc) {
        a.json_path = argv[++i];
      } else if (const char* v = value("--trace-out=")) {
        a.trace_out = v;
      } else if (const char* v = value("--metrics-listen=")) {
        a.metrics_listen = v;
      } else if (arg == "--help") {
        std::cout << "flags: --full --updates=N --max-dst=N --scenes=N "
                     "--seed=N --shards=N --plan-workers=N "
                     "--plan-incremental=0|1 --atoms=0|1 --fib-index=0|1 "
                     "--gc-nodes=N --drop=F "
                     "--transport=inproc|uds|tcp "
                     "--procs=N --chaos=SPEC --json <path> --trace-out=FILE "
                     "--metrics-listen=IP:PORT\n";
        std::exit(0);
      }
    }
    return a;
  }

  [[nodiscard]] eval::HarnessOptions harness_options() const {
    eval::HarnessOptions opts;
    opts.seed = seed;
    opts.max_destinations = max_destinations;
    opts.engine.runtime_shards = shards;
    opts.plan_workers = plan_workers;
    opts.plan_incremental = plan_incremental;
    opts.engine.bdd_gc_node_threshold = gc_nodes;
    opts.drop_fraction = drop_fraction;
    return opts;
  }

  /// Datasets for this run: the quick profile covers each network class;
  /// --full runs the paper's 13.
  [[nodiscard]] std::vector<eval::DatasetSpec> datasets() const {
    if (full) return eval::all_datasets();
    std::vector<eval::DatasetSpec> out;
    for (const char* name :
         {"INet2", "B4-13", "STFD", "AT1-1", "AT1-2", "FT-48", "NGDC"}) {
      out.push_back(eval::dataset(name));
    }
    return out;
  }

  [[nodiscard]] std::vector<eval::DatasetSpec> wan_datasets() const {
    if (full) return eval::wan_lan_datasets();
    std::vector<eval::DatasetSpec> out;
    for (const char* name : {"INet2", "B4-13", "STFD"}) {
      out.push_back(eval::dataset(name));
    }
    return out;
  }
};

/// Appends the process-global predicate-tier and BDD-gc counters under
/// `prefix` (cumulative over the process; sections that want deltas
/// snapshot pred::atom_counters_snapshot() themselves).
inline void add_pred_counters(JsonReport& json, const std::string& prefix) {
  const auto c = pred::atom_counters_snapshot();
  json.add(prefix + "pred.atom_hits", c.atom_hits);
  json.add(prefix + "pred.bdd_fallbacks", c.bdd_fallbacks);
  json.add(prefix + "pred.promotions", c.promotions);
  json.add(prefix + "pred.promote_failures", c.promote_failures);
  json.add(prefix + "pred.demotions", c.demotions);
  json.add(prefix + "pred.materializations", c.materializations);
  json.add(prefix + "pred.atom_table_size", c.atom_table_size);
  json.add(prefix + "pred.arena_bytes", c.arena_bytes);
  const auto gc = bdd::gc_totals();
  json.add(prefix + "bdd.gc_runs", gc.runs);
  json.add(prefix + "bdd.gc_reclaimed_nodes", gc.reclaimed_nodes);
}

/// Observability scope for a bench main: enables the flight recorder when
/// --trace-out is set (writing the merged Chrome trace at destruction) and
/// serves live obs::Registry counters while --metrics-listen is set; also
/// exports the predicate-tier/gc counters as registry series for the
/// Prometheus endpoint. Construct once at the top of main, after
/// Args::parse.
struct ObsSession {
  explicit ObsSession(const Args& args) : trace_out(args.trace_out) {
    pred_provider = obs::Registry::instance().add_provider(
        [](std::vector<obs::Sample>& out) {
          const auto c = pred::atom_counters_snapshot();
          out.push_back({"pred_atom_hits", double(c.atom_hits)});
          out.push_back({"pred_bdd_fallbacks", double(c.bdd_fallbacks)});
          out.push_back({"pred_promotions", double(c.promotions)});
          out.push_back({"pred_promote_failures",
                         double(c.promote_failures)});
          out.push_back({"pred_demotions", double(c.demotions)});
          out.push_back({"pred_materializations",
                         double(c.materializations)});
          out.push_back({"pred_atom_table_size", double(c.atom_table_size)});
          out.push_back({"pred_arena_bytes", double(c.arena_bytes)});
          const auto gc = bdd::gc_totals();
          out.push_back({"bdd_gc_runs", double(gc.runs)});
          out.push_back({"bdd_gc_reclaimed_nodes",
                         double(gc.reclaimed_nodes)});
        });
    if (!trace_out.empty()) {
      if (!obs::kTraceCompiledIn) {
        std::cerr << "--trace-out ignored: built with TULKUN_TRACE=OFF\n";
      }
      obs::set_trace_enabled(true);
    }
    if (!args.metrics_listen.empty()) {
      server = std::make_unique<obs::MetricsServer>();
      server->start(args.metrics_listen);
      std::cout << "metrics: http://" << server->address() << "/metrics\n";
    }
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  /// Queue trace snapshots shipped back from other processes (the device
  /// ranks of a dist_run) for inclusion in the merged timeline.
  void add_traces(std::vector<obs::TraceSnapshot> remote) {
    for (auto& t : remote) snaps.push_back(std::move(t));
  }

  ~ObsSession() {
    if (server) server->stop();
    if (trace_out.empty() || !obs::kTraceCompiledIn) return;
    snaps.push_back(obs::drain_snapshot());
    try {
      obs::write_chrome_trace_file(trace_out, snaps);
      std::cout << "wrote trace " << trace_out << "\n";
    } catch (const std::exception& e) {
      std::cerr << "cannot write trace " << trace_out << ": " << e.what()
                << "\n";
    }
  }

  std::string trace_out;
  std::vector<obs::TraceSnapshot> snaps;
  std::unique_ptr<obs::MetricsServer> server;
  obs::Registry::ProviderHandle pred_provider;
};

/// Runs the sharded worker-pool runtime on one dataset and reports wall
/// times plus the runtime counters; shared by the bench mains.
inline void run_sharded_section(const eval::DatasetSpec& spec,
                                const Args& args, std::size_t n_updates,
                                JsonReport& json) {
  eval::Harness h(spec, args.harness_options());
  auto run = h.run_distributed(n_updates);
  std::cout << "\n== Sharded runtime replay (" << spec.name << ", "
            << run.shards << " shards, wall clock) ==\n";
  std::cout << "  burst: " << format_duration(run.burst_wall_seconds)
            << ", violations: " << run.violations << "\n";
  if (!run.incremental_wall_seconds.empty()) {
    std::cout << "  incremental: p50 "
              << format_duration(run.incremental_wall_seconds.quantile(0.5))
              << ", p99 "
              << format_duration(run.incremental_wall_seconds.quantile(0.99))
              << " over " << run.incremental_wall_seconds.size()
              << " updates\n";
  }
  runtime::print_metrics(std::cout, run.metrics);

  const std::string p = "sharded." + spec.name + ".";
  json.add(p + "shards", static_cast<std::uint64_t>(run.shards));
  json.add(p + "burst_wall_seconds", run.burst_wall_seconds);
  if (!run.incremental_wall_seconds.empty()) {
    json.add(p + "incremental_wall_p50",
             run.incremental_wall_seconds.quantile(0.5));
    json.add(p + "incremental_wall_p99",
             run.incremental_wall_seconds.quantile(0.99));
  }
  json.add(p + "transfer_cache_hit_rate",
           run.metrics.transfer_cache_hit_rate());
  json.add(p + "mean_batch_size", run.metrics.mean_batch_size());
  json.add(p + "frames", run.metrics.frames);
  json.add(p + "envelopes", run.metrics.envelopes);
  json.add(p + "phase.lec_delta_seconds", run.metrics.lec_delta_seconds);
  json.add(p + "phase.recompute_seconds", run.metrics.recompute_seconds);
  json.add(p + "phase.emit_seconds", run.metrics.emit_seconds);
  json.add(p + "channel.roots", run.metrics.channel_roots);
  json.add(p + "channel.nodes_shipped", run.metrics.channel_nodes_shipped);
  json.add(p + "channel.resets", run.metrics.channel_resets);
  json.add(p + "gc.runs", run.metrics.gc_runs);
  json.add(p + "gc.reclaimed_nodes", run.metrics.gc_reclaimed_nodes);
  add_pred_counters(json, p);
  for (std::size_t k = 0; k < fib::kNumIndexKinds; ++k) {
    const auto& c = run.metrics.index[k];
    if (c.queries == 0) continue;
    const std::string ip =
        p + "index." + fib::index_kind_name(static_cast<fib::IndexKind>(k)) +
        ".";
    json.add(ip + "queries", c.queries);
    json.add(ip + "skip_rate", c.skip_rate());
    json.add(ip + "full_scans", c.full_scans);
  }
}

/// Runs the multi-process DistributedRuntime on one dataset over the
/// transport named by --transport (the binary must call
/// eval::maybe_run_device_role first thing in main, because the uds/tcp
/// paths re-exec it for the device processes).
inline void run_transport_section(const eval::DatasetSpec& spec,
                                  const Args& args, std::size_t n_updates,
                                  JsonReport& json,
                                  ObsSession* obs_session = nullptr) {
  eval::DistOptions dist;
  dist.kind = net::parse_transport_kind(args.transport);
  dist.device_procs = args.dist_procs;
  dist.n_updates = n_updates;
  dist.collect_trace = obs_session != nullptr && obs::trace_enabled();
  auto run = eval::dist_run(spec, args.harness_options(), dist);
  if (obs_session) obs_session->add_traces(std::move(run.traces));

  std::cout << "\n== Distributed runtime (" << spec.name << ", "
            << args.dist_procs << " device procs over " << args.transport
            << ") ==\n";
  std::cout << "  burst: " << format_duration(run.burst_wall_seconds)
            << ", violations: " << run.violations << "\n";
  if (!run.incremental_wall_seconds.empty()) {
    std::cout << "  incremental: p50 "
              << format_duration(run.incremental_wall_seconds.quantile(0.5))
              << ", p99 "
              << format_duration(run.incremental_wall_seconds.quantile(0.99))
              << " over " << run.incremental_wall_seconds.size()
              << " updates\n";
  }
  runtime::print_metrics(std::cout, run.metrics);

  const std::string p = "dist." + spec.name + "." + args.transport + ".";
  json.add(p + "device_procs", static_cast<std::uint64_t>(args.dist_procs));
  json.add(p + "burst_wall_seconds", run.burst_wall_seconds);
  if (!run.incremental_wall_seconds.empty()) {
    json.add(p + "incremental_wall_p50",
             run.incremental_wall_seconds.quantile(0.5));
    json.add(p + "incremental_wall_p99",
             run.incremental_wall_seconds.quantile(0.99));
  }
  json.add(p + "violations", run.violations);
  json.add(p + "frames", run.metrics.frames);
  json.add(p + "envelopes", run.metrics.envelopes);
  json.add(p + "frame_bytes", run.metrics.frame_bytes);
  const auto& t = run.metrics.transport;
  json.add(p + "wire.frames_sent", t.frames_sent);
  json.add(p + "wire.bytes_sent", t.bytes_sent);
  json.add(p + "wire.frames_received", t.frames_received);
  json.add(p + "wire.bytes_received", t.bytes_received);
  json.add(p + "wire.reconnects", t.reconnects);
  json.add(p + "wire.heartbeat_misses", t.heartbeat_misses);
  json.add(p + "wire.protocol_errors", t.protocol_errors);
  json.add(p + "wire.send_queue_peak", t.send_queue_peak);

  if (args.chaos.empty()) return;
  // The chaos profile row: the same run with every rank's transport
  // wrapped in a scenario::ChaosTransport, reported next to the fault-free
  // medians (which stay untouched — this is an additional section).
  static const char* kChaosCounters[] = {
      "chaos_data_sent",  "chaos_dropped",      "chaos_duplicated",
      "chaos_delayed",    "chaos_reordered",    "chaos_retransmits",
      "chaos_rx_dup_dropped"};
  auto& reg = obs::Registry::instance();
  std::vector<std::uint64_t> before;
  for (const char* name : kChaosCounters) {
    before.push_back(reg.counter(name).value());
  }
  eval::DistOptions cdist = dist;
  cdist.collect_trace = false;
  cdist.chaos = scenario::parse_chaos_arg(args.chaos);
  auto crun = eval::dist_run(spec, args.harness_options(), cdist);

  std::cout << "\n== Distributed runtime under chaos (" << spec.name << ", "
            << args.chaos << ") ==\n";
  std::cout << "  burst: " << format_duration(crun.burst_wall_seconds)
            << ", violations: " << crun.violations << "\n";
  if (!crun.incremental_wall_seconds.empty()) {
    std::cout << "  incremental: p50 "
              << format_duration(crun.incremental_wall_seconds.quantile(0.5))
              << ", p99 "
              << format_duration(crun.incremental_wall_seconds.quantile(0.99))
              << "\n";
  }

  const std::string cp = p + "chaos.";
  json.add(cp + "profile", args.chaos);
  json.add(cp + "burst_wall_seconds", crun.burst_wall_seconds);
  if (!crun.incremental_wall_seconds.empty()) {
    json.add(cp + "incremental_wall_p50",
             crun.incremental_wall_seconds.quantile(0.5));
    json.add(cp + "incremental_wall_p99",
             crun.incremental_wall_seconds.quantile(0.99));
  }
  json.add(cp + "violations", crun.violations);
  json.add(cp + "resets", static_cast<std::uint64_t>(crun.resets));
  for (std::size_t i = 0; i < std::size(kChaosCounters); ++i) {
    json.add(cp + kChaosCounters[i],
             reg.counter(kChaosCounters[i]).value() - before[i]);
  }
}

}  // namespace tulkun::bench
