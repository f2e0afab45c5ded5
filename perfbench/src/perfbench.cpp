// Command line, statistics, workload table and result formatting of the
// benchmark; the measured run loop lives in run.cpp.
#include "perfbench.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>

#include "core/error.hpp"

namespace perfbench {

using tulkun::Error;

// --- command line -----------------------------------------------------------

namespace {

template <typename T>
T parse_number(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc{} || ptr != last) {
    throw UsageError(flag + ": expected a whole number, got '" + text + "'");
  }
  if (value < lo || value > hi) {
    throw UsageError(flag + ": " + text + " is out of range [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

}  // namespace

CliOptions parse_cli(const std::vector<std::string>& args) {
  static const std::set<std::string> kFlags = {"--workload", "--seed",
                                               "--seconds", "--trace",
                                               "--socket-dir"};
  std::map<std::string, std::string> given;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string value;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (kFlags.contains(flag)) {
      if (i + 1 >= args.size()) throw UsageError(flag + ": missing value");
      value = args[++i];
    }
    if (!kFlags.contains(flag)) throw UsageError("unknown flag '" + flag + "'");
    if (!given.emplace(flag, value).second) {
      throw UsageError(flag + ": given twice");
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!given.contains(required)) {
      throw UsageError(std::string("missing required flag ") + required);
    }
  }
  CliOptions o;
  o.workload = given["--workload"];
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    std::string known;
    for (const auto& n : names) known += (known.empty() ? "" : ", ") + n;
    throw UsageError("--workload: unknown workload '" + o.workload +
                     "' (known: " + known + ")");
  }
  o.seed = parse_number<std::uint64_t>("--seed", given["--seed"], 0,
                                       UINT64_MAX);
  o.seconds =
      parse_number<std::uint32_t>("--seconds", given["--seconds"], 1, 3600);
  o.trace = parse_number<std::uint32_t>("--trace", given["--trace"], 0, 1) == 1;
  o.socket_dir = given.contains("--socket-dir") ? given["--socket-dir"] : "";
  if (given.contains("--socket-dir") && o.socket_dir.empty()) {
    throw UsageError("--socket-dir: empty path");
  }
  return o;
}

// --- statistics -------------------------------------------------------------

namespace {

double interpolate(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::optional<double> tail_quantile(std::vector<double> v, double q) {
  if (v.empty() || q < 0.0 || q > 1.0) return std::nullopt;
  // Samples strictly beyond the q-th order statistic.
  const double beyond = (1.0 - q) * static_cast<double>(v.size());
  if (beyond < 10.0 - 1e-9) return std::nullopt;
  std::sort(v.begin(), v.end());
  return interpolate(v, q);
}

double median(std::vector<double> v) {
  if (v.empty()) throw Error("median of an empty sample");
  std::sort(v.begin(), v.end());
  return interpolate(v, 0.5);
}

// --- workloads --------------------------------------------------------------

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "wan-uds-churn", "dc-uds-burst", "wan-xl-sharded-mixed"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  using tulkun::eval::DatasetSpec;
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "wan-uds-churn") {
    // INet2 over forked UDS: 3 device processes + the coordinator, tree
    // fanout 2, catch-up recovery, periodic anchors; BGP-shaped churn with
    // no drops, ACLs or rewrites.
    w.vehicle = Vehicle::DistUds;
    w.dataset = tulkun::eval::dataset("INet2");
    w.harness.max_destinations = 0;  // all 9: no seed-dependent sample
    w.procs = 3;
    w.fanout = 2;
    w.recovery = tulkun::runtime::RecoveryMode::Catchup;
    w.anchor_every = 8;
    w.updates_per_round = 250;
    w.traced_updates_per_round = 50;
  } else if (name == "dc-uds-burst") {
    // A k=16 fat-tree (320 switches) over forked UDS: bulk counting in the
    // burst, followed by a short closed-loop churn tail so every end-to-end
    // metric exists on this workload too.
    w.vehicle = Vehicle::DistUds;
    DatasetSpec ft;
    ft.kind = "DC";
    ft.family = tulkun::eval::Family::FatTree;
    ft.fattree_k = tiny ? 4 : 16;
    ft.name = "FT-" + std::to_string(ft.fattree_k);
    ft.seed = 0x2001;
    w.dataset = ft;
    w.harness.max_destinations = 4;
    w.procs = 3;
    w.fanout = 2;
    w.recovery = tulkun::runtime::RecoveryMode::Catchup;
    w.anchor_every = 8;
    w.updates_per_round = 150;
    w.traced_updates_per_round = 50;
  } else if (name == "wan-xl-sharded-mixed") {
    // INet2-XL on the in-process ShardedRuntime: no wire, no termination
    // protocol, so latency is table work plus shard queue wake-ups.
    // Drop-class /0 hulls, multi-field ACLs and NAT rewrites push fib, pred
    // and xform off their fast paths. One shard: on three, the digest
    // sometimes diverges from a 1-shard replay (perfbench/README.md).
    w.vehicle = Vehicle::Sharded;
    w.dataset = tulkun::eval::dataset("INet2");
    if (!tiny) {
      w.dataset.name = "INet2-XL";
      w.dataset.prefixes_per_device = 96;
      w.dataset.extra_rules = 7;
    }
    w.harness.max_destinations = 6;
    w.shards = 1;
    w.churn.drop_fraction = 0.3;
    w.churn.acl_fraction = 0.2;
    w.churn.xform_profile = 1;  // NAT edge
    w.churn.xform_fraction = 0.2;
    w.updates_per_round = tiny ? 1000 : 5000;
    w.traced_updates_per_round = tiny ? 1000 : 2000;
    w.min_updates = tiny ? 1000 : 5000;
  } else {
    throw UsageError("unknown workload '" + name + "'");
  }
  // Each round asks world_builder for exactly its update count.
  w.churn.events = w.updates_per_round;
  return with_stream(w, 0);
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t stream) {
  // splitmix64 of (seed, stream): distinct, decorrelated streams per seed.
  std::uint64_t z = seed * kStreams + stream + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Workload with_stream(const Workload& w, std::size_t stream) {
  Workload out = w;
  out.harness.seed = stream_seed(w.seed, stream);
  out.churn.seed = out.harness.seed;
  return out;
}

// --- metrics and results ----------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},       {"burst_s", "s"},
      {"update_p50_s", "s"},  {"update_p99_s", "s"},
      {"updates_per_s", "1/s"}, {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> table = [] {
    std::vector<MetricSpec> t = {
        {"planner.world_build_s", "s"},
        {"planner.commit_s", "s"},
        {"planner.dfa_cache_hit_ratio", "ratio"},
        {"runtime.install_s", "s"},
        {"runtime.queue_wait_p50_s", "s"},
        {"runtime.queue_wait_p99_s", "s"},
        {"runtime.jobs_per_update", "count"},
        {"runtime.mean_batch_size", "count"},
        {"runtime.shard_jobs_max_over_mean", "ratio"},
        {"dvm.lec_delta_s_per_update", "s"},
        {"dvm.recompute_s_per_update", "s"},
        {"dvm.emit_s_per_update", "s"},
        {"dvm.envelopes_per_update", "count"},
        {"dvm.burst_compute_s", "s"},
        {"dvm.frame_bytes_per_envelope", "B"},
        {"dvm.transfer_cache_hit_rate", "ratio"},
        {"dvm.channel_nodes_shipped", "count"},
    };
    for (const char* kind : {"fib", "lec", "cib_in", "loc", "out_sent"}) {
      t.push_back({std::string("fib.") + kind + ".skip_rate", "ratio"});
      t.push_back({std::string("fib.") + kind + ".full_scans", "count"});
    }
    const std::vector<MetricSpec> rest = {
        {"fib.box_queries", "count"},
        {"pred.atom_hit_ratio", "ratio"},
        {"pred.demotions", "count"},
        {"pred.promote_failures", "count"},
        {"bdd.live_nodes_peak", "count"},
        {"bdd.gc_runs", "count"},
        {"xform.apply_s", "s"},
        {"xform.invert_s", "s"},
        {"net.frames_per_update", "count"},
        {"net.bytes_per_update", "B"},
        {"net.burst_bytes", "B"},
        {"net.send_queue_peak", "count"},
        {"net.protocol_errors", "count"},
        {"net.reconnects", "count"},
        {"net.heartbeat_misses", "count"},
        {"coord.phase_s", "s"},
        {"coord.begin_fanout_s", "s"},
        {"coord.device_work_s", "s"},
        {"coord.detect_s", "s"},
        {"coord.probe_waves_per_update", "count"},
        {"dist.epoch_resets", "count"},
        {"dist.world_builds", "count"},
        {"dist.burst_plan_all_share", "ratio"},
        {"dist.burst_world_build_share", "ratio"},
        {"obs.trace_overhead", "ratio"},
        {"obs.trace_dropped_records", "count"},
        {"bench.update_samples", "count"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

std::uint64_t failed_ops(std::uint64_t ops, std::uint64_t individually_failed,
                         bool matches_reference) {
  if (!matches_reference) return ops;
  return std::min(ops, individually_failed);
}

std::string result_json(const RunResult& r,
                        const std::vector<MetricSpec>& table) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : table) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end()) throw Error("metric not measured: " + m.name);
    if (!std::isfinite(it->second)) {
      throw Error("metric is not a finite number: " + m.name);
    }
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", it->second);
    out += first ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
