// Tulkun end-to-end benchmark: workload definitions, the measured run loop,
// the per-layer attribution of a traced run, and the one-line JSON result.
//
// A run drives one named workload for a fixed wall-clock budget through the
// public entry points only (eval::Harness::world_builder, ShardedRuntime's
// install/post_*/wait_quiescent/metrics, eval::dist_run with its phase
// hooks, obs counters and spans), checks the final state against an
// in-process reference, and reports every metric of the active table (end
// to end when untraced, per layer when traced). See perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/datasets.hpp"
#include "eval/harness.hpp"
#include "runtime/distributed.hpp"
#include "scenario/workload.hpp"

namespace perfbench {

// --- command line -----------------------------------------------------------

struct CliOptions {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint32_t seconds = 0;
  bool trace = false;
  /// Rendezvous directory for the forked ranks' Unix sockets. Relative to
  /// the working directory, so socket paths stay under the 108-byte limit.
  std::string socket_dir;
};

/// Thrown for malformed command lines; what() is the message for the user.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses `--workload NAME --seed N --seconds N --trace 0|1
/// [--socket-dir DIR]` (the `--flag=value` form works too). Unknown flags,
/// missing required flags, repeated flags and malformed or out-of-range
/// numbers throw UsageError.
[[nodiscard]] CliOptions parse_cli(const std::vector<std::string>& args);

// --- statistics -------------------------------------------------------------

/// The q-quantile of `v` (linear interpolation between order statistics),
/// or nullopt unless at least ten samples lie beyond it: a p99 needs 1000
/// samples, a p50 needs 20.
[[nodiscard]] std::optional<double> tail_quantile(std::vector<double> v,
                                                  double q);

/// Median of a non-empty sample (no tail requirement).
[[nodiscard]] double median(std::vector<double> v);

// --- workloads --------------------------------------------------------------

enum class Vehicle { Sharded, DistUds };

/// Input streams an untraced run cycles through, round by round: each is a
/// seeded FIB synthesis, destination sample and churn stream, so one run
/// averages over several inputs instead of riding one stream's hot spots.
inline constexpr std::size_t kStreams = 4;

struct Workload {
  std::string name;
  std::uint64_t seed = 0;  // --seed; the stream seeds derive from it
  Vehicle vehicle = Vehicle::Sharded;
  tulkun::eval::DatasetSpec dataset;
  tulkun::eval::HarnessOptions harness;  // stream seed and engine config
  tulkun::scenario::ChurnProfile churn;  // stream seed and update mix
  std::size_t procs = 0;                 // device processes (DistUds)
  std::size_t shards = 0;                // pool size (Sharded)
  std::size_t fanout = 0;                // coordinator tree fanout
  tulkun::runtime::RecoveryMode recovery = tulkun::runtime::RecoveryMode::Legacy;
  std::uint32_t anchor_every = 1;
  /// Closed-loop updates per round, untraced and traced. A traced
  /// distributed round is shorter so no rank's flight recorder wraps
  /// before the final collect ships it.
  std::size_t updates_per_round = 0;
  std::size_t traced_updates_per_round = 0;
  /// An untraced run keeps adding rounds until it has spent its time
  /// budget, run three rounds, and collected this many updates (a p99
  /// needs 1000).
  std::size_t min_updates = 1000;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload with every input derived from `seed`. Throws
/// UsageError for an unknown name. `tiny` shrinks the networks (smoke
/// tests); the workload keeps its vehicle and layer mix.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool tiny = false);

/// Seed of input stream `stream` (< kStreams) of a run seeded `seed`.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::size_t stream);

/// `w` with its harness and churn seeds set to stream `stream`.
/// make_workload returns stream 0.
[[nodiscard]] Workload with_stream(const Workload& w, std::size_t stream);

// --- metrics and results ----------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// Every metric an untraced run prints, in print order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Every metric a traced run prints, in print order.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

struct RunConfig {
  double seconds = 10.0;
  bool trace = false;
  std::string socket_dir = ".";
  /// Test hook: corrupt this round's digest before the reference check.
  int inject_mismatch_round = -1;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t rounds = 0;
  std::size_t update_samples = 0;
  /// Values of the active table (end-to-end or per-layer), by name.
  std::map<std::string, double> metrics;
  /// One-line JSON object: host, build and workload parameters.
  std::string provenance;
};

/// Runs `w` for `cfg.seconds` of measured rounds plus the reference check.
/// Throws tulkun::Error when a metric cannot be reported (e.g. too few
/// samples for its percentile).
[[nodiscard]] RunResult run_workload(const Workload& w, const RunConfig& cfg);

/// Operations of one round that count as failed: all of them when the
/// round's digest or violation count disagrees with the reference, else
/// the individually failed ones (capped at `ops`).
[[nodiscard]] std::uint64_t failed_ops(std::uint64_t ops,
                                       std::uint64_t individually_failed,
                                       bool matches_reference);

/// The result line: {"correct", "attempted", "failed", "metrics"} with every
/// metric of `table` as {"value", "unit"}. Throws tulkun::Error when a
/// metric of the table is missing from `r.metrics`.
[[nodiscard]] std::string result_json(const RunResult& r,
                                      const std::vector<MetricSpec>& table);

}  // namespace perfbench
