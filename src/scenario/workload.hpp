// Streaming churn workload generator: seeded, deterministic, BGP-shaped.
//
// The generator emits a *timed* event stream (route flaps with Zipf-skewed
// destination popularity, prefix-table growth via more-specific
// announcements, batch withdrawals) that any runtime can drain: the sharded
// runtime and the multi-process DistributedRuntime both replay the same
// steps, and the soak driver additionally honours the per-event timestamps
// to pace arrivals in wall-clock time. Determinism contract: the stream is
// a pure function of (topology, ChurnProfile) — identical across runs,
// process counts and transports, which is what makes the distributed
// differential oracle sound under churn.
//
// legacy_plan() is the pre-scenario update stream, kept bit-identical: it
// is the harness's default stream behind every published paper figure and
// bench median.
#pragma once

#include <optional>

#include "core/rng.hpp"
#include "eval/workload.hpp"

namespace tulkun::scenario {

/// Knobs for the churn stream. Serialized by spec.hpp (k=v pairs) for
/// --scenario-dump / --scenario-replay and for shipping to forked device
/// processes, so keep every field a number.
struct ChurnProfile {
  std::uint64_t seed = 42;
  std::size_t events = 100;      // update events to emit
  double rate_hz = 200.0;        // mean arrival rate (exponential gaps)
  double burst_factor = 8.0;     // burst arrivals run at rate_hz * this
  double burst_fraction = 0.1;   // fraction of events drawn at burst rate
  double zipf_s = 1.1;           // Zipf exponent for destination popularity
                                 // (0 = uniform)
  double flap_fraction = 0.45;   // chance an event withdraws an open insert
  double growth_fraction = 0.15; // chance an insert announces a
                                 // more-specific child prefix (table growth)
  double drop_fraction = 0.0;    // chance an insert is Drop-class (/0 hull)
  double withdraw_batch_chance = 0.05;  // chance a withdrawal batches
  std::uint32_t withdraw_batch_max = 4; // max erases at one instant
  /// Packet-transformation shape of the stream (xform subsystem):
  ///   0 = none (default; stream is bit-identical to pre-xform builds)
  ///   1 = NAT edge: rewritten inserts carry a Shift(DstIp) translation
  ///   2 = tunnel core: rewritten inserts alternate encap/decap pairs
  ///   3 = ECMP spray: rewritten inserts fan out over ANY next-hop groups
  std::uint32_t xform_profile = 0;
  double xform_fraction = 0.0;  // chance an insert is shaped per the profile
  /// Chance an insert is ACL-refined (src-prefix and dst-port-range match):
  /// its LEC predicate becomes multi-field, hulls to the dst prefix but
  /// boxes tighter — the multi-field index workload.
  double acl_fraction = 0.0;
};

/// One scripted update with an arrival time. `erase_of` references the
/// i-th step of the same plan, exactly like eval::UpdatePlan::Step.
struct TimedStep {
  double at_s = 0.0;
  fib::FibUpdate update;
  std::int32_t erase_of = -1;
};

struct TimedPlan {
  std::vector<TimedStep> steps;
  /// Strips timestamps for runtimes that replay as fast as possible.
  [[nodiscard]] eval::UpdatePlan untimed() const;
};

/// Streaming generator; next() emits one event at a time so a soak can run
/// unbounded without materializing the plan.
class ChurnGenerator {
 public:
  ChurnGenerator(const topo::Topology& topo, ChurnProfile profile);

  /// Next event in arrival order, or nullopt after profile.events.
  std::optional<TimedStep> next();

  /// Drains the remaining events into a plan.
  [[nodiscard]] TimedPlan all();

 private:
  void emit_batch();
  [[nodiscard]] std::size_t zipf_index();
  [[nodiscard]] TimedStep make_insert(double at_s);

  const topo::Topology* topo_;
  ChurnProfile p_;
  Rng rng_;
  std::vector<std::pair<DeviceId, packet::Ipv4Prefix>> dests_;
  std::vector<double> zipf_cdf_;
  /// Step indices of emitted inserts not yet withdrawn, with their device
  /// (erase steps must name the device of the insert they undo).
  std::vector<std::pair<std::int32_t, DeviceId>> open_inserts_;
  std::vector<TimedStep> pending_;  // batch tail, drained before advancing
  std::size_t pending_at_ = 0;
  double now_s_ = 0.0;
  std::size_t emitted_ = 0;
  std::size_t steps_total_ = 0;  // includes pending, for erase_of indexing
};

/// Convenience: the full stream for `profile` against `topo`.
[[nodiscard]] TimedPlan generate(const topo::Topology& topo,
                                 const ChurnProfile& profile);

/// The pre-scenario update stream (eval::Harness's default): `count`
/// updates, each inserting a higher-priority reroute for an existing
/// destination prefix at a random device or removing an earlier insert
/// (roughly half each, like a route flap trace). Reroutes point to a random
/// neighbor, biased toward ones that still reach the destination, so most
/// updates are benign — matching the paper's mostly error-free streams.
///
/// `drop_fraction` of the inserts are Drop-class instead: a drop rule for a
/// random destination prefix at a random device. Each drop grows the
/// device's Drop equivalence class into a union of scattered prefixes
/// whose hull is 0.0.0.0/0 — the profile the destination-hull index cannot
/// prune (every query against the class is a full-width set op), which is
/// exactly where the atom tier is supposed to win.
[[nodiscard]] eval::UpdatePlan legacy_plan(const topo::Topology& topo,
                                           std::size_t count,
                                           std::uint64_t seed,
                                           double drop_fraction = 0.0);

/// Resolves erase_of references to runtime-assigned rule ids while a plan
/// replays. Every runtime replay loop (harness, sharded baseline, tests)
/// used to hand-roll this; they all drive a StepCursor now:
///
///   StepCursor cur;
///   for (const auto& step : plan.steps) {
///     fib::FibUpdate u = cur.resolve(step.update, step.erase_of);
///     auto handle = rt.post_rule_update(u.device, u);
///     cur.record(handle->rule_id);
///   }
class StepCursor {
 public:
  /// Copies `update`; when erase_of >= 0 fills rule_id from the recorded
  /// insert it undoes. Call record() exactly once after each resolve.
  [[nodiscard]] fib::FibUpdate resolve(const fib::FibUpdate& update,
                                       std::int32_t erase_of);
  /// Records the rule id the runtime assigned to the step just resolved.
  void record(std::uint64_t rule_id);

 private:
  std::vector<std::uint64_t> ids_;
  bool pending_ = false;
};

}  // namespace tulkun::scenario
