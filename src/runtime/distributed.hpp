// Multi-process DistributedRuntime: devices partitioned across OS
// processes, exchanging DVM traffic over a real net::Transport.
//
// Process model. Rank 0 is the coordinator; ranks 1..P are device
// processes, each owning the devices with `owner_rank(dev, P) == rank`.
// Every process deterministically rebuilds the whole world — topology,
// invariant plans, initial FIBs, and the update stream — from a
// WorldBuilder (ultimately a dataset spec + seed), so nothing but DVM
// messages, verdicts and control traffic ever crosses the wire.
//
// Coordination fabric. Control traffic rides a fanout-F coord::Tree over
// the ranks: Begin/Reset/Collect and probe waves flow root -> children and
// are relayed downward by interior device ranks, which also merge their
// subtree's probe acks and verdict rollups before forwarding one message
// to their parent. Root fan-in is therefore O(F) per wave instead of O(P).
// The flat star is the tree whose fanout is at least P. Digests
// ship as per-device deltas against the last collected round, with
// configurable full anchors; interior ranks maintain a mirror of their
// subtree's rows so they can serve snapshots during recovery. Data frames
// stay direct rank-to-rank in every mode — the tree is coordination only.
//
// Execution is phased: phase 0 loads every initial FIB (the burst), phase
// k >= 1 applies update step k-1 on its owning process. Between phases the
// coordinator runs Mattern-style four-counter termination detection: a
// phase is converged when two consecutive readings of per-process (sent,
// received, idle) snapshots show every process idle at the current phase
// with identical, balanced global send/receive totals. The first reading
// is usually pushed: every rank sends its tree parent a snapshot when its
// worker goes idle, interior ranks merge them, and a push set that covers
// every rank and settles lets the root send one probe wave at once to
// confirm it. When no push set settles, a probe wave that settles serves
// as the first reading instead, and the root waits out a fixed interval
// before a wave only while it holds neither.
// This replaces the ShardedRuntime's shared-atomic quiescence count, which
// cannot exist across address spaces. The catch-up drains below reuse the
// same two-reading rule with their own settle tests, on waves alone.
//
// Fault recovery. When a device process dies, its supervisor re-forks it
// with a higher incarnation number, and the new Hello makes the
// coordinator bump the global epoch. Two recovery modes:
//
//  - Legacy: broadcast Reset; every rank rebuilds verifier state from the
//    deterministic seed and the coordinator replays all completed phases.
//  - Catchup: drain in-flight traffic among survivors (direct probe waves
//    with pairwise counters), then broadcast Catchup. Survivors keep all
//    verifier state and re-send their per-destination send logs to the
//    reborn ranks; reborn ranks rebuild only their own devices and replay
//    their own phase steps locally (emissions toward survivors suppressed
//    — those phases terminated globally, so the survivors processed the
//    originals). Cascades of replayed *inbound* frames are instead
//    delivered to everyone, replay-tagged: the dead rank may have died
//    before processing them, so their fallout may exist nowhere, and
//    reprocessing is idempotent on ranks that did see it. The reborn
//    rank's nearest live tree ancestor ships it a digest snapshot to adopt
//    as its delta baseline. No survivor rebuilds a world.
//
// Every data frame is epoch-tagged, so stragglers from the previous life
// are dropped instead of corrupting rebuilt state.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "coord/digest_store.hpp"
#include "coord/tree.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "runtime/device_host.hpp"
#include "runtime/dist_proto.hpp"

namespace tulkun::runtime {

inline constexpr net::PeerId kCoordinatorRank = 0;

/// Sentinel a reborn catch-up process starts at: no epoch adopted yet.
/// Every data frame parks until the coordinator's Catchup assigns the real
/// epoch, so pre-death stragglers can be told apart from replay traffic.
inline constexpr std::uint32_t kEpochUnset = 0xffffffffu;

enum class RecoveryMode : std::uint8_t { Legacy, Catchup };

[[nodiscard]] const char* recovery_mode_name(RecoveryMode m);
/// Parses "legacy" | "catchup"; throws Error on anything else.
[[nodiscard]] RecoveryMode parse_recovery_mode(const std::string& s);

/// The device process owning a device: ranks 1..n_device_procs, round-robin.
[[nodiscard]] inline net::PeerId owner_rank(DeviceId dev,
                                            std::size_t n_device_procs) {
  return 1 + static_cast<net::PeerId>(dev % n_device_procs);
}

/// Everything a process must agree on with its peers, rebuilt locally per
/// epoch. `keepalive` owns whatever PacketSpaces back the plans, tables
/// and update rules; each rank flattens the rules it owns to wire form
/// once and hands them to its DeviceHost, which rebuilds them in the
/// per-device spaces exactly like ShardedRuntime does.
///
/// A world may be shared between in-process ranks (the harness builds it
/// once); `localize_mu`, when set, serializes every read of the shared
/// source spaces (build_world's flattening and plan installs) so
/// concurrent ranks never race on the shared BDD manager. Phase execution
/// touches only per-device state.
struct DistWorld {
  std::shared_ptr<void> keepalive;
  std::shared_ptr<std::mutex> localize_mu;
  std::vector<planner::InvariantPlan> plans;
  std::vector<fib::FibTable> tables;  // indexed by DeviceId
  struct Step {
    fib::FibUpdate update;
    std::int32_t erase_of = -1;  // >= 0: erase the rule of that insert step
  };
  std::vector<Step> steps;
};

/// Must be deterministic: every call (in any process, any epoch) returns
/// an equivalent world.
using WorldBuilder = std::function<DistWorld()>;

/// One device-owning process (rank >= 1). Its worker thread drives one
/// DeviceHost holding the rank's devices; the transport's receive path
/// only enqueues (and, on interior tree ranks, relays control frames
/// downward and merges child probe acks and pushes — all latency-critical
/// and cheap). Predicates leave as blobs: a catch-up replays the send log
/// to a reborn rank whose delta decoders would start empty.
class DeviceProcess {
 public:
  static constexpr std::uint32_t kNoKillPhase = 0xffffffffu;

  struct Config {
    net::PeerId rank = 1;
    std::size_t n_device_procs = 1;
    dvm::EngineConfig engine;
    std::uint32_t incarnation = 0;
    /// Coordinator-tree fanout; 0 or >= n_device_procs = flat star.
    std::size_t fanout = 0;
    RecoveryMode recovery = RecoveryMode::Legacy;
    /// Digest anchor period: 1 ships a full digest every collect round
    /// (byte-for-byte the legacy wire behavior), 0 ships pure deltas after
    /// the first anchor, n > 1 re-anchors every n-th round.
    std::uint32_t anchor_every = 1;
    /// Chaos hook: _exit the process upon receiving Begin for this phase
    /// (first incarnation only), simulating a mid-run crash.
    std::uint32_t kill_at_phase = kNoKillPhase;
  };

  DeviceProcess(net::Transport& transport, const topo::Topology& topo,
                WorldBuilder builder, Config cfg);

  /// Starts the transport, sends Hello, and processes work until the
  /// coordinator's Done arrives. The caller stops the transport afterward.
  void run();

 private:
  void on_frame(net::PeerId from, std::vector<std::uint8_t> frame);
  void relay_to_children(const std::vector<std::uint8_t>& frame);
  void handle_probe(const DistProbe& probe,
                    const std::vector<std::uint8_t>& frame);
  void handle_probe_ack(net::PeerId from, const DistProbeAck& ack);
  [[nodiscard]] DistProbeAck make_ack_locked(std::uint32_t wave,
                                             bool with_pairs);
  /// Pushes this subtree's snapshot to the parent when the rule in
  /// DistProbeAck allows it. Caller holds mu_.
  void push_locked();
  void build_world();
  void process(net::PeerId from, DistMsg& msg);
  void run_phase(const DistBegin& begin);
  /// Applies one phase's own work. `replay` routes emissions in catch-up
  /// replay mode (suppressed toward survivors, replay-tagged otherwise).
  void apply_phase(std::uint32_t phase, bool replay);
  void handle_reset(const DistReset& reset);
  void handle_catchup(const DistCatchup& cu);
  void handle_snapshot(const DistSnapshot& snap);
  void handle_collect(const DistCollect& collect);
  void handle_rollup(DistRollup& rollup);
  void handle_data(net::PeerId from, DistData& data);
  /// How emissions leave this rank. kReplayLocal is the reborn rank's own
  /// phase replay: those phases terminated globally before the crash, so
  /// emissions toward survivors are suppressed (they processed the
  /// originals) and only fellow reborn ranks get them, replay-tagged.
  /// kReplayCascade is the fallout of processing a replayed inbound frame:
  /// the dead rank may never have processed that frame, so its cascades
  /// may not exist anywhere — deliver to everyone, replay-tagged
  /// (reprocessing is idempotent and emission is change-driven, so
  /// already-seen announcements die out immediately).
  enum class Routing : std::uint8_t { kNormal, kReplayLocal, kReplayCascade };
  void route(DeviceId dst, std::vector<std::uint8_t> frame, Routing mode);
  /// Computes (or re-serves, for a re-asked round) this rank's
  /// VerdictEntry and feeds it into the rollup for `seq`.
  void contribute_entry(std::uint64_t seq, bool want_full);
  void maybe_flush_rollup();
  void revive_parked(std::uint32_t epoch);
  [[nodiscard]] std::vector<std::uint32_t> devices_of(net::PeerId rank) const;
  [[nodiscard]] bool is_reborn_peer(net::PeerId r) const;

  net::Transport* transport_;
  const topo::Topology* topo_;
  WorldBuilder builder_;
  Config cfg_;
  coord::Tree tree_;

  // Worker-owned state (no lock needed).
  DistWorld world_;
  bool world_built_ = false;  // plans/tables cached across epoch resets
  // Wire forms of this rank's initial tables (by DeviceId; empty for other
  // ranks' devices) and of every step's rule, flattened once per world.
  std::vector<std::vector<WireRule>> wire_tables_;
  std::vector<WireRule> wire_steps_;
  std::unique_ptr<DeviceHost> host_;
  // Counters of the hosts that rebuilds replaced, so reported counters
  // stay cumulative over the process's life.
  RuntimeMetrics retired_;
  std::uint64_t world_rebuilds_ = 0;  // verifier rebuilds beyond the first
  std::vector<std::uint64_t> step_rule_ids_;
  std::set<std::uint32_t> applied_phases_;
  // Per-destination log of every cross-rank Data frame sent this run;
  // replayed (re-tagged to the new epoch) toward reborn ranks during
  // catch-up. Cleared by a legacy Reset, kept across catch-ups so later
  // crashes can still be served.
  std::map<net::PeerId, std::vector<DistData>> send_log_;
  std::vector<std::uint32_t> reborn_set_;  // from the last Catchup
  // Delta-digest state: rows last shipped per owned device, the cached
  // entry for the current collect round (re-asks must be byte-identical),
  // and — on interior tree ranks — the subtree mirror.
  coord::DigestStore baseline_;
  std::uint64_t own_seq_ = kNoCollectSeq;
  std::optional<VerdictEntry> own_entry_;
  std::uint32_t rounds_since_anchor_ = 0;
  coord::DigestStore mirror_;
  std::uint64_t mirror_applied_seq_ = kNoCollectSeq;
  std::uint64_t rollup_seq_ = kNoCollectSeq;
  std::uint32_t rollup_epoch_ = 0;
  bool rollup_flushed_ = false;
  std::map<std::uint32_t, VerdictEntry> rollup_entries_;  // by rank
  std::uint64_t snapshot_rows_adopted_ = 0;
  std::optional<DistSnapshot> pending_snapshot_;
  // Flight-recorder records drained so far. Accumulated (not just the last
  // drain) because the coordinator may re-broadcast Collect after a
  // timeout and a drain consumes — a re-ask must not ship an empty blob.
  obs::TraceSnapshot trace_acc_;
  bool done_ = false;

  // Shared with the transport thread (queue, counters, probe snapshots).
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<net::PeerId, DistMsg>> queue_;
  // Data frames from a future (or not-yet-adopted) epoch, with source rank.
  std::vector<std::pair<net::PeerId, DistData>> parked_;
  bool busy_ = false;
  std::uint32_t epoch_ = 0;
  std::uint64_t sent_ = 0;      // cross-process Data frames, current epoch
  std::uint64_t received_ = 0;  // counted when processed, not enqueued
  std::map<std::uint32_t, std::uint64_t> sent_by_;  // per-destination rank
  std::map<std::uint32_t, std::uint64_t> recv_by_;  // per-source rank
  std::uint64_t replay_sent_ = 0;  // catch-up replay frames, both ways
  std::uint64_t replay_received_ = 0;
  bool replay_done_ = true;
  std::int64_t completed_phase_ = -1;
  // Interior-rank probe aggregation for the current (epoch, wave).
  std::uint32_t probe_epoch_ = 0;
  std::uint32_t probe_wave_ = 0;
  std::map<net::PeerId, DistProbeAck> probe_acks_;  // child acks
  bool probe_flushed_ = false;
  // Push path: each child's latest push in epoch_ (cleared when epoch_
  // moves), and the frame of the last push sent to the parent.
  std::map<net::PeerId, DistProbeAck> child_pushes_;
  std::vector<std::uint8_t> last_push_;
};

/// The coordinator (rank 0): drives phases, detects termination, and
/// collects verdicts. One instance per run; not thread-safe (drive it from
/// a single thread).
class DistCoordinator {
 public:
  /// Timing is not configurable: the probe interval, the adaptive
  /// patience and the gray-aggregator triggers are constants whose reasons
  /// sit beside them in distributed.cpp.
  struct Config {
    std::size_t n_device_procs = 1;
    std::size_t fanout = 0;  // coordinator-tree fanout; 0 or >= P = star
    RecoveryMode recovery = RecoveryMode::Legacy;
  };

  struct PhaseOutcome {
    double wall_seconds = 0.0;
    std::uint32_t resets = 0;  // recoveries absorbed during this phase
  };

  struct Collected {
    std::uint64_t violations = 0;
    std::vector<std::string> rows;  // sorted canonical digest, all devices
    RuntimeMetrics metrics;         // merged over device processes
    std::uint32_t epoch = 0;        // final epoch (recoveries survived)
    /// Per-rank contributions of the final collect round, sorted by rank
    /// (the recovery differential tests read world_rebuilds and
    /// snapshot_rows_adopted off these).
    std::vector<VerdictEntry> entries;
    /// Per-rank flight-recorder snapshots (one entry per shipped blob;
    /// empty when tracing is off). The coordinator's own records are
    /// appended by eval::dist_run, not here.
    std::vector<obs::TraceSnapshot> traces;
  };

  DistCoordinator(net::Transport& transport, Config cfg);

  /// Starts the transport and blocks until every device process helloed.
  void start();

  /// Runs the next phase to convergence (recovering first if a device
  /// process was reborn).
  PhaseOutcome run_phase();

  /// Collects verdicts, digests and metrics from every device process.
  [[nodiscard]] Collected collect();

  /// Broadcasts Done so device processes exit their run() loops.
  void shutdown();

 private:
  void on_frame(net::PeerId from, std::vector<std::uint8_t> frame);
  /// Control broadcast: root's tree children in tree mode (interior ranks
  /// relay downward), every rank in star mode.
  void broadcast(const DistMsg& msg);
  /// Direct broadcast to every device rank, bypassing the tree (recovery
  /// traffic — a dead interior rank must not cut its subtree off).
  void broadcast_direct(const DistMsg& msg);
  /// Every ack the root heard for one probe wave, by answering rank (a
  /// relayed wave's acks each cover a whole subtree).
  using WaveAcks = std::map<net::PeerId, DistProbeAck>;
  /// Counters two readings must agree on before quiescence is declared.
  using Signature = std::vector<std::uint64_t>;
  /// A reading's settle test: its signature when the acks (one wave's, or
  /// the latest pushes) show the awaited quiescence, nullopt when not.
  using SettleTest = std::function<std::optional<Signature>(const WaveAcks&)>;
  /// The one termination rule. Sends probe waves — relayed down the tree
  /// when `direct` is nullopt, otherwise straight to exactly those ranks
  /// (recovery: a dead interior rank must not cut its subtree off) — and
  /// returns true once a complete wave passes `settled` with the signature
  /// of the reading before it; false when a rebirth interrupts. A reading
  /// is a complete wave that passes `settled` or, on relayed waits, the
  /// root's push set once it covers every rank and passes `settled`. With
  /// a reading in hand, and at the start of a direct wait, the next wave
  /// goes out at once; otherwise the root waits up to kProbeInterval for a
  /// push set (a direct wait has none), then sends a fallback wave. An
  /// incomplete wave drops the reading and doubles the patience for the
  /// rest of the wait.
  bool probe_until_stable(const std::optional<std::vector<net::PeerId>>& direct,
                          const SettleTest& settled);
  /// True when phase `k` terminated; false when interrupted by a rebirth.
  bool await_termination(std::uint32_t k);
  [[nodiscard]] bool reset_pending();
  void absorb_reset(std::uint32_t upto_phase, PhaseOutcome& outcome);
  /// Catch-up recovery: drain survivors at the old epoch, broadcast
  /// Catchup + snapshots, then drain the replay at the new epoch. Restarts
  /// with the union of reborn ranks if another rank dies mid-recovery.
  void absorb_catchup(std::uint32_t upto_phase, PhaseOutcome& outcome);
  /// True when a stalled collect round should fall back to direct replies:
  /// the tree has aggregators and either an interior direct child's link
  /// is rx-stale or the round missed several waits in a row (a chaos-gray
  /// peer keeps heartbeats — and therefore rx freshness — alive while its
  /// rollups stall).
  [[nodiscard]] bool gray_aggregator(std::uint32_t misses) const;

  net::Transport* transport_;
  Config cfg_;
  coord::Tree tree_;
  std::uint32_t next_phase_ = 0;
  coord::DigestStore store_;  // authoritative accepted digest rows
  std::uint64_t store_applied_seq_ = kNoCollectSeq;
  std::uint64_t collect_seq_ = 0;  // last issued round
  bool want_full_ = false;         // force anchors on the next collect

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<net::PeerId, std::uint32_t> incarnations_;
  bool world_started_ = false;
  bool reset_wanted_ = false;
  std::set<std::uint32_t> reborn_pending_;  // sticky across catch-up retries
  std::uint32_t epoch_ = 0;
  std::uint32_t wave_ = 0;
  WaveAcks acks_;  // for the current wave
  // Latest push per direct child in epoch_ (cleared on every epoch bump),
  // and a count of the pushes accepted, so a wait reads each set once.
  WaveAcks pushes_;
  std::uint64_t push_gen_ = 0;
  std::map<std::uint32_t, VerdictEntry> collect_entries_;  // current round
};

}  // namespace tulkun::runtime
