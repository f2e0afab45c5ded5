// Wire protocol of the multi-process DistributedRuntime.
//
// Every transport frame between processes carries one DistMsg. Control
// messages flow along the coordinator tree (coord::Tree): the root sends
// to its children, interior device ranks relay downward and merge probe
// acks / verdict rollups upward, so root fan-in is bounded by the tree
// fanout instead of the rank count. The flat star is the tree whose fanout
// is at least the rank count; there every message travels exactly as it
// did before the fabric existed. Data messages carry dvm-encoded envelope frames directly
// between device processes in both modes — the tree is coordination only.
//
// All Data traffic (and the coordinator's probe rounds) is tagged with an
// epoch. When a device process is reborn the coordinator bumps the epoch
// and recovers by either the legacy full reset (Reset + deterministic
// world rebuild + phase replay on every rank) or the catch-up protocol
// (Catchup + survivor send-log replay to the reborn ranks only); frames
// from the previous life are recognized by their stale tag and dropped
// instead of corrupting rebuilt state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/error.hpp"
#include "dvm/digest_delta.hpp"
#include "runtime/metrics.hpp"

namespace tulkun::runtime {

/// Sequence sentinel: "no collect round seen yet".
inline constexpr std::uint64_t kNoCollectSeq = ~std::uint64_t{0};

/// First (and only first) message a device process sends the coordinator.
/// `incarnation` counts rebirths: the supervisor increments it each time it
/// re-forks a dead rank, and a Hello with a higher incarnation than the
/// last one recorded is what triggers the coordinator's recovery. Hellos
/// always go direct to rank 0 (never relayed — the rank's ancestors might
/// be the ones that died).
struct DistHello {
  std::uint32_t rank = 0;
  std::uint32_t incarnation = 0;
};

/// Coordinator -> tree: run phase `phase` (0 = FIB burst, k >= 1 = update
/// step k-1 of the deterministic workload). Carries the coordinator's trace
/// context so device-side spans link under the phase span (0 = no tracing).
/// Re-broadcast of an already-applied phase is idempotent on survivors
/// (catch-up re-Begins the interrupted phase after reborn ranks replay).
struct DistBegin {
  std::uint32_t epoch = 0;
  std::uint32_t phase = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Coordinator -> ranks: one wave of the four-counter termination probe.
/// `direct` (recovery drains) asks every rank to answer rank 0 itself with
/// its per-peer counter map — no tree relay, no merging — because a dead
/// interior rank would cut its subtree off from relayed waves.
struct DistProbe {
  std::uint32_t epoch = 0;
  std::uint32_t wave = 0;
  bool direct = false;
};

/// One (peer, counters) row of a drain-barrier ack: Data frames this rank
/// sent toward / processed from `peer` in the current epoch. Pairwise
/// balance lets the drain ignore traffic addressed to dead ranks, which a
/// scalar sum never settles on (frames to a corpse are sent, never
/// received).
struct DistPairCount {
  std::uint32_t peer = 0;
  std::uint64_t sent_to = 0;
  std::uint64_t recv_from = 0;
};

/// Device rank -> parent (or -> root when direct): a consistent snapshot
/// for one probe wave. Interior ranks merge their children's acks with
/// their own before forwarding: counters add, `idle` ANDs, `phase` takes
/// the minimum, and `ranks` counts the ranks folded in so the root knows
/// when a wave is complete without seeing every rank individually.
struct DistProbeAck {
  std::uint32_t epoch = 0;
  std::uint32_t wave = 0;
  std::uint32_t ranks = 1;  // ranks merged into this ack
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool idle = false;
  std::uint32_t phase = 0;         // min completed phase over merged ranks
  bool phase_started = false;      // AND over merged ranks
  std::vector<DistPairCount> pairs;  // only on direct (drain) acks
  std::uint64_t replay_sent = 0;      // catch-up replay frames
  std::uint64_t replay_received = 0;
  bool replay_done = true;  // AND: reborn ranks flip false until replayed
};

/// Coordinator -> tree: legacy recovery — discard all verification state,
/// rebuild the world from the deterministic seed, and switch to `epoch`.
/// The coordinator replays Begin 0..k afterwards.
struct DistReset {
  std::uint32_t epoch = 0;
};

/// Coordinator -> all ranks (direct): catch-up recovery. Ranks listed in
/// `reborn` rebuild their own devices and locally replay phases
/// 0..next_phase-1 with remote emissions suppressed toward survivors
/// (which already processed them) and re-sent, replay-tagged, toward
/// fellow reborn ranks; cascades of replayed inbound frames go to
/// everyone, replay-tagged, since the dead rank may never have processed
/// them. Survivors keep all verifier state, zero their Data counters for
/// the new epoch, and re-send their per-destination send logs to the
/// reborn ranks. Nobody rebuilds a world that is cached.
struct DistCatchup {
  std::uint32_t epoch = 0;
  std::uint32_t next_phase = 0;  // the phase the root will (re-)Begin
  std::vector<std::uint32_t> reborn;
};

/// Live ancestor -> reborn rank: the reborn rank's devices' digest rows as
/// the coordination fabric last accepted them (the ancestor's mirror).
/// Adopted as the reborn rank's delta baseline, so its first rollup after
/// catch-up is a delta against what the root already holds instead of a
/// full anchor.
struct DistSnapshot {
  std::uint32_t epoch = 0;
  std::uint64_t collect_seq = kNoCollectSeq;  // mirror's last applied round
  std::vector<dvm::DigestDelta> rows;         // full-form entries
};

/// Coordinator -> tree: report verdicts and state digests. Rounds are
/// sequenced: a timed-out round is re-asked with the same `seq` and every
/// rank re-ships byte-identical cached entries, so appliers stay exact.
/// `want_full` forces anchors (first round after a legacy reset, where
/// every baseline died with the verifier state).
struct DistCollect {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  bool want_full = false;
  /// Gray-aggregator fallback: the coordinator gave up on relayed rollups
  /// for this round (an interior rank is stalled-not-dead) and asks every
  /// rank to answer with a single-entry rollup sent straight to the root,
  /// bypassing tree aggregation. Re-asks reuse the same seq, so the root
  /// dedups tree and direct replies by rank.
  bool direct = false;
};

/// One rank's contribution to a collect round: verdict count, digest
/// deltas for its owned devices, its runtime counters, and (when tracing)
/// its flight-recorder blob.
struct VerdictEntry {
  std::uint32_t rank = 0;
  std::uint64_t violations = 0;
  std::vector<dvm::DigestDelta> deltas;
  // Flattened RuntimeMetrics slice worth shipping (Samples stay local).
  std::uint64_t jobs = 0;
  std::uint64_t frames = 0;
  std::uint64_t envelopes = 0;
  std::uint64_t frame_bytes = 0;
  double lec_delta_seconds = 0.0;
  double recompute_seconds = 0.0;
  double emit_seconds = 0.0;
  /// Verifier-state rebuilds beyond the process's first build. Legacy
  /// recovery rebuilds every rank; catch-up must keep this at zero for
  /// survivors (the differential tests assert exactly that).
  std::uint64_t world_rebuilds = 0;
  /// Digest rows adopted from a catch-up snapshot as the delta baseline.
  std::uint64_t snapshot_rows_adopted = 0;
  net::LinkMetrics transport;
  /// obs::serialize_trace blob: the rank's flight-recorder records drained
  /// since the last Collect (empty when tracing is off).
  std::vector<std::uint8_t> trace;
};

/// Device rank -> parent: rollup of a collect round. A leaf ships one
/// entry; an aggregator forwards its children's entries plus its own once
/// its whole subtree reported (applying the deltas to its mirror on the
/// way), so the root receives O(fanout) frames per round carrying only
/// changed rows.
struct DistRollup {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  std::vector<VerdictEntry> entries;
};

/// Coordinator -> tree: run is over, exit cleanly.
struct DistDone {};

/// Device process -> device process: a dvm::encode_frame byte string for
/// `dst_device` (owned by the receiver), valid within `epoch`. The sender's
/// trace context rides along so the receiver's handling span links causally
/// back to the send site (0 = no tracing). `replay` marks catch-up
/// retransmissions: they count on the replay counters, not the phase
/// termination counters.
struct DistData {
  std::uint32_t epoch = 0;
  std::uint32_t dst_device = 0;
  std::vector<std::uint8_t> frame;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool replay = false;
};

using DistMsg =
    std::variant<DistHello, DistBegin, DistProbe, DistProbeAck, DistReset,
                 DistCollect, DistRollup, DistDone, DistData, DistCatchup,
                 DistSnapshot>;

[[nodiscard]] std::vector<std::uint8_t> encode_dist(const DistMsg& msg);
/// Throws Error on malformed input.
[[nodiscard]] DistMsg decode_dist(std::span<const std::uint8_t> bytes);

/// Merge `child` into aggregate `into` (tree ack folding; see DistProbeAck).
void merge_probe_ack(DistProbeAck& into, const DistProbeAck& child);

}  // namespace tulkun::runtime
