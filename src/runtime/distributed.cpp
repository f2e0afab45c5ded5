#include "runtime/distributed.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "dvm/codec.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "runtime/digest.hpp"

namespace tulkun::runtime {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Coordinator timing. These are constants, not knobs: each value is held
// in place by the reason beside it.
//
// Fallback wait for a push. After a wave that did not settle (or before a
// relayed wait's first wave) the root waits this long for a push set that
// settles, then probes anyway: a stalled subtree, a lost frame or a rank
// that never pushes costs one interval per wave, never a hang. Without
// the wait, a phase still doing work would be flooded with probes that
// only confirm it is busy. A wave that settled is confirmed at once.
constexpr std::chrono::milliseconds kProbeInterval{2};
// Patience for hellos, acks and verdicts before a round is re-broadcast.
constexpr double kWaitStepS = 0.05;
// Ceiling of the adaptive patience (see Patience). A peer whose round trip
// exceeds the base window — a gray-failed link adding 50 ms each way —
// could otherwise never land an ack inside it, and the coordinator would
// re-ask forever.
constexpr double kWaitStepMaxS = 2.0;
// Gray-aggregator fallback. A stalled-not-dead interior rank blocks its
// whole subtree's rollups while every liveness edge stays up, so a collect
// round that timed out is re-asked with direct replies once an interior
// direct child's link has been rx-silent this long...
constexpr double kGrayCollectStaleS = 1.0;
// ...or once the round missed this many waits in a row (a chaos-gray peer
// keeps heartbeats, and with them rx freshness, alive).
constexpr std::uint32_t kGrayCollectMisses = 4;

/// How long one coordinator round (probe wave or collect) waits for its
/// answers. Each wait — a phase, a drain, a collect — starts at kWaitStepS,
/// and an incomplete round doubles the window for every later round of
/// that wait, up to kWaitStepMaxS. It never shrinks back mid-wait: an
/// incomplete wave drops the reading a verdict needs, so a window that
/// reset after each complete wave would let a peer slower than kWaitStepS
/// complete only every other wave, forever. A complete round ends its
/// wait as soon as the last answer lands, so a wide window costs nothing
/// while answers arrive.
class Patience {
 public:
  [[nodiscard]] std::chrono::duration<double> window() const {
    return std::chrono::duration<double>(s_);
  }
  void missed() { s_ = std::min(s_ * 2.0, kWaitStepMaxS); }

 private:
  double s_ = kWaitStepS;
};

/// Ranks a set of acks or pushes stands for: a merged one counts its
/// whole subtree.
std::size_t ranks_covered(const std::map<net::PeerId, DistProbeAck>& acks) {
  std::size_t n = 0;
  for (const auto& [from, ack] : acks) n += ack.ranks;
  return n;
}

}  // namespace

const char* recovery_mode_name(RecoveryMode m) {
  return m == RecoveryMode::Catchup ? "catchup" : "legacy";
}

RecoveryMode parse_recovery_mode(const std::string& s) {
  if (s == "legacy") return RecoveryMode::Legacy;
  if (s == "catchup") return RecoveryMode::Catchup;
  throw Error("unknown recovery mode: " + s + " (want legacy|catchup)");
}

// ---------------------------------------------------------------------------
// DeviceProcess
// ---------------------------------------------------------------------------

DeviceProcess::DeviceProcess(net::Transport& transport,
                             const topo::Topology& topo, WorldBuilder builder,
                             Config cfg)
    : transport_(&transport),
      topo_(&topo),
      builder_(std::move(builder)),
      cfg_(cfg),
      tree_(cfg.n_device_procs, cfg.fanout) {
  if (cfg_.recovery == RecoveryMode::Catchup && cfg_.incarnation > 0) {
    // A reborn process adopts its epoch from the coordinator's Catchup;
    // until then every data frame parks (pre-death stragglers from the old
    // life would otherwise corrupt the fresh state).
    epoch_ = kEpochUnset;
  }
}

void DeviceProcess::relay_to_children(const std::vector<std::uint8_t>& frame) {
  for (const net::PeerId c : tree_.children(cfg_.rank)) {
    transport_->send(c, frame);
  }
}

DistProbeAck DeviceProcess::make_ack_locked(std::uint32_t wave,
                                            bool with_pairs) {
  DistProbeAck ack;
  ack.epoch = epoch_;
  ack.wave = wave;
  ack.sent = sent_;
  ack.received = received_;
  ack.idle = queue_.empty() && !busy_;
  ack.phase_started = completed_phase_ >= 0;
  ack.phase =
      completed_phase_ >= 0 ? static_cast<std::uint32_t>(completed_phase_) : 0;
  ack.replay_sent = replay_sent_;
  ack.replay_received = replay_received_;
  ack.replay_done = replay_done_;
  if (with_pairs) {
    std::map<std::uint32_t, DistPairCount> pairs;
    for (const auto& [peer, n] : sent_by_) pairs[peer].sent_to = n;
    for (const auto& [peer, n] : recv_by_) pairs[peer].recv_from = n;
    for (auto& [peer, p] : pairs) {
      p.peer = peer;
      ack.pairs.push_back(p);
    }
  }
  return ack;
}

void DeviceProcess::handle_probe(const DistProbe& probe,
                                 const std::vector<std::uint8_t>& frame) {
  if (probe.direct) {
    // Recovery drains bypass the tree entirely: every rank answers the
    // root itself, with its per-peer counter map, because a dead interior
    // rank would cut its subtree off from relayed waves.
    DistProbeAck ack;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack = make_ack_locked(probe.wave, /*with_pairs=*/true);
    }
    transport_->send(kCoordinatorRank, encode_dist(ack));
    return;
  }
  const auto children = tree_.children(cfg_.rank);
  if (children.empty()) {
    // Leaf (or star): answer the parent inline so probe latency is
    // independent of job length; the snapshot is consistent because every
    // counted quantity sits under mu_.
    DistProbeAck ack;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack = make_ack_locked(probe.wave, /*with_pairs=*/false);
    }
    transport_->send(tree_.parent(cfg_.rank), encode_dist(ack));
    return;
  }
  // Interior: start collecting this wave's child acks, then relay the
  // probe downward. The merged ack (with a fresh own snapshot) flushes to
  // the parent once the whole subtree answered.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (probe.epoch != probe_epoch_ || probe.wave != probe_wave_) {
      probe_epoch_ = probe.epoch;
      probe_wave_ = probe.wave;
      probe_acks_.clear();
      probe_flushed_ = false;
    }
  }
  relay_to_children(frame);
}

void DeviceProcess::push_locked() {
  if (busy_ || !queue_.empty() || epoch_ == kEpochUnset) return;
  if (ranks_covered(child_pushes_) + 1 < tree_.subtree_size(cfg_.rank)) {
    return;
  }
  DistProbeAck push = make_ack_locked(kPushWave, /*with_pairs=*/false);
  for (const auto& [child, a] : child_pushes_) merge_probe_ack(push, a);
  auto frame = encode_dist(push);
  if (frame == last_push_) return;
  last_push_ = frame;
  // Sending under mu_ keeps pushes in the order they were taken, so the
  // parent never holds an older snapshot over a newer one. Send never
  // blocks, and locks nest child -> parent -> root only.
  transport_->send(tree_.parent(cfg_.rank), std::move(frame));
}

void DeviceProcess::handle_probe_ack(net::PeerId from,
                                     const DistProbeAck& ack) {
  if (ack.wave == kPushWave) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.epoch != epoch_) return;  // raced an epoch change either way
    child_pushes_[from] = ack;
    push_locked();
    return;
  }
  std::vector<std::uint8_t> flush;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack.epoch != epoch_ || ack.epoch != probe_epoch_ ||
        ack.wave != probe_wave_) {
      return;  // stale wave or epoch transition
    }
    probe_acks_[from] = ack;
    if (probe_flushed_ ||
        ranks_covered(probe_acks_) + 1 < tree_.subtree_size(cfg_.rank)) {
      return;
    }
    DistProbeAck merged = make_ack_locked(probe_wave_, /*with_pairs=*/false);
    for (const auto& [child, a] : probe_acks_) merge_probe_ack(merged, a);
    probe_flushed_ = true;
    flush = encode_dist(merged);
  }
  transport_->send(tree_.parent(cfg_.rank), flush);
}

void DeviceProcess::on_frame(net::PeerId from,
                             std::vector<std::uint8_t> frame) {
  DistMsg msg;
  try {
    msg = decode_dist(frame);
  } catch (const Error&) {
    return;  // transport framing already vetted; drop malformed payloads
  }
  if (const auto* probe = std::get_if<DistProbe>(&msg)) {
    handle_probe(*probe, frame);
    return;
  }
  if (const auto* ack = std::get_if<DistProbeAck>(&msg)) {
    handle_probe_ack(from, *ack);
    return;
  }
  // Interior ranks relay phase control downward before their own worker
  // even sees it, so relay latency is independent of job length. Catchup,
  // Done, snapshots and data frames are addressed point-to-point, and a
  // direct collect already reached every rank from the root.
  const auto* col = std::get_if<DistCollect>(&msg);
  if (std::get_if<DistBegin>(&msg) != nullptr ||
      std::get_if<DistReset>(&msg) != nullptr ||
      (col != nullptr && !col->direct)) {
    relay_to_children(frame);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back(from, std::move(msg));
  }
  cv_.notify_one();
}

void DeviceProcess::build_world() {
  // The world (plans, initial tables, update steps) is a deterministic
  // function of the dataset and identical in every epoch; planning it is
  // the expensive part of recovery. Build it once and let epoch resets
  // rebuild only the host — recovery applies the cached plan payload
  // instead of replanning the network.
  if (!world_built_) world_ = builder_();
  // Concurrent in-process ranks sharing one world must not race on its
  // BDD manager: flattening rules and localizing plans read it.
  std::unique_lock<std::mutex> shared_lock;
  if (world_.localize_mu) {
    shared_lock = std::unique_lock<std::mutex>(*world_.localize_mu);
  }
  const auto mine = devices_of(cfg_.rank);
  if (!world_built_) {
    wire_tables_.resize(world_.tables.size());
    for (const DeviceId d : mine) wire_tables_[d] = to_wire(world_.tables[d]);
    for (const auto& step : world_.steps) {
      wire_steps_.push_back(to_wire(step.update.rule));
    }
    world_built_ = true;
  }
  if (host_) {
    retired_.merge(host_->metrics());
    world_rebuilds_ += 1;
  }
  host_ = std::make_unique<DeviceHost>(*topo_, mine, cfg_.engine,
                                       /*deltas=*/false);
  for (const auto& plan : world_.plans) host_->install(plan);
  step_rule_ids_.assign(world_.steps.size(), 0);
  obs::Registry::instance().counter("dist_world_builds").add(1);
}

std::vector<std::uint32_t> DeviceProcess::devices_of(net::PeerId rank) const {
  std::vector<std::uint32_t> out;
  for (DeviceId d = 0; d < topo_->device_count(); ++d) {
    if (owner_rank(d, cfg_.n_device_procs) == rank) {
      out.push_back(static_cast<std::uint32_t>(d));
    }
  }
  return out;
}

bool DeviceProcess::is_reborn_peer(net::PeerId r) const {
  return std::find(reborn_set_.begin(), reborn_set_.end(), r) !=
         reborn_set_.end();
}

void DeviceProcess::run() {
  net::Transport::Handlers handlers;
  handlers.on_frame = [this](net::PeerId from, std::vector<std::uint8_t> f) {
    on_frame(from, std::move(f));
  };
  transport_->start(std::move(handlers));
  transport_->send(kCoordinatorRank,
                   encode_dist(DistHello{cfg_.rank, cfg_.incarnation}));
  build_world();
  while (!done_) {
    net::PeerId from = 0;
    DistMsg msg;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return !queue_.empty(); });
      from = queue_.front().first;
      msg = std::move(queue_.front().second);
      queue_.pop_front();
      busy_ = true;
    }
    {
      // Inproc runs share threads between logical ranks, so records adopt
      // the rank per processed message rather than per process.
      obs::RankScope rank_scope(cfg_.rank);
      process(from, msg);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_ = false;
      push_locked();
    }
  }
}

void DeviceProcess::process(net::PeerId from, DistMsg& msg) {
  if (auto* begin = std::get_if<DistBegin>(&msg)) {
    run_phase(*begin);
  } else if (auto* data = std::get_if<DistData>(&msg)) {
    handle_data(from, *data);
  } else if (const auto* reset = std::get_if<DistReset>(&msg)) {
    handle_reset(*reset);
  } else if (const auto* cu = std::get_if<DistCatchup>(&msg)) {
    handle_catchup(*cu);
  } else if (const auto* snap = std::get_if<DistSnapshot>(&msg)) {
    handle_snapshot(*snap);
  } else if (const auto* collect = std::get_if<DistCollect>(&msg)) {
    handle_collect(*collect);
  } else if (auto* rollup = std::get_if<DistRollup>(&msg)) {
    handle_rollup(*rollup);
  } else if (std::get_if<DistDone>(&msg) != nullptr) {
    done_ = true;
  }
  // Hello/Probe/ProbeAck never reach the worker queue.
}

void DeviceProcess::run_phase(const DistBegin& begin) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (begin.epoch != epoch_) return;  // stale Begin from before a recovery
  }
  if (cfg_.kill_at_phase == begin.phase && cfg_.incarnation == 0) {
    // Chaos hook: die exactly like a crashed switch process — no cleanup,
    // no goodbye. The supervisor re-forks us with incarnation 1.
    _exit(43);
  }
  // Adopt the coordinator's context: device-side spans (and everything
  // route() stamps onto outgoing Data) link under its phase span.
  obs::ContextScope trace_ctx({begin.trace_id, begin.parent_span});
  TLK_SPAN_ARG("dist.device_phase", begin.phase);
  apply_phase(begin.phase, /*replay=*/false);
  std::lock_guard<std::mutex> lock(mu_);
  completed_phase_ = begin.phase;
}

void DeviceProcess::apply_phase(std::uint32_t phase, bool replay) {
  if (applied_phases_.contains(phase)) return;  // idempotent re-Begin
  applied_phases_.insert(phase);
  const Routing mode = replay ? Routing::kReplayLocal : Routing::kNormal;
  const auto send = [this, mode](DeviceId dst, std::vector<std::uint8_t> f) {
    route(dst, std::move(f), mode);
  };
  if (phase == 0) {
    for (const DeviceId d : devices_of(cfg_.rank)) {
      host_->initialize(d, wire_tables_[d], send);
    }
    return;
  }
  const std::size_t idx = phase - 1;
  if (idx >= world_.steps.size()) return;
  const auto& step = world_.steps[idx];
  if (owner_rank(step.update.device, cfg_.n_device_procs) != cfg_.rank) return;
  fib::FibUpdate upd = step.update;
  if (step.erase_of >= 0) {
    upd.rule_id = step_rule_ids_[static_cast<std::size_t>(step.erase_of)];
  }
  host_->update(upd.device, upd, wire_steps_[idx], send);
  step_rule_ids_[idx] = upd.rule_id;
}

void DeviceProcess::revive_parked(std::uint32_t epoch) {
  // Revive data frames that raced ahead of this recovery; drop older ones.
  std::vector<std::pair<net::PeerId, DistData>> keep;
  std::vector<std::pair<net::PeerId, DistMsg>> revive;
  for (auto& [src, d] : parked_) {
    if (d.epoch == epoch) {
      revive.emplace_back(src, DistMsg(std::move(d)));
    } else if (d.epoch > epoch && d.epoch != kEpochUnset) {
      keep.emplace_back(src, std::move(d));
    }
  }
  parked_ = std::move(keep);
  if (!revive.empty()) {
    // Revived frames predate everything currently queued (they were
    // popped and parked before this recovery was even processed, and the
    // transport keeps enqueuing while it runs). Re-applying them at the
    // back would order a peer's older announcements after its newer ones;
    // the front keeps per-source FIFO intact.
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(revive.begin()),
                  std::make_move_iterator(revive.end()));
  }
}

void DeviceProcess::handle_reset(const DistReset& reset) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_ = reset.epoch;
    child_pushes_.clear();
    sent_ = 0;
    received_ = 0;
    sent_by_.clear();
    recv_by_.clear();
    replay_sent_ = 0;
    replay_received_ = 0;
    replay_done_ = true;
    completed_phase_ = -1;
  }
  applied_phases_.clear();
  send_log_.clear();
  reborn_set_.clear();
  build_world();
  revive_parked(reset.epoch);
}

void DeviceProcess::handle_catchup(const DistCatchup& cu) {
  TLK_SPAN_ARG("dist.catchup", cu.next_phase);
  const bool am_reborn =
      std::find(cu.reborn.begin(), cu.reborn.end(), cfg_.rank) !=
      cu.reborn.end();
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_ = cu.epoch;
    child_pushes_.clear();
    sent_ = 0;
    received_ = 0;
    sent_by_.clear();
    recv_by_.clear();
    replay_sent_ = 0;
    replay_received_ = 0;
    if (am_reborn) replay_done_ = false;
  }
  reborn_set_ = cu.reborn;
  if (am_reborn) {
    if (!applied_phases_.empty()) {
      // A previous catch-up attempt already replayed into this process
      // (another rank died mid-recovery); its state mixes replay traffic
      // from the aborted round, so rebuild the verifiers — the world
      // itself stays cached — and replay again from scratch.
      build_world();
      applied_phases_.clear();
    }
    send_log_.clear();
    baseline_.clear();
    mirror_.clear();
    mirror_applied_seq_ = kNoCollectSeq;
    own_seq_ = kNoCollectSeq;
    own_entry_.reset();
    snapshot_rows_adopted_ = 0;
    if (pending_snapshot_ && pending_snapshot_->epoch == cu.epoch) {
      DistSnapshot snap = std::move(*pending_snapshot_);
      pending_snapshot_.reset();
      handle_snapshot(snap);
    }
    // Replay our own history: apply phases 0..next_phase-1 locally.
    // Emissions toward survivors are suppressed (they processed the
    // originals before we died); emissions toward fellow reborn ranks are
    // re-sent replay-tagged (their copies died with them); loopback runs
    // replay-tagged through the normal queue. Inbound replay frames from
    // survivors interleave freely — message processing is confluent.
    for (std::uint32_t p = 0; p < cu.next_phase; ++p) {
      apply_phase(p, /*replay=*/true);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      replay_done_ = true;
    }
  } else {
    // Survivor: keep all verifier state, re-send our per-destination send
    // log to each reborn rank (re-tagged to the new epoch), and serve a
    // digest snapshot to any reborn rank whose nearest live ancestor we
    // are.
    for (const std::uint32_t b : cu.reborn) {
      const auto it = send_log_.find(b);
      if (it == send_log_.end() || it->second.empty()) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        replay_sent_ += it->second.size();
      }
      for (const DistData& logged : it->second) {
        DistData d = logged;
        d.epoch = cu.epoch;
        d.replay = true;
        transport_->send(b, encode_dist(DistMsg(std::move(d))));
      }
    }
    for (const std::uint32_t b : cu.reborn) {
      if (tree_.live_ancestor(b, cu.reborn) != cfg_.rank) continue;
      std::vector<std::uint32_t> devs;
      for (const net::PeerId r : tree_.subtree(b)) {
        const auto owned_devs = devices_of(r);
        devs.insert(devs.end(), owned_devs.begin(), owned_devs.end());
      }
      DistSnapshot snap;
      snap.epoch = cu.epoch;
      snap.collect_seq = mirror_applied_seq_;
      snap.rows = mirror_.full_for(devs);
      transport_->send(b, encode_dist(DistMsg(std::move(snap))));
    }
  }
  revive_parked(cu.epoch);
}

void DeviceProcess::handle_snapshot(const DistSnapshot& snap) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snap.epoch != epoch_) {
      // Raced ahead of our Catchup (it travels ancestor -> us, the
      // Catchup root -> us): hold it until the epoch is adopted.
      if (epoch_ == kEpochUnset || snap.epoch > epoch_) {
        pending_snapshot_ = snap;
      }
      return;
    }
  }
  if (own_seq_ != kNoCollectSeq) return;  // a collect round already ran
  std::uint64_t adopted = 0;
  for (const auto& d : snap.rows) {
    if (owner_rank(d.device, cfg_.n_device_procs) == cfg_.rank) {
      adopted += d.added.size();
      baseline_.apply({d});
    }
    if (!tree_.children(cfg_.rank).empty()) mirror_.apply({d});
  }
  if (!tree_.children(cfg_.rank).empty()) {
    mirror_applied_seq_ = snap.collect_seq;
  }
  snapshot_rows_adopted_ += adopted;
  obs::Registry::instance().counter("coord_snapshot_rows_adopted").add(adopted);
}

void DeviceProcess::handle_data(net::PeerId from, DistData& data) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (epoch_ == kEpochUnset) {
      // No epoch adopted yet (freshly reborn): park everything; the
      // Catchup revives what belongs to the new epoch and drops the rest.
      parked_.emplace_back(from, std::move(data));
      return;
    }
    if (data.epoch != epoch_) {
      // Ahead of our recovery: park until we catch up. Behind: a frame
      // from a previous life; the epoch tag exists precisely to drop it.
      if (data.epoch > epoch_) parked_.emplace_back(from, std::move(data));
      return;
    }
    if (data.replay) {
      replay_received_ += 1;
    } else {
      received_ += 1;
      recv_by_[from] += 1;
    }
  }
  // Adopt the sender's context so this span links back to the send site.
  obs::ContextScope trace_ctx({data.trace_id, data.parent_span});
  TLK_SPAN_ARG("dist.handle_data", data.frame.size());
  // Cascades of a replayed frame are delivered to everyone, replay-tagged
  // (Routing::kReplayCascade): the dead rank may never have processed this
  // frame (it died mid-phase-k), so its original cascades may not exist.
  // Survivors reprocess idempotently — emission is change-driven, so an
  // already-incorporated announcement cascades nothing further.
  const Routing mode = data.replay ? Routing::kReplayCascade : Routing::kNormal;
  host_->deliver(data.dst_device, data.frame,
                 [this, mode](DeviceId dst, std::vector<std::uint8_t> f) {
                   route(dst, std::move(f), mode);
                 });
}

void DeviceProcess::route(DeviceId dst, std::vector<std::uint8_t> frame,
                          Routing mode) {
  const bool replay = mode != Routing::kNormal;
  const obs::TraceContext ctx = obs::current_context();
  DistData d;
  d.dst_device = dst;
  d.trace_id = ctx.trace_id;
  d.parent_span = ctx.span_id;
  d.frame = std::move(frame);
  const net::PeerId owner = owner_rank(dst, cfg_.n_device_procs);
  const bool loopback = owner == cfg_.rank;
  if (!loopback) {
    // Cross-rank: log first (epoch and replay flag are rewritten when a
    // catch-up replays the log), then deliver — unless this is local phase
    // replay toward a survivor: phases below next_phase terminated
    // globally before the crash, so the survivor processed the originals.
    send_log_[owner].push_back(d);
    if (mode == Routing::kReplayLocal && !is_reborn_peer(owner)) return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    d.epoch = epoch_;
    d.replay = replay;
    if (replay) {
      replay_sent_ += 1;
    } else {
      sent_ += 1;
      sent_by_[owner] += 1;
    }
    // Loopback: both counters move together so the global sums stay
    // balanced without special-casing local frames.
    if (loopback) queue_.emplace_back(cfg_.rank, DistMsg(std::move(d)));
  }
  if (loopback) {
    cv_.notify_one();
  } else {
    transport_->send(owner, encode_dist(DistMsg(std::move(d))));
  }
}

void DeviceProcess::handle_collect(const DistCollect& collect) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (collect.epoch != epoch_) return;  // stale round
  }
  if (collect.direct) {
    // Gray-aggregator fallback: answer with our own cached entry straight
    // to the root, bypassing the (possibly stalled) interior aggregator.
    // contribute_entry caches per seq, so tree and direct replies for one
    // round stay byte-identical and the root dedups them by rank.
    if (collect.seq != rollup_seq_) {
      rollup_seq_ = collect.seq;
      rollup_epoch_ = collect.epoch;
      rollup_entries_.clear();
      rollup_flushed_ = false;
    }
    contribute_entry(collect.seq, collect.want_full);
    DistRollup r;
    {
      std::lock_guard<std::mutex> lock(mu_);
      r.epoch = epoch_;
    }
    r.seq = collect.seq;
    r.entries.push_back(rollup_entries_[cfg_.rank]);
    transport_->send(kCoordinatorRank, encode_dist(DistMsg(std::move(r))));
    return;
  }
  if (collect.seq != rollup_seq_) {
    rollup_seq_ = collect.seq;
    rollup_epoch_ = collect.epoch;
    rollup_entries_.clear();
  }
  // A re-asked round re-flushes (the previous rollup may have been lost);
  // cached entries keep the resend byte-identical.
  rollup_flushed_ = false;
  contribute_entry(collect.seq, collect.want_full);
  maybe_flush_rollup();
}

void DeviceProcess::contribute_entry(std::uint64_t seq, bool want_full) {
  if (own_seq_ == seq && own_entry_) {
    rollup_entries_[cfg_.rank] = *own_entry_;
    return;
  }
  bool force_full = want_full;
  if (cfg_.anchor_every == 1) {
    force_full = true;
  } else if (cfg_.anchor_every > 1) {
    rounds_since_anchor_ += 1;
    if (rounds_since_anchor_ >= cfg_.anchor_every) force_full = true;
  }
  if (force_full) rounds_since_anchor_ = 0;
  VerdictEntry e;
  e.rank = cfg_.rank;
  const std::vector<std::string> kEmpty;
  for (const DeviceId dev : devices_of(cfg_.rank)) {
    const auto& v = host_->verifier(dev);
    auto rows = canonical_device_rows(v);
    const auto* base = baseline_.rows_for(dev);
    auto delta = coord::diff_rows(dev, base ? *base : kEmpty, rows, force_full);
    e.violations += v.violations().size();
    if (delta.full || !delta.added.empty() || !delta.removed.empty()) {
      e.deltas.push_back(std::move(delta));
    }
    baseline_.replace(dev, std::move(rows));
  }
  e.metrics = retired_;
  e.metrics.merge(host_->metrics());
  for (const auto& [peer, m] : transport_->link_metrics()) {
    e.metrics.transport.merge(m);
  }
  e.world_rebuilds = world_rebuilds_;
  e.snapshot_rows_adopted = snapshot_rows_adopted_;
  if (obs::trace_enabled()) {
    obs::merge_snapshot(trace_acc_, obs::drain_snapshot());
    e.trace = obs::serialize_trace(trace_acc_);
  }
  own_seq_ = seq;
  own_entry_ = e;
  rollup_entries_[cfg_.rank] = std::move(e);
}

void DeviceProcess::maybe_flush_rollup() {
  if (rollup_seq_ == kNoCollectSeq || rollup_flushed_) return;
  if (rollup_entries_.size() < tree_.subtree_size(cfg_.rank)) return;
  const bool interior = !tree_.children(cfg_.rank).empty();
  if (interior && mirror_applied_seq_ != rollup_seq_) {
    // The subtree is complete: fold its deltas into the mirror exactly
    // once per round. The mirror tracks what the root's store will hold
    // after this round — which is what a reborn child needs served back.
    for (const auto& [rank, entry] : rollup_entries_) {
      mirror_.apply(entry.deltas);
    }
    mirror_applied_seq_ = rollup_seq_;
  }
  DistRollup r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.epoch = epoch_;
  }
  r.seq = rollup_seq_;
  for (const auto& [rank, entry] : rollup_entries_) r.entries.push_back(entry);
  rollup_flushed_ = true;
  transport_->send(tree_.parent(cfg_.rank), encode_dist(DistMsg(std::move(r))));
}

void DeviceProcess::handle_rollup(DistRollup& rollup) {
  // Collect relays through us before our children can answer, so a rollup
  // for a round we have not seen is stale by construction.
  if (rollup.seq != rollup_seq_ || rollup.epoch != rollup_epoch_) return;
  for (auto& e : rollup.entries) {
    rollup_entries_[e.rank] = std::move(e);
  }
  maybe_flush_rollup();
}

// ---------------------------------------------------------------------------
// DistCoordinator
// ---------------------------------------------------------------------------

DistCoordinator::DistCoordinator(net::Transport& transport, Config cfg)
    : transport_(&transport),
      cfg_(cfg),
      tree_(cfg.n_device_procs, cfg.fanout) {}

void DistCoordinator::on_frame(net::PeerId from,
                               std::vector<std::uint8_t> frame) {
  DistMsg msg;
  try {
    msg = decode_dist(frame);
  } catch (const Error&) {
    return;
  }
  if (const auto* hello = std::get_if<DistHello>(&msg)) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(hello->rank);
    const bool reborn =
        it != incarnations_.end() && hello->incarnation > it->second;
    if (it == incarnations_.end() || hello->incarnation >= it->second) {
      incarnations_[hello->rank] = hello->incarnation;
    }
    if (reborn && world_started_) {
      reset_wanted_ = true;
      reborn_pending_.insert(hello->rank);
    }
  } else if (const auto* ack = std::get_if<DistProbeAck>(&msg)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ack->epoch == epoch_ && ack->wave == kPushWave) {
      pushes_[from] = *ack;
      push_gen_ += 1;
    } else if (ack->epoch == epoch_ && ack->wave == wave_) {
      acks_[from] = *ack;
    }
  } else if (auto* rollup = std::get_if<DistRollup>(&msg)) {
    bool accepted = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (rollup->epoch == epoch_ && rollup->seq == collect_seq_) {
        for (auto& e : rollup->entries) collect_entries_[e.rank] = std::move(e);
        accepted = true;
      }
    }
    if (accepted) {
      // Root ingress per collect round: the scaling benches read these to
      // show tree-mode rollups stay O(fanout) frames with delta-sized
      // payloads while the star grows linearly with rank count.
      auto& reg = obs::Registry::instance();
      reg.counter("coord_root_rollup_frames").add(1);
      reg.counter("coord_root_rollup_bytes").add(frame.size());
    }
  }
  cv_.notify_all();
}

void DistCoordinator::broadcast(const DistMsg& msg) {
  const auto bytes = encode_dist(msg);
  for (const net::PeerId r : tree_.children(kCoordinatorRank)) {
    transport_->send(r, bytes);
  }
}

void DistCoordinator::broadcast_direct(const DistMsg& msg) {
  const auto bytes = encode_dist(msg);
  for (std::size_t r = 1; r <= cfg_.n_device_procs; ++r) {
    transport_->send(static_cast<net::PeerId>(r), bytes);
  }
}

void DistCoordinator::start() {
  net::Transport::Handlers handlers;
  handlers.on_frame = [this](net::PeerId from, std::vector<std::uint8_t> f) {
    on_frame(from, std::move(f));
  };
  transport_->start(std::move(handlers));
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return incarnations_.size() >= cfg_.n_device_procs; });
  world_started_ = true;
}

bool DistCoordinator::reset_pending() {
  std::lock_guard<std::mutex> lock(mu_);
  return reset_wanted_;
}

bool DistCoordinator::probe_until_stable(
    const std::optional<std::vector<net::PeerId>>& direct,
    const SettleTest& settled) {
  // A relayed wave (or push set) is complete when its acks cover every
  // device rank (the root hears one merged ack per direct child); a direct
  // wave when every addressed rank answered.
  const std::size_t expected = direct ? direct->size() : cfg_.n_device_procs;
  auto& reg = obs::Registry::instance();
  obs::Counter& waves_sent = reg.counter("coord_probe_waves");
  obs::Counter& fallbacks = reg.counter("coord_fallback_waves");
  // The first of the two readings, which the next complete wave must
  // match. A push set stands in for it because the root took every push
  // it holds before sending the confirming wave, and counters are
  // monotone within an epoch: Mattern's argument needs no more of a first
  // reading. A stale or spuriously balanced set costs a wave, never an
  // early end, since only a wave confirms.
  std::optional<Signature> prev;
  std::uint64_t read_gen = ~std::uint64_t{0};  // push set last read
  // Waits for a reading when there is none, up to kProbeInterval; false
  // when a rebirth interrupts. Each push set is read once: one that did
  // not settle, or whose confirming wave failed, says nothing new until
  // another push lands.
  const auto await_reading = [&] {
    std::unique_lock<std::mutex> lock(mu_);
    const bool pushed = cv_.wait_for(lock, kProbeInterval, [&] {
      if (reset_wanted_) return true;
      if (direct || push_gen_ == read_gen) return false;
      read_gen = push_gen_;
      if (ranks_covered(pushes_) >= expected) prev = settled(pushes_);
      return prev.has_value();
    });
    if (!pushed && !direct) fallbacks.add(1);
    return !reset_wanted_;
  };
  Patience patience;
  if (!direct && !await_reading()) return false;
  while (true) {
    std::uint32_t epoch = 0;
    std::uint32_t wave = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (reset_wanted_) return false;
      wave = ++wave_;
      epoch = epoch_;
      acks_.clear();
    }
    if (direct) {
      TLK_EVENT_ARG("dist.direct_wave", wave);
      const auto bytes = encode_dist(DistProbe{epoch, wave, /*direct=*/true});
      for (const net::PeerId r : *direct) transport_->send(r, bytes);
    } else {
      TLK_EVENT_ARG("dist.probe_wave", wave);
      waves_sent.add(1);
      broadcast(DistProbe{epoch, wave});
    }
    bool complete = false;
    WaveAcks acks;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, patience.window(), [&] {
        return reset_wanted_ || ranks_covered(acks_) >= expected;
      });
      if (reset_wanted_) return false;
      complete = ranks_covered(acks_) >= expected;
      if (complete) acks = acks_;
    }
    if (!complete) {
      // Missing acks (dead or slow peer): probe again with doubled
      // patience — a slow peer's acks always land once the window exceeds
      // its round trip, and a rebirth Hello flips reset_wanted_ and aborts
      // the wait. Stability needs consecutive complete readings.
      patience.missed();
      prev.reset();
      continue;
    }
    auto sig = settled(acks);
    if (sig && prev && *sig == *prev) return true;
    prev = std::move(sig);
    if (!prev && !await_reading()) return false;
  }
}

bool DistCoordinator::await_termination(std::uint32_t k) {
  return probe_until_stable(
      std::nullopt, [k](const WaveAcks& acks) -> std::optional<Signature> {
        std::uint64_t sent = 0;
        std::uint64_t recv = 0;
        for (const auto& [rank, ack] : acks) {
          if (!ack.idle || !ack.phase_started || ack.phase != k) {
            return std::nullopt;
          }
          sent += ack.sent;
          recv += ack.received;
        }
        if (sent != recv) return std::nullopt;
        return Signature{sent, recv};
      });
}

void DistCoordinator::absorb_reset(std::uint32_t upto_phase,
                                   PhaseOutcome& outcome) {
  TLK_SPAN_ARG("dist.reset", upto_phase);
  const auto reset_t0 = std::chrono::steady_clock::now();
  bool again = true;
  while (again) {
    again = false;
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reset_wanted_ = false;
      reborn_pending_.clear();
      epoch_ += 1;
      epoch = epoch_;
      wave_ = 0;
      acks_.clear();
      pushes_.clear();
    }
    outcome.resets += 1;
    TLK_EVENT_ARG("dist.epoch_bump", epoch);
    broadcast(DistReset{epoch});
    // Replay every phase completed before the crash; world construction is
    // deterministic, so the replay reconverges to the identical state.
    const obs::TraceContext ctx = obs::current_context();
    for (std::uint32_t p = 0; p < upto_phase && !again; ++p) {
      while (true) {
        if (reset_pending()) {
          again = true;
          break;
        }
        broadcast(DistBegin{epoch, p, ctx.trace_id, ctx.span_id});
        if (await_termination(p)) break;
      }
    }
    if (!again && reset_pending()) again = true;
  }
  // Every rank's verifier state (and delta baseline) died with the reset;
  // the next collect must re-anchor or the store drifts.
  want_full_ = true;
  // Recovery SLO instrumentation: how long the epoch bump + replay took,
  // end to end, observable from a live metrics scrape mid-soak.
  auto& reg = obs::Registry::instance();
  reg.counter("dist_epoch_resets").add(1);
  reg.counter("dist_recovery_us_max")
      .max_of(static_cast<std::uint64_t>(seconds_since(reset_t0) * 1e6));
}

void DistCoordinator::absorb_catchup(std::uint32_t upto_phase,
                                     PhaseOutcome& outcome) {
  TLK_SPAN_ARG("dist.catchup", upto_phase);
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n_ranks = cfg_.n_device_procs;
  std::vector<net::PeerId> all_ranks;
  for (std::size_t r = 1; r <= n_ranks; ++r) {
    all_ranks.push_back(static_cast<net::PeerId>(r));
  }
  bool again = true;
  while (again) {
    again = false;
    std::vector<std::uint32_t> reborn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reset_wanted_ = false;
      // Sticky across retries: if yet another rank dies mid-recovery, the
      // restarted round recovers the union (the first rank's replay was
      // interrupted and must rerun).
      reborn.assign(reborn_pending_.begin(), reborn_pending_.end());
    }
    const auto is_reborn = [&](std::uint32_t r) {
      return std::find(reborn.begin(), reborn.end(), r) != reborn.end();
    };
    std::vector<net::PeerId> survivors;
    for (const net::PeerId r : all_ranks) {
      if (!is_reborn(r)) survivors.push_back(r);
    }

    // Stage 1 — drain barrier at the OLD epoch, survivors only. Frames
    // addressed to the corpses settle nowhere, so a scalar sent==recv can
    // never balance; pairwise survivor<->survivor counters can. Drained =
    // every survivor idle with every survivor pair balanced, the same
    // pair table on two consecutive waves.
    const bool drained = probe_until_stable(
        survivors, [&](const WaveAcks& acks) -> std::optional<Signature> {
          // (src, dst) -> (src sent to dst, dst took from src)
          std::map<std::pair<std::uint32_t, std::uint32_t>,
                   std::pair<std::uint64_t, std::uint64_t>>
              table;
          for (const auto& [r, ack] : acks) {
            if (is_reborn(r)) continue;
            if (!ack.idle) return std::nullopt;
            for (const auto& p : ack.pairs) {
              if (is_reborn(p.peer) || p.peer > n_ranks) continue;
              table[{r, p.peer}].first += p.sent_to;
              table[{p.peer, r}].second += p.recv_from;
            }
          }
          Signature sig;
          for (const auto& [pair, sr] : table) {
            if (sr.first != sr.second) return std::nullopt;
            sig.insert(sig.end(), {pair.first, pair.second, sr.first});
          }
          return sig;
        });
    if (!drained) {
      again = true;
      continue;
    }

    // Stage 2 — bump the epoch and hand everyone the recovery plan.
    // Catchup goes direct (never relayed): the dead ranks may well be the
    // interior of the tree. The root serves the digest snapshot itself for
    // any reborn rank whose live ancestor search reaches rank 0.
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch_ += 1;
      epoch = epoch_;
      wave_ = 0;
      acks_.clear();
      pushes_.clear();
    }
    outcome.resets += 1;
    TLK_EVENT_ARG("dist.epoch_bump", epoch);
    DistCatchup cu;
    cu.epoch = epoch;
    cu.next_phase = upto_phase;
    cu.reborn = reborn;
    broadcast_direct(cu);
    for (const std::uint32_t b : reborn) {
      if (tree_.live_ancestor(b, reborn) != kCoordinatorRank) continue;
      const auto subranks = tree_.subtree(b);
      std::vector<std::uint32_t> devs;
      for (const std::uint32_t dev : store_.devices()) {
        const net::PeerId owner = owner_rank(dev, cfg_.n_device_procs);
        if (std::find(subranks.begin(), subranks.end(), owner) !=
            subranks.end()) {
          devs.push_back(dev);
        }
      }
      DistSnapshot snap;
      snap.epoch = epoch;
      snap.collect_seq = store_applied_seq_;
      snap.rows = store_.full_for(devs);
      transport_->send(b, encode_dist(DistMsg(std::move(snap))));
    }

    // Stage 3 — replay drain at the NEW epoch, every rank: reborn ranks
    // flip replay_done once their local replay finished, and the replay
    // counters (survivor log resends + reborn replay emissions + cascade
    // fallout) must balance and hold across two waves.
    const bool replayed = probe_until_stable(
        all_ranks, [](const WaveAcks& acks) -> std::optional<Signature> {
          Signature sums(4, 0);
          for (const auto& [r, ack] : acks) {
            if (!ack.idle || !ack.replay_done) return std::nullopt;
            sums[0] += ack.sent;
            sums[1] += ack.received;
            sums[2] += ack.replay_sent;
            sums[3] += ack.replay_received;
          }
          if (sums[0] != sums[1] || sums[2] != sums[3]) return std::nullopt;
          return sums;
        });
    if (!replayed) {
      again = true;
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      reborn_pending_.clear();
      if (reset_wanted_) again = true;
    }
  }
  const auto us = static_cast<std::uint64_t>(seconds_since(t0) * 1e6);
  auto& reg = obs::Registry::instance();
  reg.counter("coord_catchup_total").add(1);
  reg.counter("coord_catchup_us_max").max_of(us);
  // The soak SLO machinery watches the generic recovery counters in both
  // modes; catch-up feeds them too.
  reg.counter("dist_epoch_resets").add(1);
  reg.counter("dist_recovery_us_max").max_of(us);
}

DistCoordinator::PhaseOutcome DistCoordinator::run_phase() {
  PhaseOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint32_t k = next_phase_;
  // Each phase is one distributed trace: mint its id here, span it, and
  // ship the context inside Begin so every rank's work links under it.
  obs::ContextScope trace_root(
      {obs::trace_enabled() ? obs::new_trace_id() : 0, 0});
  TLK_SPAN_ARG("dist.phase", k);
  const obs::TraceContext ctx = obs::current_context();
  while (true) {
    if (reset_pending()) {
      if (cfg_.recovery == RecoveryMode::Catchup) {
        absorb_catchup(k, out);
      } else {
        absorb_reset(k, out);
      }
    }
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_;
    }
    broadcast(DistBegin{epoch, k, ctx.trace_id, ctx.span_id});
    if (await_termination(k)) break;
  }
  next_phase_ = k + 1;
  out.wall_seconds = seconds_since(t0);
  return out;
}

bool DistCoordinator::gray_aggregator(std::uint32_t misses) const {
  // Only a tree with aggregators (some child of the root has children)
  // can stall a subtree; in the star every rank already answers the root.
  if (tree_.depth() < 2) return false;
  if (misses >= kGrayCollectMisses) return true;
  // rx age of the quietest interior direct child (leaf children answer the
  // root straight anyway; only an aggregator stalls a subtree). Same clock
  // as the transport's last_rx stamps.
  const double now_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  for (const auto& row : transport_->link_metrics()) {
    if (row.m.last_rx_us == 0) continue;
    const bool interior = !tree_.children(row.peer).empty();
    if (!interior) continue;
    const auto kids = tree_.children(kCoordinatorRank);
    if (std::find(kids.begin(), kids.end(), row.peer) == kids.end()) continue;
    const double age_s = (now_us - double(row.m.last_rx_us)) / 1e6;
    if (age_s > kGrayCollectStaleS) return true;
  }
  return false;
}

DistCoordinator::Collected DistCoordinator::collect() {
  Collected out;
  Patience patience;
  std::uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collect_seq_ += 1;
    seq = collect_seq_;
    collect_entries_.clear();
  }
  const bool want_full = want_full_;
  want_full_ = false;
  const std::size_t n_ranks = cfg_.n_device_procs;
  bool direct_round = false;
  std::uint32_t misses = 0;
  while (true) {
    std::uint32_t epoch = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      epoch = epoch_;
    }
    // Re-broadcasts reuse the same seq: every rank re-ships its cached,
    // byte-identical entry, so applying the round exactly once stays easy.
    const DistCollect ask{epoch, seq, want_full, direct_round};
    if (direct_round) {
      broadcast_direct(ask);
    } else {
      broadcast(ask);
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, patience.window(),
                 [&] { return collect_entries_.size() >= n_ranks; });
    if (collect_entries_.size() < n_ranks) {
      // Same backoff as the probe waves: a gray peer whose round trip
      // exceeds the window would otherwise be re-asked forever.
      patience.missed();
      misses += 1;
      if (!direct_round && gray_aggregator(misses)) {
        // An interior aggregator looks stalled-not-dead: stop waiting on
        // relayed rollups and ask every rank to answer the root straight.
        direct_round = true;
        obs::Registry::instance().counter("coord_gray_direct_total").add(1);
      }
      continue;  // re-ask
    }
    out.epoch = epoch;
    if (store_applied_seq_ != seq) {
      for (const auto& [rank, e] : collect_entries_) store_.apply(e.deltas);
      store_applied_seq_ = seq;
    }
    for (auto& [rank, e] : collect_entries_) {
      out.violations += e.violations;
      out.metrics.merge(e.metrics);
      if (!e.trace.empty()) {
        try {
          out.traces.push_back(obs::deserialize_trace(e.trace));
        } catch (const Error&) {
          // A malformed blob loses that rank's trace, never the run.
        }
      }
      out.entries.push_back(std::move(e));  // map order: sorted by rank
    }
    collect_entries_.clear();
    break;
  }
  // The authoritative store holds every accepted round; its sorted union
  // is the whole-network digest the differential tests byte-compare.
  out.rows = store_.rows_sorted();
  // Fold in the coordinator's own side of the control links.
  for (const auto& [peer, m] : transport_->link_metrics()) {
    out.metrics.transport.merge(m);
  }
  return out;
}

void DistCoordinator::shutdown() { broadcast_direct(DistDone{}); }

}  // namespace tulkun::runtime
