#include "runtime/device_host.hpp"

namespace tulkun::runtime {

namespace {

fib::Rule from_wire(const WireRule& wire, packet::PacketSpace& space) {
  fib::Rule out = wire.rule;
  if (!wire.extra_bytes.empty()) {
    out.extra_match =
        space.wrap(bdd::deserialize(space.manager(), wire.extra_bytes));
  }
  return out;
}

}  // namespace

spec::Invariant localize_invariant(const spec::Invariant& inv,
                                   packet::PacketSpace& target) {
  spec::Invariant out = inv;
  const packet::PacketSet& p = inv.packet_space;
  if (pred::atom_path_enabled() && p.atom_ref() != pred::kNoAtom) {
    // Atom-tier predicate: re-intern the interval list directly; neither
    // space builds a BDD.
    const auto ivs = p.atom_store()->intervals(p.atom_ref());
    out.packet_space = target.from_intervals({ivs.begin(), ivs.end()});
  } else {
    const auto bytes = bdd::serialize(*p.manager(), p.ref());
    out.packet_space = target.wrap(bdd::deserialize(target.manager(), bytes));
  }
  return out;
}

WireRule to_wire(const fib::Rule& rule) {
  WireRule out;
  out.rule = rule;
  if (rule.extra_match) {
    out.extra_bytes =
        bdd::serialize(*rule.extra_match->manager(), rule.extra_match->ref());
    out.rule.extra_match.reset();
  }
  return out;
}

std::vector<WireRule> to_wire(const fib::FibTable& fib) {
  std::vector<WireRule> out;
  for (const fib::Rule* r : fib.ordered()) out.push_back(to_wire(*r));
  return out;
}

DeviceHost::DeviceHost(const topo::Topology& topo,
                       const std::vector<DeviceId>& devices,
                       const dvm::EngineConfig& cfg, bool deltas)
    : cfg_(cfg), deltas_(deltas) {
  for (const DeviceId id : devices) {
    Device& d = devices_[id];
    d.space = std::make_unique<packet::PacketSpace>();
    d.verifier =
        std::make_unique<verifier::OnDeviceVerifier>(id, topo, *d.space, cfg);
    if (deltas) {
      d.channels = std::make_unique<dvm::ChannelDecoders>(d.space->manager());
    }
  }
}

void DeviceHost::install(const planner::InvariantPlan& plan) {
  for (auto& [id, d] : devices_) {
    planner::InvariantPlan local = plan;
    local.inv = localize_invariant(plan.inv, *d.space);
    d.verifier->install(local);
  }
}

void DeviceHost::initialize(DeviceId dev, std::span<const WireRule> fib,
                            const Send& send) {
  Device& d = devices_.at(dev);
  fib::FibTable local;
  for (const auto& wr : fib) local.insert(from_wire(wr, *d.space));
  finish(d, d.verifier->initialize(std::move(local)), send);
}

void DeviceHost::update(DeviceId dev, fib::FibUpdate& update,
                        const WireRule& rule, const Send& send) {
  Device& d = devices_.at(dev);
  fib::FibUpdate local = update;
  if (local.kind == fib::FibUpdate::Kind::Insert) {
    local.rule = from_wire(rule, *d.space);
  }
  auto out = d.verifier->apply_rule_update(local);
  // Only the id goes back: the rule itself now belongs to this space.
  update.rule_id = local.rule_id;
  finish(d, std::move(out), send);
}

void DeviceHost::deliver(DeviceId dev, std::span<const std::uint8_t> frame,
                         const Send& send) {
  const auto it = devices_.find(dev);
  if (it == devices_.end()) return;
  Device& d = it->second;
  std::vector<dvm::Envelope> out;
  try {
    for (const auto& env :
         dvm::decode_frame(frame, *d.space, dvm::default_decode_limits(),
                           d.channels.get())) {
      auto msgs = d.verifier->on_message(env);
      out.insert(out.end(), std::make_move_iterator(msgs.begin()),
                 std::make_move_iterator(msgs.end()));
    }
  } catch (const dvm::CodecError&) {
    counters_.transport.protocol_errors += 1;
    return;
  }
  finish(d, std::move(out), send);
}

void DeviceHost::finish(Device& d, std::vector<dvm::Envelope> out,
                        const Send& send) {
  counters_.jobs += 1;
  // Encode in the sender's space, coalescing everything bound for one
  // destination into one frame. Predicate serialization is memoized per
  // host, so an UPDATE flooded to N neighbors serializes its BDD once.
  std::map<DeviceId, std::vector<dvm::Envelope>> by_dst;
  for (auto& env : out) by_dst[env.dst].push_back(std::move(env));
  out.clear();
  for (auto& [dst, envs] : by_dst) {
    auto frame =
        dvm::encode_frame(envs, &cache_, deltas_ ? &encoders_ : nullptr);
    counters_.frames += 1;
    counters_.envelopes += envs.size();
    counters_.frame_bytes += frame.size();
    counters_.batch_size.add(static_cast<double>(envs.size()));
    send(dst, std::move(frame));
  }
  by_dst.clear();  // outgoing refs die before a collection can move them
  // Threshold-triggered mark/sweep of this device's space. Root
  // enumeration walks the whole verifier state, so it only happens when a
  // collection is due. The verifier and the channel decoders hold every
  // live ref: rules arrive in wire form and outgoing envelopes are bytes.
  bdd::Manager& mgr = d.space->manager();
  if (mgr.gc_pending(cfg_.bdd_gc_node_threshold)) {
    std::vector<bdd::NodeRef> roots;
    d.verifier->collect_refs(roots);
    if (d.channels) d.channels->collect_refs(roots);
    mgr.maybe_gc(roots, cfg_.bdd_gc_node_threshold);
  }
}

RuntimeMetrics DeviceHost::metrics() const {
  RuntimeMetrics out = counters_;
  out.transfer_cache_hits = cache_.hits();
  out.transfer_cache_misses = cache_.misses();
  out.channel_roots = encoders_.roots_encoded();
  out.channel_nodes_shipped = encoders_.nodes_shipped();
  out.channel_resets = encoders_.resets();
  for (const auto& [id, d] : devices_) {
    out.lec_delta_seconds += d.verifier->stats().lec_delta_seconds;
    const auto totals = d.verifier->engine_totals();
    out.recompute_seconds += totals.recompute_seconds;
    out.emit_seconds += totals.emit_seconds;
    out.gc_runs += d.space->manager().gc_runs();
    out.gc_reclaimed_nodes += d.space->manager().gc_reclaimed();
  }
  return out;
}

}  // namespace tulkun::runtime
