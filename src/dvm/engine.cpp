#include "dvm/engine.hpp"

#include <algorithm>
#include <chrono>

#include "fib/fib_table.hpp"
#include "obs/trace.hpp"

namespace tulkun::dvm {

namespace {

/// For Exist atoms the declared comparator; Subset counts as (exist >= 1).
spec::CountExpr effective_count_expr(const spec::Behavior& atom) {
  if (atom.op == spec::MatchOpKind::Exist) return atom.count;
  return spec::CountExpr{spec::CountExpr::Cmp::Ge, 1};
}

/// merge_by_counts over a LocStore's live rows.
std::vector<CountEntry> merged_counts(const LocStore& loc) {
  CountMerger merger;
  loc.for_each([&](const LocEntry& e) { merger.add(e.pred, e.counts); });
  return merger.take();
}

}  // namespace

DeviceEngine::DeviceEngine(DeviceId dev, const dpvnet::DpvNet& dag,
                           const spec::Invariant& inv, InvariantId inv_id,
                           packet::PacketSpace& space, EngineConfig cfg)
    : dev_(dev),
      dag_(&dag),
      inv_(&inv),
      inv_id_(inv_id),
      space_(&space),
      cfg_(cfg) {
  atoms_ = inv.behavior.atoms();
  arity_ = atoms_.size();
  TULKUN_ASSERT(arity_ == dag.arity());
  counting_mode_ = atoms_.front()->op != spec::MatchOpKind::Equal;

  for (const NodeId id : dag.nodes_of_device(dev)) {
    NodeState ns;
    ns.id = id;
    ns.scope = inv.packet_space;
    // Planner-granted scope: when the path into this node rewrites
    // packets, verify the transformed image up front instead of waiting
    // for the upstream device's SUBSCRIBE to request it.
    const dpvnet::DpvNode& dn = dag.node(id);
    if (xform::xform_enabled() && !dn.pre_xform.identity()) {
      ns.scope |= dn.pre_xform.apply(space, inv.packet_space);
    }
    ns.out_cover = space.none();
    node_index_.emplace(id, nodes_.size());
    nodes_.push_back(std::move(ns));
  }
  for (const auto& [ingress, src] : dag.sources()) {
    if (ingress == dev_) is_source_device_ = true;
  }
}

count::CountVec DeviceEngine::accept_indicator(
    const dpvnet::DpvNode& node) const {
  count::CountVec v(arity_, 0);
  for (std::size_t a = 0; a < arity_; ++a) {
    if (node.accepts(a, scene_)) v[a] = 1;
  }
  return v;
}

std::vector<const dpvnet::DpvEdge*> DeviceEngine::live_children(
    const dpvnet::DpvNode& node) const {
  std::vector<const dpvnet::DpvEdge*> out;
  for (const auto& e : node.down) {
    if (e.scenes.test(scene_)) out.push_back(&e);
  }
  return out;
}

std::vector<LocEntry> DeviceEngine::compute_region(
    NodeState& ns, const packet::PacketSet& region,
    std::vector<Envelope>& out) {
  std::vector<LocEntry> result;
  if (region.empty()) return result;

  const dpvnet::DpvNode& node = dag_->node(ns.id);
  const auto children = live_children(node);
  const count::CountVec indicator = accept_indicator(node);
  const bool accepting = std::any_of(indicator.begin(), indicator.end(),
                                     [](std::uint32_t c) { return c > 0; });

  for (const auto& [pred, action] : lec_.partition(region)) {
    // Pure destination in this scene: Algorithm 1 lines 2-3 count one
    // delivered copy per accepted atom regardless of the local FIB action.
    if (children.empty()) {
      result.push_back(LocEntry{
          pred, pred, action,
          count::CountSet::singleton(indicator)});
      continue;
    }

    // "Delivered here" contribution: acceptance materializes only when the
    // device hands the packet to an external port.
    const bool delivers_ext = action.forwards_to(fib::kExternalPort);
    count::CountVec here(arity_, 0);
    if (accepting && delivers_ext) here = indicator;

    // Downstream scope, through the rewrite when present.
    const packet::PacketSet down_scope =
        action.rewrite ? fib::rewrite_image(*space_, pred, *action.rewrite)
                       : pred;

    // Children whose device is in the next-hop group.
    std::vector<const dpvnet::DpvEdge*> relevant;
    for (const auto* e : children) {
      if (action.forwards_to(dag_->node(e->to).dev)) relevant.push_back(e);
    }

    // SUBSCRIBE propagation: a rewrite makes this node consume counts for
    // a predicate the child may not be reporting yet.
    if (action.rewrite) {
      for (const auto* e : relevant) {
        auto [it, inserted] =
            ns.sub_sent.try_emplace(e->to, space_->none());
        packet::PacketSet covered = inv_->packet_space | it->second;
        // The child pre-seeded its scope with its planner-composed path
        // transform; anything inside that seed needs no subscription.
        const dpvnet::DpvNode& child = dag_->node(e->to);
        if (xform::xform_enabled() && !child.pre_xform.identity()) {
          covered |= child.pre_xform.apply(*space_, inv_->packet_space);
        }
        const packet::PacketSet missing = down_scope - covered;
        if (!missing.empty()) {
          it->second |= missing;
          SubscribeMessage sub;
          sub.invariant = inv_id_;
          sub.up_node = ns.id;
          sub.down_node = e->to;
          sub.original = pred;
          sub.rewritten = missing;
          sub.rewrite = *action.rewrite;
          out.push_back(Envelope{dev_, dag_->node(e->to).dev, sub});
          ++stats_.subscribes_sent;
        }
      }
    }

    if (action.type == fib::ActionType::Drop ||
        (relevant.empty() && action.type == fib::ActionType::All)) {
      // No DPVNet-relevant forwarding: only the local delivery counts.
      result.push_back(LocEntry{pred, down_scope, action,
                                count::CountSet::singleton(here)});
      continue;
    }

    // Common refinement of down_scope across relevant children, tracking
    // each child's counts per piece.
    struct Piece {
      packet::PacketSet pred;
      std::vector<count::CountSet> child_counts;  // parallel to `relevant`
    };
    std::vector<Piece> pieces{{down_scope, {}}};
    for (const auto* e : relevant) {
      const CibIn& cib = ns.cib_in[e->to];
      std::vector<Piece> next;
      for (auto& piece : pieces) {
        for (auto& part : cib.lookup(piece.pred, arity_)) {
          Piece np;
          np.pred = part.pred;
          np.child_counts = piece.child_counts;
          np.child_counts.push_back(std::move(part.counts));
          next.push_back(std::move(np));
        }
      }
      pieces = std::move(next);
    }

    const count::CountSet base = count::CountSet::singleton(here);
    for (auto& piece : pieces) {
      count::CountSet counts;
      if (action.type == fib::ActionType::All) {
        // Equation (1): cross-product sum over every forwarded branch.
        counts = base;
        for (const auto& cc : piece.child_counts) {
          counts = counts.cross_sum(cc);
        }
      } else {
        // Equation (2): union over the possible single choices; a choice
        // outside the DPVNet (δ = 1) or a drop-at-non-dest contributes 0.
        bool has_outside_choice = false;
        for (const DeviceId hop : action.next_hops) {
          if (hop == fib::kExternalPort) continue;  // handled below
          const bool in_dag = std::any_of(
              relevant.begin(), relevant.end(), [&](const dpvnet::DpvEdge* e) {
                return dag_->node(e->to).dev == hop;
              });
          if (!in_dag) has_outside_choice = true;
        }
        for (std::size_t i = 0; i < relevant.size(); ++i) {
          counts = counts.unite(piece.child_counts[i]);
        }
        if (delivers_ext) {
          counts = counts.unite(count::CountSet::singleton(
              accepting ? indicator : count::CountVec(arity_, 0)));
        }
        if (has_outside_choice) {
          counts = counts.unite(count::CountSet::zeros(arity_));
        }
        if (counts.empty()) {
          counts = count::CountSet::zeros(arity_);
        }
      }

      // Pull the piece back through the rewrite into the original space.
      const packet::PacketSet final_pred =
          action.rewrite
              ? (pred &
                 fib::rewrite_preimage(*space_, piece.pred, *action.rewrite))
              : piece.pred;
      if (!final_pred.empty()) {
        result.push_back(LocEntry{final_pred, piece.pred, action,
                                  std::move(counts)});
      }
    }
  }
  stats_.entries_recomputed += result.size();
  return result;
}

void DeviceEngine::recompute(NodeState& ns, const packet::PacketSet& region,
                             std::vector<Envelope>& out) {
  const packet::PacketSet scoped = region & ns.scope;
  if (scoped.empty()) return;
  TLK_SPAN_ARG("device.recompute", ns.id);
  const auto t0 = std::chrono::steady_clock::now();
  // Drop rows covering the region (only rows overlapping it are touched),
  // re-derive them, keep the rest.
  ns.loc.subtract(scoped);
  auto fresh = compute_region(ns, scoped, out);
  for (auto& e : fresh) ns.loc.insert(std::move(e));
  stats_.recompute_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  emit_updates(ns, out);
}

void DeviceEngine::emit_updates(NodeState& ns, std::vector<Envelope>& out) {
  const dpvnet::DpvNode& node = dag_->node(ns.id);
  if (node.up.empty()) return;  // nothing upstream to inform
  TLK_SPAN_ARG("device.emit", ns.id);
  const auto t0 = std::chrono::steady_clock::now();
  const auto done = [&] {
    stats_.emit_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  };

  CountMerger merger;
  ns.loc.for_each([&](const LocEntry& e) { merger.add(e.pred, e.counts); });
  std::vector<CountEntry> out_new = merger.take();
  if (cfg_.minimize_counting_info && arity_ == 1) {
    const spec::CountExpr ce = effective_count_expr(*atoms_.front());
    // Re-merge: minimization may have made counts equal.
    for (const auto& e : out_new) merger.add(e.pred, e.counts.minimized(ce));
    out_new = merger.take();
  }

  // Changed region: pieces where old and new counts differ, plus coverage
  // differences. The old×new product is hull-pruned: an old entry whose
  // hull is disjoint from a new entry's cannot intersect it, so the diff
  // cost is bounded by the entries around the changed region, not the
  // table size.
  packet::PacketSet changed = space_->none();
  packet::PacketSet new_cover = space_->none();
  for (const auto& n : out_new) {
    new_cover |= n.pred;
    ns.out_sent.for_candidates(n.pred, [&](const CountEntry& o) {
      if (o.counts != n.counts) {
        const auto inter = o.pred & n.pred;
        if (!inter.empty()) changed |= inter;
      }
      return true;
    });
  }
  changed |= new_cover - ns.out_cover;
  changed |= ns.out_cover - new_cover;
  if (changed.empty()) {
    done();
    return;
  }

  UpdateMessage base;
  base.invariant = inv_id_;
  base.down_node = ns.id;
  base.withdrawn.push_back(changed);
  for (const auto& e : out_new) {
    const auto inter = e.pred & changed;
    if (!inter.empty()) base.results.push_back(CountEntry{inter, e.counts});
  }

  for (const NodeId up : node.up) {
    UpdateMessage msg = base;
    msg.up_node = up;
    out.push_back(Envelope{dev_, dag_->node(up).dev, std::move(msg)});
    ++stats_.updates_sent;
  }
  ns.out_sent.clear();
  for (auto& e : out_new) ns.out_sent.insert(std::move(e));
  ns.out_cover = std::move(new_cover);
  done();
}

std::vector<Envelope> DeviceEngine::set_lec(fib::LecTable lec) {
  lec_ = std::move(lec);
  std::vector<Envelope> out;
  if (counting_mode_) {
    for (auto& ns : nodes_) {
      recompute(ns, ns.scope, out);
    }
  }
  refresh_verdicts();
  return out;
}

std::vector<Envelope> DeviceEngine::on_lec_deltas(
    const std::vector<fib::LecDelta>& deltas, fib::LecTable lec) {
  lec_ = std::move(lec);
  std::vector<Envelope> out;
  if (deltas.empty()) return out;
  packet::PacketSet region = space_->none();
  for (const auto& d : deltas) region |= d.pred;
  if (counting_mode_) {
    for (auto& ns : nodes_) {
      recompute(ns, region, out);
    }
  }
  refresh_verdicts();
  return out;
}

std::vector<Envelope> DeviceEngine::on_update(const UpdateMessage& msg) {
  std::vector<Envelope> out;
  const auto it = node_index_.find(msg.up_node);
  if (it == node_index_.end()) return out;  // stale/misrouted: ignore
  ++stats_.updates_received;
  NodeState& ns = nodes_[it->second];
  CibIn& cib = ns.cib_in[msg.down_node];
  cib.apply(msg.withdrawn, msg.results);

  if (!counting_mode_) return out;

  // Affected LocCIB rows: those whose downstream predicate (causality)
  // meets the updated region.
  packet::PacketSet updated = space_->none();
  for (const auto& w : msg.withdrawn) updated |= w;
  for (const auto& r : msg.results) updated |= r.pred;

  const packet::PacketSet region =
      ns.loc.affected_region(updated, space_->none());
  recompute(ns, region, out);
  refresh_verdicts();
  return out;
}

std::vector<Envelope> DeviceEngine::on_subscribe(const SubscribeMessage& msg) {
  std::vector<Envelope> out;
  const auto it = node_index_.find(msg.down_node);
  if (it == node_index_.end()) return out;
  NodeState& ns = nodes_[it->second];
  const packet::PacketSet extra = msg.rewritten - ns.scope;
  if (extra.empty()) return out;
  ns.scope |= extra;
  recompute(ns, extra, out);
  return out;
}

std::vector<Envelope> DeviceEngine::on_scene_change(std::size_t scene) {
  std::vector<Envelope> out;
  if (scene == scene_) return out;
  scene_ = scene;
  if (counting_mode_) {
    for (auto& ns : nodes_) {
      recompute(ns, ns.scope, out);
    }
  }
  refresh_verdicts();
  return out;
}

void DeviceEngine::check_local_contracts() {
  // §4.2 equal-operator local verification (and the "only along DPVNet"
  // half for subset). Runs entirely from local state: no messages.
  const bool availability = atoms_.front()->op == spec::MatchOpKind::Equal;

  // Allowed forwarding targets at device granularity: any downstream
  // device of any hosted node, plus external delivery.
  std::vector<DeviceId> allowed;
  for (const auto& ns : nodes_) {
    for (const auto* e : live_children(dag_->node(ns.id))) {
      allowed.push_back(dag_->node(e->to).dev);
    }
  }
  std::sort(allowed.begin(), allowed.end());
  allowed.erase(std::unique(allowed.begin(), allowed.end()), allowed.end());

  for (const auto& ns : nodes_) {
    const dpvnet::DpvNode& node = dag_->node(ns.id);
    const auto children = live_children(node);
    if (!node.scenes.test(scene_)) continue;

    for (const auto& [pred, action] : lec_.partition(inv_->packet_space)) {
      if (availability) {
        for (const auto* e : children) {
          const DeviceId cd = dag_->node(e->to).dev;
          if (!action.forwards_to(cd)) {
            violations_.push_back(Violation{
                inv_id_, dev_, ns.id, pred, {},
                "local contract: missing forwarding to " +
                    dag_->topology().name(cd) + " required by node " +
                    dag_->label(ns.id)});
          }
        }
      }
      // Only-check: forwarding outside the DPVNet breaks equal/subset.
      for (const DeviceId hop : action.next_hops) {
        if (hop == fib::kExternalPort) continue;
        if (!std::binary_search(allowed.begin(), allowed.end(), hop)) {
          violations_.push_back(Violation{
              inv_id_, dev_, ns.id, pred, {},
              "local contract: forwards outside DPVNet to " +
                  dag_->topology().name(hop)});
        }
      }
    }
  }
}

void DeviceEngine::refresh_verdicts() {
  violations_.clear();

  if (!counting_mode_ || atoms_.front()->op == spec::MatchOpKind::Subset) {
    check_local_contracts();
  }
  if (!counting_mode_) return;

  for (const auto& [ingress, src] : dag_->sources()) {
    if (ingress == dev_ && src == kNoNode) {
      // No valid path exists at all for this ingress: every universe
      // delivers zero copies. Statically violated unless zero satisfies
      // the behavior (e.g. isolation).
      const count::CountSet zeros = count::CountSet::zeros(arity_);
      if (!zeros.all_satisfy(inv_->behavior, atoms_)) {
        violations_.push_back(Violation{
            inv_id_, dev_, kNoNode, inv_->packet_space, zeros,
            "no valid path from ingress " + dag_->topology().name(ingress) +
                " matches the invariant's path expression"});
      }
      continue;
    }
    if (src == kNoNode || dag_->node(src).dev != dev_) continue;
    const auto it = node_index_.find(src);
    if (it == node_index_.end()) continue;
    const NodeState& ns = nodes_[it->second];
    for (const auto& e : merged_counts(ns.loc)) {
      const auto scoped = e.pred & inv_->packet_space;
      if (scoped.empty() || e.counts.empty()) continue;
      if (!e.counts.all_satisfy(inv_->behavior, atoms_)) {
        violations_.push_back(Violation{
            inv_id_, dev_, src, scoped, e.counts,
            "behavior violated at ingress " +
                dag_->topology().name(ingress) + ": counts " +
                e.counts.to_string()});
      }
    }
  }
}

std::vector<DeviceEngine::NodeSnapshot> DeviceEngine::node_snapshots() const {
  std::vector<NodeSnapshot> out;
  out.reserve(nodes_.size());
  for (const auto& ns : nodes_) {
    NodeSnapshot snap;
    snap.id = ns.id;
    snap.loc = ns.loc.snapshot();
    snap.out_sent = ns.out_sent.snapshot();
    for (const auto& [down, cib] : ns.cib_in) {
      snap.cib_in.emplace(down, cib.entries());
    }
    out.push_back(std::move(snap));
  }
  return out;
}

std::vector<std::pair<DeviceId, std::vector<CountEntry>>>
DeviceEngine::source_results() const {
  std::vector<std::pair<DeviceId, std::vector<CountEntry>>> out;
  for (const auto& [ingress, src] : dag_->sources()) {
    if (src == kNoNode || dag_->node(src).dev != dev_) continue;
    const auto it = node_index_.find(src);
    if (it == node_index_.end()) continue;
    const NodeState& ns = nodes_[it->second];
    auto merged = merged_counts(ns.loc);
    for (auto& e : merged) e.pred &= inv_->packet_space;
    std::erase_if(merged,
                  [](const CountEntry& e) { return e.pred.empty(); });
    out.emplace_back(ingress, std::move(merged));
  }
  return out;
}

void DeviceEngine::collect_refs(std::vector<bdd::NodeRef>& out) const {
  lec_.collect_refs(out);
  for (const auto& ns : nodes_) {
    for (const auto& [down, cib] : ns.cib_in) cib.collect_refs(out);
    ns.loc.collect_refs(out);
    ns.out_sent.for_each([&](const CountEntry& e) {
      out.push_back(e.pred.ref_if_materialized());
    });
    out.push_back(ns.out_cover.ref_if_materialized());
    out.push_back(ns.scope.ref_if_materialized());
    for (const auto& [child, sub] : ns.sub_sent) {
      out.push_back(sub.ref_if_materialized());
    }
  }
  for (const auto& v : violations_) {
    out.push_back(v.pred.ref_if_materialized());
  }
}

}  // namespace tulkun::dvm
