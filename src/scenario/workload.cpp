#include "scenario/workload.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace tulkun::scenario {

eval::UpdatePlan TimedPlan::untimed() const {
  eval::UpdatePlan plan;
  plan.steps.reserve(steps.size());
  for (const auto& s : steps) {
    eval::UpdatePlan::Step step;
    step.update = s.update;
    step.erase_of = s.erase_of;
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

ChurnGenerator::ChurnGenerator(const topo::Topology& topo,
                               ChurnProfile profile)
    : topo_(&topo), p_(profile), rng_(profile.seed) {
  dests_ = topo.all_prefix_attachments();
  // Decouple Zipf popularity rank from attachment order so "hot" prefixes
  // scatter across the topology deterministically per seed.
  for (std::size_t i = dests_.size(); i > 1; --i) {
    std::swap(dests_[i - 1], dests_[rng_.index(i)]);
  }
  zipf_cdf_.reserve(dests_.size());
  double total = 0.0;
  for (std::size_t i = 0; i < dests_.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), p_.zipf_s);
    zipf_cdf_.push_back(total);
  }
  for (auto& c : zipf_cdf_) c /= total;
}

std::size_t ChurnGenerator::zipf_index() {
  const double u = rng_.real();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return std::min<std::size_t>(
      static_cast<std::size_t>(it - zipf_cdf_.begin()),
      dests_.size() - 1);
}

TimedStep ChurnGenerator::make_insert(double at_s) {
  TimedStep step;
  step.at_s = at_s;
  const auto& [dst, prefix] = dests_[zipf_index()];
  DeviceId dev = dst;
  while (dev == dst) {
    dev = static_cast<DeviceId>(rng_.index(topo_->device_count()));
  }
  const std::size_t i = steps_total_;
  if (p_.drop_fraction > 0.0 && rng_.chance(p_.drop_fraction)) {
    fib::Rule r;
    r.priority = 150 + static_cast<std::int32_t>(i % 10);
    r.dst_prefix = prefix;
    r.action = fib::Action::drop();
    step.update = fib::FibUpdate::insert(dev, std::move(r));
    return step;
  }
  packet::Ipv4Prefix announced = prefix;
  std::int32_t base_priority = 100;
  if (announced.len < 32 && rng_.chance(p_.growth_fraction)) {
    // Table growth: announce a more-specific child of the attachment
    // prefix (a longer match the FIB must carry alongside the parent).
    const auto extra = static_cast<std::uint8_t>(
        1 + rng_.index(std::min<std::size_t>(4, 32u - announced.len)));
    const auto new_len = static_cast<std::uint8_t>(announced.len + extra);
    const std::uint32_t child_bits = static_cast<std::uint32_t>(
        rng_.uniform(0, (1ull << extra) - 1));
    announced = packet::Ipv4Prefix(
        announced.addr | (child_bits << (32u - new_len)), new_len);
    base_priority = 120;
  }
  // Benign reroute toward dst (same bias as the legacy stream): prefer a
  // neighbor that still makes progress; occasionally any neighbor, which
  // may create a detour or loop the verifier must flag.
  const auto dist = topo_->hop_distances_to(dst);
  const auto& neighbors = topo_->neighbors(dev);
  std::vector<DeviceId> good;
  for (const auto& adj : neighbors) {
    if (dist[adj.neighbor] != topo::Topology::kUnreachable &&
        dist[adj.neighbor] < dist[dev]) {
      good.push_back(adj.neighbor);
    }
  }
  DeviceId hop;
  if (!good.empty() && !rng_.chance(0.05)) {
    hop = good[rng_.index(good.size())];
  } else {
    hop = neighbors[rng_.index(neighbors.size())].neighbor;
  }
  fib::Rule r;
  r.priority = base_priority + static_cast<std::int32_t>(i % 10);
  r.dst_prefix = announced;

  // ACL slice: constrain the source and squeeze the port range so the LEC
  // predicate is genuinely multi-field (dst hull unchanged, box tighter).
  // Guarded so a zero fraction consumes no draw — default streams stay
  // bit-identical to pre-xform builds.
  if (p_.acl_fraction > 0.0 && rng_.chance(p_.acl_fraction)) {
    r.src_match =
        packet::Ipv4Prefix(static_cast<std::uint32_t>(rng_.index(256)) << 24,
                           8);
    r.dport_lo = static_cast<std::uint16_t>(rng_.index(60000));
    r.dport_hi = static_cast<std::uint16_t>(r.dport_lo + 1023);
    r.priority += 20;  // ACL refinements shadow the plain route
  }

  bool shaped = false;
  if (p_.xform_fraction > 0.0 && p_.xform_profile != 0) {
    shaped = rng_.chance(p_.xform_fraction);
  }
  std::optional<fib::Rewrite> rw;
  if (shaped) {
    switch (p_.xform_profile) {
      case 1: {
        // NAT edge: shift the destination by a prefix-aligned delta, so
        // the translation is a bijection mapping prefixes to prefixes.
        const std::uint32_t width =
            announced.len == 0 ? 24u : 32u - announced.len;
        const std::uint32_t delta =
            (1u << width) * static_cast<std::uint32_t>(1 + rng_.index(7));
        rw = fib::Rewrite::shift(packet::Field::DstIp, delta);
        break;
      }
      case 2:
        // Tunnel core: alternate encapsulation toward the destination's
        // endpoint address with decapsulation back into the announced
        // prefix (pairing id = destination device).
        if (rng_.chance(0.5)) {
          rw = fib::Rewrite::encap(prefix.addr,
                                   static_cast<std::uint32_t>(dst));
        } else {
          rw = fib::Rewrite::decap(announced,
                                   static_cast<std::uint32_t>(dst));
        }
        break;
      default:
        break;  // 3 (ECMP spray) shapes the next-hop group instead
    }
  }
  if (shaped && p_.xform_profile == 3 && good.size() > 1) {
    r.action = fib::Action::forward_any(good, std::move(rw));
  } else {
    r.action = fib::Action::forward(hop, std::move(rw));
  }
  step.update = fib::FibUpdate::insert(dev, std::move(r));
  return step;
}

void ChurnGenerator::emit_batch() {
  double rate = p_.rate_hz;
  if (rate > 0.0 && p_.burst_factor > 1.0 && rng_.chance(p_.burst_fraction)) {
    rate *= p_.burst_factor;
  }
  if (rate > 0.0) now_s_ += -std::log1p(-rng_.real()) / rate;

  const std::size_t remaining = p_.events - emitted_;
  const bool withdraw =
      !open_inserts_.empty() && rng_.chance(p_.flap_fraction);
  if (withdraw) {
    std::size_t batch = 1;
    if (p_.withdraw_batch_max > 1 && rng_.chance(p_.withdraw_batch_chance)) {
      batch = 1 + rng_.index(p_.withdraw_batch_max);
    }
    batch = std::min({batch, open_inserts_.size(), remaining});
    for (std::size_t k = 0; k < batch; ++k) {
      const std::size_t pick = rng_.index(open_inserts_.size());
      TimedStep step;
      step.at_s = now_s_;  // batch withdrawals land at one instant
      step.erase_of = open_inserts_[pick].first;
      step.update.kind = fib::FibUpdate::Kind::Erase;
      step.update.device = open_inserts_[pick].second;
      open_inserts_.erase(open_inserts_.begin() +
                          static_cast<std::ptrdiff_t>(pick));
      pending_.push_back(std::move(step));
      ++steps_total_;
      ++emitted_;
    }
    return;
  }
  TimedStep step = make_insert(now_s_);
  open_inserts_.emplace_back(static_cast<std::int32_t>(steps_total_),
                             step.update.device);
  pending_.push_back(std::move(step));
  ++steps_total_;
  ++emitted_;
}

std::optional<TimedStep> ChurnGenerator::next() {
  if (pending_at_ >= pending_.size()) {
    pending_.clear();
    pending_at_ = 0;
    if (emitted_ >= p_.events || dests_.empty() ||
        topo_->device_count() < 2) {
      return std::nullopt;
    }
    emit_batch();
    if (pending_at_ >= pending_.size()) return std::nullopt;
  }
  return pending_[pending_at_++];
}

TimedPlan ChurnGenerator::all() {
  TimedPlan plan;
  while (auto step = next()) plan.steps.push_back(std::move(*step));
  return plan;
}

TimedPlan generate(const topo::Topology& topo, const ChurnProfile& profile) {
  return ChurnGenerator(topo, profile).all();
}

eval::UpdatePlan legacy_plan(const topo::Topology& topo, std::size_t count,
                             std::uint64_t seed, double drop_fraction) {
  Rng rng(seed);
  eval::UpdatePlan plan;

  // Destinations that exist in the data plane.
  std::vector<std::pair<DeviceId, packet::Ipv4Prefix>> dests =
      topo.all_prefix_attachments();
  if (dests.empty() || topo.device_count() < 2) return plan;

  std::vector<std::int32_t> open_inserts;  // step indices not yet erased
  for (std::size_t i = 0; i < count; ++i) {
    const bool do_erase = !open_inserts.empty() && rng.chance(0.5);
    eval::UpdatePlan::Step step;
    if (do_erase) {
      const std::size_t pick = rng.index(open_inserts.size());
      step.erase_of = open_inserts[pick];
      open_inserts.erase(open_inserts.begin() +
                         static_cast<std::ptrdiff_t>(pick));
      step.update.kind = fib::FibUpdate::Kind::Erase;
      step.update.device =
          plan.steps[static_cast<std::size_t>(step.erase_of)].update.device;
    } else {
      const auto& [dst, prefix] = dests[rng.index(dests.size())];
      DeviceId dev = dst;
      while (dev == dst) {
        dev = static_cast<DeviceId>(rng.index(topo.device_count()));
      }
      // Guarded so drop_fraction == 0 consumes no draw: the default stream
      // stays bit-identical to the one published benches recorded.
      if (drop_fraction > 0.0 && rng.chance(drop_fraction)) {
        // Drop-class step: blackhole the prefix at this device. Dropped
        // prefixes scatter across destinations, so the Drop equivalence
        // class hulls out to /0 (see eval/workload.hpp).
        fib::Rule r;
        r.priority = 150 + static_cast<std::int32_t>(i % 10);
        r.dst_prefix = prefix;
        r.action = fib::Action::drop();
        step.update = fib::FibUpdate::insert(dev, std::move(r));
        open_inserts.push_back(static_cast<std::int32_t>(plan.steps.size()));
        plan.steps.push_back(std::move(step));
        continue;
      }
      const auto dist = topo.hop_distances_to(dst);
      // Prefer a neighbor that still makes progress toward the
      // destination (benign reroute); occasionally pick any neighbor,
      // which may create a detour or loop the verifier must flag.
      const auto& neighbors = topo.neighbors(dev);
      std::vector<DeviceId> good;
      for (const auto& adj : neighbors) {
        if (dist[adj.neighbor] != topo::Topology::kUnreachable &&
            dist[adj.neighbor] < dist[dev]) {
          good.push_back(adj.neighbor);
        }
      }
      DeviceId hop;
      if (!good.empty() && !rng.chance(0.05)) {
        hop = good[rng.index(good.size())];
      } else {
        hop = neighbors[rng.index(neighbors.size())].neighbor;
      }
      fib::Rule r;
      r.priority = 100 + static_cast<std::int32_t>(i % 10);
      r.dst_prefix = prefix;
      r.action = fib::Action::forward(hop);
      step.update = fib::FibUpdate::insert(dev, std::move(r));
      open_inserts.push_back(static_cast<std::int32_t>(plan.steps.size()));
    }
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

fib::FibUpdate StepCursor::resolve(const fib::FibUpdate& update,
                                   std::int32_t erase_of) {
  if (pending_) throw Error("StepCursor::resolve before recording last step");
  fib::FibUpdate u = update;
  if (erase_of >= 0) {
    const auto idx = static_cast<std::size_t>(erase_of);
    if (idx >= ids_.size()) throw Error("StepCursor: erase_of out of range");
    u.rule_id = ids_[idx];
  }
  pending_ = true;
  return u;
}

void StepCursor::record(std::uint64_t rule_id) {
  if (!pending_) throw Error("StepCursor::record without resolve");
  ids_.push_back(rule_id);
  pending_ = false;
}

}  // namespace tulkun::scenario
