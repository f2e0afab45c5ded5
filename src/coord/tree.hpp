// Coordinator-tree topology over process ranks.
//
// The flat DistCoordinator funnels every verdict, digest and probe ack
// through rank 0; at fat-tree scale that single process is the bottleneck
// long before the verifiers are. The coordination fabric instead overlays
// a fanout-F heap-shaped tree on the ranks: rank 0 is the root, and the
// children of rank r are ranks r*F+1 .. r*F+F (clipped to the rank count).
// Interior device ranks double as aggregators: they merge their subtree's
// probe acks and verdict rollups and forward one message to their parent,
// so the root's inbound control traffic is O(F) per wave instead of O(P).
//
// The flat star is not a separate mode: it is the tree whose fanout is at
// least the rank count (every device rank is a direct child of the root
// and nothing aggregates), and fanout 0 asks for exactly that shape.
// Data frames are unaffected either way — DVM traffic stays direct
// rank-to-rank; the tree carries coordination only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/transport.hpp"

namespace tulkun::coord {

class Tree {
 public:
  /// `device_ranks` = P (ranks 1..P exist; rank 0 is the root). Fanout 0
  /// and any fanout >= P both mean fanout P: the one-level star.
  Tree() = default;
  Tree(std::size_t device_ranks, std::size_t fanout)
      : ranks_(device_ranks),
        fanout_(std::max<std::size_t>(
            1, fanout == 0 ? device_ranks : std::min(fanout, device_ranks))) {}

  [[nodiscard]] std::size_t device_ranks() const { return ranks_; }

  /// Parent of a device rank (rank 0 for the root's direct children).
  [[nodiscard]] net::PeerId parent(net::PeerId r) const {
    if (r == 0) return 0;
    return static_cast<net::PeerId>((r - 1) / fanout_);
  }

  /// Direct children of `r` (device ranks only, ascending).
  [[nodiscard]] std::vector<net::PeerId> children(net::PeerId r) const {
    std::vector<net::PeerId> out;
    for (std::size_t i = 1; i <= fanout_; ++i) {
      const std::size_t c = static_cast<std::size_t>(r) * fanout_ + i;
      if (c > ranks_) break;
      out.push_back(static_cast<net::PeerId>(c));
    }
    return out;
  }

  /// Distance from the root (root = 0, its children = 1, ...).
  [[nodiscard]] std::uint32_t level(net::PeerId r) const {
    std::uint32_t l = 0;
    while (r != 0) {
      r = parent(r);
      ++l;
    }
    return l;
  }

  /// Max level over all ranks (a star of any size has depth 1; depth > 1
  /// means some device rank aggregates a subtree).
  [[nodiscard]] std::uint32_t depth() const {
    if (ranks_ == 0) return 0;
    return level(static_cast<net::PeerId>(ranks_));
  }

  /// Ranks of the subtree rooted at `r`, including `r` itself (ascending).
  [[nodiscard]] std::vector<net::PeerId> subtree(net::PeerId r) const;

  /// Device ranks covered by the subtree at `r` (for r == 0: all P).
  [[nodiscard]] std::size_t subtree_size(net::PeerId r) const;

  /// The nearest ancestor of `r` that is not in `down` (always terminates
  /// at the root). This is who serves a reborn rank's digest snapshot: a
  /// dead aggregator's own mirror died with it, so its children fall back
  /// to the grandparent (ultimately the root's authoritative store).
  [[nodiscard]] net::PeerId live_ancestor(
      net::PeerId r, const std::vector<std::uint32_t>& down) const;

 private:
  std::size_t ranks_ = 0;
  std::size_t fanout_ = 1;
};

}  // namespace tulkun::coord
