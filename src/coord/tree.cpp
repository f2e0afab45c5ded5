#include "coord/tree.hpp"

#include <algorithm>

namespace tulkun::coord {

std::vector<net::PeerId> Tree::subtree(net::PeerId r) const {
  std::vector<net::PeerId> out;
  std::vector<net::PeerId> stack = {r};
  while (!stack.empty()) {
    const net::PeerId cur = stack.back();
    stack.pop_back();
    if (cur != 0) out.push_back(cur);
    for (const net::PeerId c : children(cur)) stack.push_back(c);
  }
  std::sort(out.begin(), out.end());  // the root itself is never listed
  return out;
}

std::size_t Tree::subtree_size(net::PeerId r) const {
  if (r == 0) return ranks_;
  return subtree(r).size();
}

net::PeerId Tree::live_ancestor(
    net::PeerId r, const std::vector<std::uint32_t>& down) const {
  net::PeerId cur = parent(r);
  while (cur != 0 &&
         std::find(down.begin(), down.end(), cur) != down.end()) {
    cur = parent(cur);
  }
  return cur;
}

}  // namespace tulkun::coord
