#include "eval/workload.hpp"

#include <algorithm>

#include "core/rng.hpp"

namespace tulkun::eval {

std::vector<spec::FaultScene> sample_fault_scenes(const topo::Topology& topo,
                                                  std::size_t count,
                                                  std::uint32_t max_links,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<LinkId> links;
  for (DeviceId d = 0; d < topo.device_count(); ++d) {
    for (const auto& adj : topo.neighbors(d)) {
      if (adj.neighbor > d) links.push_back(LinkId{d, adj.neighbor});
    }
  }

  std::vector<spec::FaultScene> out;
  for (std::size_t i = 0; i < count && !links.empty(); ++i) {
    // Paper §9.3.4: scene sizes follow Microsoft WAN failure statistics —
    // single-link failures dominate.
    const double roll = rng.real();
    std::uint32_t size = roll < 0.70 ? 1 : (roll < 0.92 ? 2 : 3);
    size = std::min(size, max_links);
    std::vector<LinkId> failed;
    while (failed.size() < size) {
      const LinkId l = links[rng.index(links.size())];
      if (std::find(failed.begin(), failed.end(), l) == failed.end()) {
        failed.push_back(l);
      }
    }
    auto scene = spec::FaultScene::of(std::move(failed));
    if (std::find(out.begin(), out.end(), scene) == out.end()) {
      out.push_back(std::move(scene));
    }
  }
  return out;
}

std::vector<spec::FaultScene> with_subsets(
    const std::vector<spec::FaultScene>& scenes) {
  std::vector<spec::FaultScene> out;
  const auto add_unique = [&](spec::FaultScene s) {
    if (std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(std::move(s));
    }
  };
  for (const auto& scene : scenes) {
    const auto n = scene.failed.size();
    for (std::size_t mask = 1; mask < (1ULL << n); ++mask) {
      std::vector<LinkId> subset;
      for (std::size_t b = 0; b < n; ++b) {
        if (mask & (1ULL << b)) subset.push_back(scene.failed[b]);
      }
      add_unique(spec::FaultScene::of(std::move(subset)));
    }
  }
  return out;
}

}  // namespace tulkun::eval
