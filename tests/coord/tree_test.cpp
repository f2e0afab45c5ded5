// Coordinator-tree shape invariants: the heap layout, the star as the
// fanout >= P tree, and live-ancestor fallback for snapshot serving.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "coord/tree.hpp"

namespace tulkun::coord {
namespace {

TEST(TreeTest, StarWhenFanoutZeroOrTooLarge) {
  // The star is not a mode: fanout 0, fanout P and any larger fanout are
  // the same one-level tree, rank for rank.
  for (const std::size_t P : {1u, 2u, 6u}) {
    const Tree zero(P, 0);
    const std::vector<std::uint32_t> down = {1, static_cast<std::uint32_t>(P)};
    for (const Tree& t : {Tree(P, P), Tree(P, P + 3)}) {
      EXPECT_EQ(t.depth(), zero.depth());
      for (net::PeerId r = 0; r <= P; ++r) {
        EXPECT_EQ(t.parent(r), zero.parent(r)) << "P=" << P << " r=" << r;
        EXPECT_EQ(t.children(r), zero.children(r)) << "P=" << P << " r=" << r;
        EXPECT_EQ(t.subtree(r), zero.subtree(r)) << "P=" << P << " r=" << r;
        EXPECT_EQ(t.subtree_size(r), zero.subtree_size(r));
        EXPECT_EQ(t.live_ancestor(r, {}), zero.live_ancestor(r, {}));
        EXPECT_EQ(t.live_ancestor(r, down), zero.live_ancestor(r, down));
      }
    }
    // ...and that shape is the flat star.
    EXPECT_EQ(zero.depth(), 1u);
    ASSERT_EQ(zero.children(0).size(), P);
    for (net::PeerId r = 1; r <= P; ++r) {
      EXPECT_EQ(zero.parent(r), 0u);
      EXPECT_TRUE(zero.children(r).empty());
      EXPECT_EQ(zero.level(r), 1u);
      EXPECT_EQ(zero.subtree_size(r), 1u);
      EXPECT_EQ(zero.live_ancestor(r, down), 0u);
    }
    EXPECT_EQ(zero.subtree_size(0), P);
  }
}

TEST(TreeTest, ParentChildrenAgreeAcrossShapes) {
  for (const std::size_t P : {1u, 2u, 5u, 6u, 7u, 16u, 63u}) {
    for (const std::size_t F : {0u, 2u, 3u, 4u}) {
      const Tree t(P, F);
      std::set<net::PeerId> seen;
      for (net::PeerId r = 0; r <= P; ++r) {
        for (const net::PeerId c : t.children(r)) {
          EXPECT_EQ(t.parent(c), r) << "P=" << P << " F=" << F;
          EXPECT_TRUE(seen.insert(c).second) << "rank " << c << " reachable "
                                             << "from two parents";
        }
      }
      // Every device rank is somebody's child exactly once.
      EXPECT_EQ(seen.size(), P);
      EXPECT_EQ(seen.count(0), 0u);
    }
  }
}

TEST(TreeTest, SubtreesPartitionTheRanks) {
  const Tree t(13, 3);
  // The root's children's subtrees partition 1..13.
  std::set<net::PeerId> all;
  std::size_t total = 0;
  for (const net::PeerId c : t.children(0)) {
    const auto sub = t.subtree(c);
    EXPECT_EQ(sub.size(), t.subtree_size(c));
    EXPECT_TRUE(std::is_sorted(sub.begin(), sub.end()));
    EXPECT_NE(std::find(sub.begin(), sub.end(), c), sub.end());
    for (const net::PeerId r : sub) EXPECT_TRUE(all.insert(r).second);
    total += sub.size();
  }
  EXPECT_EQ(total, 13u);
  EXPECT_EQ(t.subtree_size(0), 13u);
}

TEST(TreeTest, ThreeLevelFanoutTwo) {
  // P=6, F=2: the shape the differential tests drive.
  const Tree t(6, 2);
  EXPECT_EQ(t.children(0), (std::vector<net::PeerId>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<net::PeerId>{3, 4}));
  EXPECT_EQ(t.children(2), (std::vector<net::PeerId>{5, 6}));
  EXPECT_TRUE(t.children(3).empty());
  EXPECT_EQ(t.level(0), 0u);
  EXPECT_EQ(t.level(2), 1u);
  EXPECT_EQ(t.level(6), 2u);
  EXPECT_EQ(t.depth(), 2u);
  EXPECT_EQ(t.subtree_size(1), 3u);
  EXPECT_EQ(t.subtree(2), (std::vector<net::PeerId>{2, 5, 6}));
}

TEST(TreeTest, LiveAncestorSkipsDeadAggregators) {
  const Tree t(6, 2);
  // Leaf 5's parent is 2; with 2 down the snapshot server is the root.
  EXPECT_EQ(t.live_ancestor(5, {}), 2u);
  EXPECT_EQ(t.live_ancestor(5, {2}), 0u);
  // A reborn rank is never its own ancestor.
  EXPECT_EQ(t.live_ancestor(2, {2}), 0u);
  // The root is always live.
  EXPECT_EQ(t.live_ancestor(1, {1, 2, 3, 4, 5, 6}), 0u);
  // Star: everybody's ancestor is the root.
  const Tree star(6, 0);
  EXPECT_EQ(star.live_ancestor(4, {1, 2, 3}), 0u);
}

}  // namespace
}  // namespace tulkun::coord
