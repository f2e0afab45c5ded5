// ChurnGenerator determinism and shape: the distributed differential
// oracle is only sound if the stream is a pure function of
// (topology, profile), so these tests pin that contract down.
#include "scenario/workload.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/error.hpp"
#include "topo/generators.hpp"

namespace tulkun::scenario {
namespace {

std::string step_key(const TimedStep& s) {
  std::ostringstream os;
  os.precision(17);
  os << s.at_s << '|' << s.update.device << '|'
     << (s.update.kind == fib::FibUpdate::Kind::Insert ? 'I' : 'E') << '|'
     << s.update.rule.priority << '|' << s.update.rule.dst_prefix.to_string()
     << '|' << s.update.rule.action.to_string() << '|' << s.erase_of;
  return os.str();
}

std::vector<std::string> plan_keys(const TimedPlan& p) {
  std::vector<std::string> keys;
  keys.reserve(p.steps.size());
  for (const auto& s : p.steps) keys.push_back(step_key(s));
  return keys;
}

TEST(ChurnGenerator, DeterministicAcrossInstances) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile p;
  p.seed = 7;
  p.events = 120;
  const auto a = generate(topo, p);
  const auto b = generate(topo, p);
  EXPECT_EQ(plan_keys(a), plan_keys(b));
  ASSERT_FALSE(a.steps.empty());
}

TEST(ChurnGenerator, StreamingMatchesMaterialized) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile p;
  p.seed = 11;
  p.events = 80;
  ChurnGenerator gen(topo, p);
  TimedPlan streamed;
  while (auto s = gen.next()) streamed.steps.push_back(std::move(*s));
  EXPECT_EQ(plan_keys(streamed), plan_keys(generate(topo, p)));
}

TEST(ChurnGenerator, EmitsExactlyProfileEvents) {
  const auto topo = topo::fat_tree(4);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 99ull}) {
    ChurnProfile p;
    p.seed = seed;
    p.events = 64;
    // Batch withdrawals count each erased step as one event, so the plan
    // length equals the event budget exactly (what the soak paces on).
    EXPECT_EQ(generate(topo, p).steps.size(), p.events);
  }
}

TEST(ChurnGenerator, SeedChangesStream) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile a;
  a.events = 60;
  a.seed = 1;
  ChurnProfile b = a;
  b.seed = 2;
  EXPECT_NE(plan_keys(generate(topo, a)), plan_keys(generate(topo, b)));
}

TEST(ChurnGenerator, TimestampsNondecreasingAndBatchesShareInstant) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile p;
  p.seed = 5;
  p.events = 200;
  p.flap_fraction = 0.9;
  p.withdraw_batch_chance = 1.0;
  p.withdraw_batch_max = 4;
  const auto plan = generate(topo, p);
  ASSERT_EQ(plan.steps.size(), p.events);
  bool saw_batch_instant = false;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(plan.steps[i].at_s, plan.steps[i - 1].at_s) << "step " << i;
      if (plan.steps[i].erase_of >= 0 && plan.steps[i - 1].erase_of >= 0 &&
          plan.steps[i].at_s == plan.steps[i - 1].at_s) {
        saw_batch_instant = true;
      }
    }
  }
  // With every withdrawal batched, some batch of >= 2 erases must land at
  // one instant.
  EXPECT_TRUE(saw_batch_instant);
}

TEST(ChurnGenerator, EraseReferencesAreValidAndUnique) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile p;
  p.seed = 13;
  p.events = 150;
  const auto plan = generate(topo, p);
  std::map<std::int32_t, std::size_t> erased_by;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const auto& s = plan.steps[i];
    if (s.erase_of < 0) {
      EXPECT_EQ(s.update.kind, fib::FibUpdate::Kind::Insert);
      continue;
    }
    EXPECT_EQ(s.update.kind, fib::FibUpdate::Kind::Erase);
    ASSERT_LT(static_cast<std::size_t>(s.erase_of), i);
    const auto& target = plan.steps[static_cast<std::size_t>(s.erase_of)];
    EXPECT_EQ(target.update.kind, fib::FibUpdate::Kind::Insert);
    EXPECT_EQ(target.update.device, s.update.device);
    EXPECT_TRUE(erased_by.emplace(s.erase_of, i).second)
        << "insert " << s.erase_of << " erased twice";
  }
}

TEST(ChurnGenerator, ZipfSkewsDestinationPopularity) {
  const auto topo = topo::fat_tree(4);  // 8 attachment prefixes
  ChurnProfile p;
  p.seed = 21;
  p.events = 400;
  p.flap_fraction = 0.0;    // inserts only
  p.growth_fraction = 0.0;  // announce the attachment prefix itself
  const auto count_top = [&](double zipf_s) {
    ChurnProfile q = p;
    q.zipf_s = zipf_s;
    std::map<std::string, std::size_t> hits;
    for (const auto& s : generate(topo, q).steps) {
      ++hits[s.update.rule.dst_prefix.to_string()];
    }
    std::size_t top = 0;
    for (const auto& [prefix, n] : hits) top = std::max(top, n);
    return top;
  };
  // s = 3 concentrates most events on the hottest prefix; s = 0 is uniform
  // over the 8 prefixes (expected share 1/8).
  EXPECT_GT(count_top(3.0), p.events / 3);
  EXPECT_LT(count_top(0.0), p.events / 3);
}

TEST(ChurnGenerator, UntimedPreservesEveryStep) {
  const auto topo = topo::fat_tree(4);
  ChurnProfile p;
  p.seed = 3;
  p.events = 40;
  const auto timed = generate(topo, p);
  const auto flat = timed.untimed();
  ASSERT_EQ(flat.steps.size(), timed.steps.size());
  for (std::size_t i = 0; i < flat.steps.size(); ++i) {
    EXPECT_EQ(flat.steps[i].erase_of, timed.steps[i].erase_of);
    EXPECT_EQ(flat.steps[i].update.device, timed.steps[i].update.device);
  }
}

TEST(StepCursor, ResolvesEraseToRecordedId) {
  StepCursor cur;
  fib::FibUpdate ins = fib::FibUpdate::insert(0, fib::Rule{});
  (void)cur.resolve(ins, -1);
  cur.record(42);
  fib::FibUpdate era = fib::FibUpdate::erase(0, 0);
  const auto resolved = cur.resolve(era, 0);
  EXPECT_EQ(resolved.rule_id, 42u);
}

TEST(StepCursor, MisuseThrows) {
  StepCursor cur;
  fib::FibUpdate u = fib::FibUpdate::insert(0, fib::Rule{});
  EXPECT_THROW(cur.record(1), Error);  // record without resolve
  (void)cur.resolve(u, -1);
  EXPECT_THROW((void)cur.resolve(u, -1), Error);  // resolve before record
  cur.record(1);
  EXPECT_THROW((void)cur.resolve(u, 5), Error);  // erase_of out of range
}

}  // namespace
}  // namespace tulkun::scenario
