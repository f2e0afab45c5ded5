// Tests of the benchmark itself: CLI parsing, the percentile rule, failure
// accounting (including an injected digest mismatch), the result line, and
// a tiny-size smoke of every workload in both the untraced and the traced
// table. Build and run:
//
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eval/dist_run.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

std::vector<std::string> args(std::initializer_list<const char*> a) {
  return {a.begin(), a.end()};
}

TEST(ParseCli, AcceptsBothFlagForms) {
  const auto o = parse_cli(args({"--workload", "dc-uds-burst", "--seed=17",
                                 "--seconds", "10", "--trace=1"}));
  EXPECT_EQ(o.workload, "dc-uds-burst");
  EXPECT_EQ(o.seed, 17u);
  EXPECT_EQ(o.seconds, 10u);
  EXPECT_TRUE(o.trace);
  EXPECT_TRUE(o.socket_dir.empty());
}

TEST(ParseCli, RejectsHostileInput) {
  const auto bad = [](std::initializer_list<const char*> a) {
    EXPECT_THROW((void)parse_cli(args(a)), UsageError);
  };
  const char* w = "wan-uds-churn";
  bad({"--workload", w, "--seed", "1", "--seconds", "10"});  // no --trace
  bad({"--workload", w, "--seed", "1x", "--seconds", "10", "--trace", "0"});
  bad({"--workload", w, "--seed", "-1", "--seconds", "10", "--trace", "0"});
  bad({"--workload", w, "--seed", "99999999999999999999", "--seconds", "10",
       "--trace", "0"});
  bad({"--workload", w, "--seed", "1", "--seconds", "0", "--trace", "0"});
  bad({"--workload", w, "--seed", "1", "--seconds", "", "--trace", "0"});
  bad({"--workload", w, "--seed", "1", "--seconds", "10", "--trace", "2"});
  bad({"--workload", "nope", "--seed", "1", "--seconds", "10", "--trace",
       "0"});
  bad({"--workload", w, "--seed", "1", "--seconds", "10", "--trace", "0",
       "--verbose"});
  bad({"--workload", w, "--seed", "1", "--seed", "2", "--seconds", "10",
       "--trace", "0"});
  bad({"--workload", w, "--seed", "1", "--seconds", "10", "--trace"});
}

TEST(TailQuantile, NeedsTenSamplesBeyondThePercentile) {
  std::vector<double> v;
  for (int i = 0; i < 999; ++i) v.push_back(i);
  EXPECT_FALSE(tail_quantile(v, 0.99).has_value());
  v.push_back(999);
  const auto p99 = tail_quantile(v, 0.99);
  ASSERT_TRUE(p99.has_value());
  EXPECT_NEAR(*p99, 989.01, 1e-9);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(tail_quantile(small, 0.5).has_value());
  small.push_back(3.0);
  EXPECT_NEAR(*tail_quantile(small, 0.5), 1.0, 1e-12);
  EXPECT_FALSE(tail_quantile({}, 0.5).has_value());
}

TEST(FailedOps, DigestMismatchFailsEveryOperation) {
  EXPECT_EQ(failed_ops(101, 0, true), 0u);
  EXPECT_EQ(failed_ops(101, 3, true), 3u);
  EXPECT_EQ(failed_ops(101, 500, true), 101u);
  EXPECT_EQ(failed_ops(101, 0, false), 101u);
}

TEST(ResultJson, PrintsEveryMetricWithItsUnitOrThrows) {
  RunResult r;
  r.correct = true;
  r.attempted = 5;
  for (const auto& m : end_to_end_metrics()) r.metrics[m.name] = 0.25;
  const auto line = result_json(r, end_to_end_metrics());
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 5, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  EXPECT_NE(line.find("\"update_p99_s\": {\"value\": 0.25, \"unit\": \"s\"}"),
            std::string::npos);
  r.metrics.erase("burst_s");
  EXPECT_THROW((void)result_json(r, end_to_end_metrics()), tulkun::Error);
}

TEST(BenchmarkJson, DeclaresEveryMetricAndWorkload) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *table) {
      EXPECT_NE(json.find("\"name\": \"" + m.name + "\", \"unit\": \"" +
                          m.unit + "\""),
                std::string::npos)
          << m.name;
    }
  }
  for (const auto& w : workload_names()) {
    EXPECT_NE(json.find("\"name\": \"" + w + "\""), std::string::npos) << w;
  }
}

class Smoke : public ::testing::TestWithParam<std::string> {
 protected:
  static RunConfig config(bool trace) {
    RunConfig cfg;
    cfg.seconds = 1.0;
    cfg.trace = trace;
    cfg.socket_dir = "perfbench-test-sock-" + std::to_string(getpid());
    return cfg;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(config(false).socket_dir, ec);
  }
};

TEST_P(Smoke, TinyRunPrintsEveryMetricWithItsUnit) {
  const auto w = make_workload(GetParam(), 7, /*tiny=*/true);
  for (const bool trace : {false, true}) {
    const auto r = run_workload(w, config(trace));
    EXPECT_TRUE(r.correct) << GetParam() << " trace=" << trace;
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.attempted, 0u);
    const auto& table = trace ? per_layer_metrics() : end_to_end_metrics();
    const auto line = result_json(r, table);
    for (const auto& m : table) {
      const auto at = line.find("\"" + m.name + "\": {\"value\": ");
      ASSERT_NE(at, std::string::npos) << m.name;
      EXPECT_EQ(line.find("\"unit\": \"" + m.unit + "\"}", at),
                line.find("\"unit\"", at))
          << m.name;
      EXPECT_TRUE(std::isfinite(r.metrics.at(m.name))) << m.name;
    }
    if (!trace) {
      EXPECT_GE(r.update_samples, 1000u);
      EXPECT_GT(r.metrics.at("update_p99_s"), 0.0);
      EXPECT_GE(r.metrics.at("update_p99_s"), r.metrics.at("update_p50_s"));
      continue;
    }
    // The three coordination intervals add up to the traced phase time.
    EXPECT_NEAR(r.metrics.at("coord.begin_fanout_s") +
                    r.metrics.at("coord.device_work_s") +
                    r.metrics.at("coord.detect_s"),
                r.metrics.at("coord.phase_s"), 1e-9);
    EXPECT_EQ(r.metrics.at("coord.probe_waves_per_update") > 0.0,
              w.vehicle == Vehicle::DistUds);
    EXPECT_EQ(r.metrics.at("obs.trace_dropped_records"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string s = info.param;
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST(ErrorRate, InjectedDigestMismatchFailsTheWholeRound) {
  auto w = make_workload("wan-xl-sharded-mixed", 7, /*tiny=*/true);
  RunConfig cfg;
  cfg.seconds = 0.0;
  cfg.inject_mismatch_round = 0;
  const auto r = run_workload(w, cfg);
  EXPECT_FALSE(r.correct);
  // Round 0's burst plus every one of its updates.
  EXPECT_EQ(r.failed, 1 + w.updates_per_round);
  EXPECT_EQ(r.attempted, r.rounds * (1 + w.updates_per_round));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The distributed smoke forks this binary as its device ranks.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
