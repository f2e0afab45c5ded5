// tulkun_perfbench: runs one named workload and prints its metrics.
//
//   tulkun_perfbench --workload NAME --seed N --seconds N --trace 0|1
//                    [--socket-dir DIR]
//
// Stdout carries a provenance line, one human-readable line per metric, and
// last the one-line JSON result. perfbench/run.py builds and drives it.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "eval/dist_run.hpp"
#include "perfbench.hpp"

int main(int argc, char** argv) {
  // Forked device ranks re-exec this binary; they run their role and exit.
  if (tulkun::eval::maybe_run_device_role(argc, argv)) return 0;

  perfbench::CliOptions cli;
  try {
    cli = perfbench::parse_cli(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const perfbench::UsageError& e) {
    std::fprintf(stderr,
                 "tulkun_perfbench: %s\nusage: tulkun_perfbench --workload "
                 "NAME --seed N --seconds N --trace 0|1 [--socket-dir DIR]\n",
                 e.what());
    return 2;
  }

  const std::string socket_dir =
      cli.socket_dir.empty() ? "perfbench-sock-" + std::to_string(getpid())
                             : cli.socket_dir;
  try {
    const auto w = perfbench::make_workload(cli.workload, cli.seed);
    perfbench::RunConfig cfg;
    cfg.seconds = cli.seconds;
    cfg.trace = cli.trace;
    cfg.socket_dir = socket_dir;
    const auto result = perfbench::run_workload(w, cfg);
    std::filesystem::remove_all(socket_dir);

    const auto& table = cli.trace ? perfbench::per_layer_metrics()
                                  : perfbench::end_to_end_metrics();
    const std::string line = perfbench::result_json(result, table);
    std::cout << "provenance " << result.provenance << "\n";
    std::printf("%s: %zu rounds, %zu update samples, %llu/%llu operations "
                "failed (error_rate %.6g)\n",
                cli.workload.c_str(), result.rounds, result.update_samples,
                static_cast<unsigned long long>(result.failed),
                static_cast<unsigned long long>(result.attempted),
                double(result.failed) / double(result.attempted));
    for (const auto& m : table) {
      std::printf("  %-36s %.6g %s\n", m.name.c_str(),
                  result.metrics.at(m.name), m.unit.c_str());
    }
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::error_code ec;
    std::filesystem::remove_all(socket_dir, ec);
    std::fprintf(stderr, "tulkun_perfbench: %s\n", e.what());
    return 1;
  }
}
