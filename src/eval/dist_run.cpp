#include "eval/dist_run.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

#include "net/inproc.hpp"
#include "xform/rewrite.hpp"

namespace tulkun::eval {

namespace {

// ---------------------------------------------------------------------------
// World spec wire format: the child process rebuilds the dataset + harness
// options from one comma-separated argv value (18 fields, in declaration
// order; dataset names never contain commas). Everything else about the
// world is derived deterministically from these.
// ---------------------------------------------------------------------------

std::string encode_world(const DatasetSpec& spec, const HarnessOptions& opts) {
  std::string out;
  const auto add = [&](const std::string& v) {
    if (!out.empty()) out += ',';
    out += v;
  };
  add(spec.name);
  add(spec.kind);
  add(std::to_string(static_cast<int>(spec.family)));
  add(std::to_string(spec.devices));
  add(std::to_string(spec.links));
  char lat[64];
  std::snprintf(lat, sizeof(lat), "%.17g", spec.max_latency);
  add(lat);
  add(std::to_string(spec.prefixes_per_device));
  add(std::to_string(spec.fattree_k));
  add(std::to_string(spec.clos_pods));
  add(std::to_string(spec.clos_spines));
  add(std::to_string(spec.clos_leaves));
  add(std::to_string(spec.clos_cores));
  add(std::to_string(spec.seed));
  add(std::to_string(spec.extra_rules));
  add(std::to_string(opts.slack));
  add(std::to_string(opts.ecmp_width));
  add(std::to_string(opts.seed));
  add(std::to_string(opts.max_destinations));
  return out;
}

void decode_world(const std::string& s, DatasetSpec& spec,
                  HarnessOptions& opts) {
  std::vector<std::string> f;
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      f.push_back(s.substr(pos));
      break;
    }
    f.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (f.size() != 18) throw Error("malformed --world spec: " + s);
  const auto u32 = [](const std::string& v) {
    return static_cast<std::uint32_t>(std::stoul(v));
  };
  spec.name = f[0];
  spec.kind = f[1];
  spec.family = static_cast<Family>(std::stoi(f[2]));
  spec.devices = u32(f[3]);
  spec.links = u32(f[4]);
  spec.max_latency = std::strtod(f[5].c_str(), nullptr);
  spec.prefixes_per_device = u32(f[6]);
  spec.fattree_k = u32(f[7]);
  spec.clos_pods = u32(f[8]);
  spec.clos_spines = u32(f[9]);
  spec.clos_leaves = u32(f[10]);
  spec.clos_cores = u32(f[11]);
  spec.seed = std::stoull(f[12]);
  spec.extra_rules = u32(f[13]);
  opts.slack = u32(f[14]);
  opts.ecmp_width = u32(f[15]);
  opts.seed = std::stoull(f[16]);
  opts.max_destinations = std::stoull(f[17]);
}

// Runs start + all phases + collect on `coord`, leaving shutdown to the
// caller (the forking launcher must flip its supervisor into don't-respawn
// mode between collect and shutdown).
DistRunResult drive(runtime::DistCoordinator& coord, std::size_t n_updates,
                    const DistOptions::PhaseHooks& hooks = {},
                    bool collect_every_phase = false) {
  DistRunResult res;
  coord.start();
  const auto t0 = std::chrono::steady_clock::now();
  const auto burst = coord.run_phase();
  res.burst_wall_seconds = burst.wall_seconds;
  if (hooks.on_phase) hooks.on_phase(0, burst);
  if (collect_every_phase) (void)coord.collect();
  for (std::size_t i = 0; i < n_updates; ++i) {
    if (i < hooks.phase_at_s.size() && hooks.phase_at_s[i] > 0.0) {
      // Pace arrivals to the generator's timeline (soak mode): an update
      // may not enter the network before its scheduled instant.
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(hooks.phase_at_s[i])));
    }
    const auto p = coord.run_phase();
    res.incremental_wall_seconds.add(p.wall_seconds);
    if (hooks.on_phase) hooks.on_phase(i + 1, p);
    // Steady-state collect cadence (scaling benches): a rollup round after
    // every phase exercises the delta path; the final collect below still
    // produces the digest the caller sees.
    if (collect_every_phase && i + 1 < n_updates) (void)coord.collect();
  }
  auto col = coord.collect();
  res.violations = col.violations;
  res.rows = std::move(col.rows);
  res.metrics = std::move(col.metrics);
  res.resets = col.epoch;  // one epoch bump per reset survived
  res.entries = std::move(col.entries);
  res.traces = std::move(col.traces);
  if (obs::trace_enabled()) {
    // The coordinator's own spans (dist.phase roots, net events) live in
    // this process's recorder; drain them so the merged timeline has the
    // parent side of every cross-rank arrow.
    res.traces.push_back(obs::drain_snapshot());
  }
  return res;
}

[[nodiscard]] runtime::DistCoordinator::Config coordinator_config(
    std::size_t n_device_procs, std::size_t fanout = 0,
    runtime::RecoveryMode recovery = runtime::RecoveryMode::Legacy) {
  runtime::DistCoordinator::Config cfg;
  cfg.n_device_procs = n_device_procs;
  cfg.fanout = fanout;
  cfg.recovery = recovery;
  return cfg;
}

DistRunResult dist_run_inproc(const DatasetSpec& spec,
                              const HarnessOptions& opts,
                              const DistOptions& dist) {
  if (!dist.kills.empty()) {
    throw Error("kill schedules require process isolation (uds|tcp)");
  }
  if (dist.collect_trace) obs::set_trace_enabled(true);
  obs::set_default_rank(runtime::kCoordinatorRank);
  Harness harness(spec, opts);
  const std::size_t P = dist.device_procs;
  const bool chaos_on = dist.chaos.enabled();
  auto hub = std::make_shared<net::InProcHub>();
  auto builder = harness.world_builder(
      dist.n_updates, dist.churn ? &*dist.churn : nullptr);

  std::vector<std::unique_ptr<net::InProcTransport>> transports;
  std::vector<std::unique_ptr<scenario::ChaosTransport>> chaos;
  std::vector<std::unique_ptr<runtime::DeviceProcess>> procs;
  for (std::size_t r = 1; r <= P; ++r) {
    transports.push_back(std::make_unique<net::InProcTransport>(
        hub, static_cast<net::PeerId>(r)));
    net::Transport* wire = transports.back().get();
    if (chaos_on) {
      chaos.push_back(
          std::make_unique<scenario::ChaosTransport>(*wire, dist.chaos));
      wire = chaos.back().get();
    }
    runtime::DeviceProcess::Config dcfg;
    dcfg.rank = static_cast<net::PeerId>(r);
    dcfg.n_device_procs = P;
    dcfg.engine = opts.engine;
    dcfg.fanout = dist.fanout;
    dcfg.recovery = dist.recovery;
    dcfg.anchor_every = dist.anchor_every;
    procs.push_back(std::make_unique<runtime::DeviceProcess>(
        *wire, harness.topology(), builder, dcfg));
  }
  std::vector<std::thread> threads;
  threads.reserve(P);
  for (std::size_t i = 0; i < P; ++i) {
    threads.emplace_back([&, i] {
      procs[i]->run();
      if (chaos_on) {
        chaos[i]->stop();  // forwards to the inner transport
      } else {
        transports[i]->stop();
      }
    });
  }

  net::InProcTransport coord_inner(hub, runtime::kCoordinatorRank);
  std::unique_ptr<scenario::ChaosTransport> coord_chaos;
  net::Transport* coord_wire = &coord_inner;
  if (chaos_on) {
    coord_chaos =
        std::make_unique<scenario::ChaosTransport>(coord_inner, dist.chaos);
    coord_wire = coord_chaos.get();
  }
  runtime::DistCoordinator coord(
      *coord_wire, coordinator_config(P, dist.fanout, dist.recovery));
  auto res = drive(coord, dist.n_updates, dist.hooks, dist.collect_every_phase);
  coord.shutdown();
  for (auto& t : threads) t.join();
  if (coord_chaos) {
    coord_chaos->stop();
  } else {
    coord_inner.stop();
  }
  return res;
}

// ---------------------------------------------------------------------------
// Forking launcher: children are fork+exec of our own binary (argv carries
// the --tulkun-device-proc marker handled by maybe_run_device_role), so the
// child never inherits this process's threads, sockets or BDD state.
// ---------------------------------------------------------------------------

struct ChildArgs {
  net::PeerId rank = 1;
  std::size_t n_device_procs = 1;
  net::TransportKind kind = net::TransportKind::Unix;
  std::string dir;
  std::uint16_t base_port = 0;
  std::size_t n_updates = 0;
  std::uint32_t kill_at_phase = runtime::DeviceProcess::kNoKillPhase;
  std::size_t fanout = 0;
  runtime::RecoveryMode recovery = runtime::RecoveryMode::Legacy;
  std::uint32_t anchor_every = 1;
  std::string world;
  std::string chaos;  // scenario::format_chaos_arg, empty = no chaos
  std::string churn;  // scenario::format_churn_arg, empty = legacy stream
};

pid_t spawn_child(const ChildArgs& a, std::uint32_t incarnation) {
  std::vector<std::string> args = {
      "/proc/self/exe",
      "--tulkun-device-proc",
      "--rank=" + std::to_string(a.rank),
      "--procs=" + std::to_string(a.n_device_procs),
      "--incarnation=" + std::to_string(incarnation),
      "--transport=" + std::string(net::transport_kind_name(a.kind)),
      "--dir=" + a.dir,
      "--base-port=" + std::to_string(a.base_port),
      "--updates=" + std::to_string(a.n_updates),
      "--kill-phase=" + std::to_string(a.kill_at_phase),
      "--fanout=" + std::to_string(a.fanout),
      "--recovery=" + std::string(runtime::recovery_mode_name(a.recovery)),
      "--anchor=" + std::to_string(a.anchor_every),
      "--trace=" + std::string(obs::trace_enabled() ? "1" : "0"),
      "--world=" + a.world,
  };
  // The world string is comma-separated and frozen at 18 fields; scenario
  // profiles ride separate ';'-separated flags instead of extending it.
  if (!a.chaos.empty()) args.push_back("--chaos=" + a.chaos);
  if (!a.churn.empty()) args.push_back("--churn=" + a.churn);
  // The xform kill switch is process-global; mirror it into every child so
  // rank worlds match the coordinator's byte-for-byte.
  if (!xform::xform_enabled()) args.push_back("--xform=0");
  const pid_t pid = fork();
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (auto& s : args) argv.push_back(s.data());
    argv.push_back(nullptr);
    execv("/proc/self/exe", argv.data());
    _exit(127);  // exec failed; the supervisor will give up after the cap
  }
  if (pid < 0) throw Error("fork failed for device process");
  return pid;
}

}  // namespace

DistRunResult dist_run(const DatasetSpec& spec, const HarnessOptions& opts,
                       const DistOptions& dist) {
  if (dist.kind == net::TransportKind::Inproc) {
    return dist_run_inproc(spec, opts, dist);
  }
  if (dist.collect_trace) obs::set_trace_enabled(true);
  obs::set_default_rank(runtime::kCoordinatorRank);
  const std::size_t P = dist.device_procs;
  std::string dir = dist.socket_dir;
  bool made_dir = false;
  if (dist.kind == net::TransportKind::Unix && dir.empty()) {
    char tmpl[] = "/tmp/tulkun-dist-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) throw Error("mkdtemp failed");
    dir = tmpl;
    made_dir = true;
  }
  std::uint16_t base_port = dist.base_port;
  if (dist.kind == net::TransportKind::Tcp && base_port == 0) {
    // Keep concurrent test binaries off each other's ports.
    base_port = static_cast<std::uint16_t>(41000 + getpid() % 20000);
  }
  const auto endpoints = net::local_endpoints(dist.kind, dir, P + 1, base_port);

  ChildArgs base;
  base.n_device_procs = P;
  base.kind = dist.kind;
  base.dir = dir;
  base.base_port = base_port;
  base.n_updates = dist.n_updates;
  base.fanout = dist.fanout;
  base.recovery = dist.recovery;
  base.anchor_every = dist.anchor_every;
  base.world = encode_world(spec, opts);
  if (dist.chaos.enabled()) {
    base.chaos = scenario::format_chaos_arg(dist.chaos);
  }
  if (dist.churn) base.churn = scenario::format_churn_arg(*dist.churn);

  // Supervisor state: pid -> rank of every live child; a child that dies
  // while the run is active is re-forked with a bumped incarnation (the
  // coordinator notices the new Hello and replays). The respawn cap stops
  // fork storms if a child crashes deterministically.
  constexpr std::uint32_t kMaxRespawns = 16;
  std::mutex mu;
  std::map<pid_t, net::PeerId> live;
  std::map<net::PeerId, std::uint32_t> incarnation;
  std::atomic<bool> shutting{false};

  const auto kill_phase_of = [&](net::PeerId rank) {
    std::uint32_t phase = runtime::DeviceProcess::kNoKillPhase;
    for (const auto& k : dist.kills) {
      if (k.rank == rank) phase = std::min(phase, k.phase);
    }
    return phase;
  };
  const auto spawn_rank = [&](net::PeerId rank, std::uint32_t inc) {
    ChildArgs a = base;
    a.rank = rank;
    a.kill_at_phase = kill_phase_of(rank);
    live[spawn_child(a, inc)] = rank;
  };
  {
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t r = 1; r <= P; ++r) {
      spawn_rank(static_cast<net::PeerId>(r), 0);
    }
  }

  std::thread supervisor([&] {
    while (true) {
      int status = 0;
      const pid_t pid = waitpid(-1, &status, 0);
      if (pid < 0) break;  // ECHILD: everything reaped
      std::lock_guard<std::mutex> lock(mu);
      const auto it = live.find(pid);
      if (it == live.end()) continue;
      const net::PeerId rank = it->second;
      live.erase(it);
      if (shutting.load()) {
        if (live.empty()) break;
        continue;
      }
      const std::uint32_t inc = ++incarnation[rank];
      if (inc > kMaxRespawns) continue;  // give up; the run will time out
      spawn_rank(rank, inc);
    }
  });

  DistRunResult res;
  std::exception_ptr failure;
  try {
    net::SocketTransport coord_transport(
        net::mesh_config(runtime::kCoordinatorRank, endpoints));
    std::unique_ptr<scenario::ChaosTransport> coord_chaos;
    net::Transport* coord_wire = &coord_transport;
    if (dist.chaos.enabled()) {
      coord_chaos = std::make_unique<scenario::ChaosTransport>(coord_transport,
                                                               dist.chaos);
      coord_wire = coord_chaos.get();
    }
    runtime::DistCoordinator coord(
        *coord_wire, coordinator_config(P, dist.fanout, dist.recovery));
    res = drive(coord, dist.n_updates, dist.hooks, dist.collect_every_phase);
    shutting.store(true);
    coord.shutdown();
    coord_wire->stop();
  } catch (...) {
    failure = std::current_exception();
    shutting.store(true);
  }

  // Give children a grace period to exit on Done, then force the issue so
  // the supervisor (blocked in waitpid) can drain and finish.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (live.empty()) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        for (const auto& [pid, rank] : live) kill(pid, SIGKILL);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  supervisor.join();

  if (dist.kind == net::TransportKind::Unix) {
    for (const auto& ep : endpoints) unlink(ep.address.c_str());
    if (made_dir) rmdir(dir.c_str());
  }
  if (failure) std::rethrow_exception(failure);
  return res;
}

DistRunResult dist_run_coordinator(const DatasetSpec& spec,
                                   const HarnessOptions& opts,
                                   std::size_t n_updates,
                                   const std::vector<net::Endpoint>& endpoints,
                                   std::size_t fanout,
                                   runtime::RecoveryMode recovery) {
  (void)spec;
  (void)opts;
  if (endpoints.size() < 2) throw Error("need >= 1 device endpoint");
  const std::size_t P = endpoints.size() - 1;
  net::SocketTransport transport(
      net::mesh_config(runtime::kCoordinatorRank, endpoints));
  runtime::DistCoordinator coord(transport,
                                 coordinator_config(P, fanout, recovery));
  auto res = drive(coord, n_updates);
  coord.shutdown();
  transport.stop();
  return res;
}

void dist_run_device(const DatasetSpec& spec, const HarnessOptions& opts,
                     std::size_t n_updates,
                     const std::vector<net::Endpoint>& endpoints,
                     net::PeerId rank, std::uint32_t incarnation,
                     std::uint32_t kill_at_phase,
                     const scenario::ChaosProfile& chaos,
                     const scenario::ChurnProfile* churn, std::size_t fanout,
                     runtime::RecoveryMode recovery,
                     std::uint32_t anchor_every) {
  if (rank == runtime::kCoordinatorRank || rank >= endpoints.size()) {
    throw Error("device rank out of range");
  }
  obs::set_default_rank(rank);
  Harness harness(spec, opts);
  net::SocketTransport transport(net::mesh_config(rank, endpoints));
  std::unique_ptr<scenario::ChaosTransport> chaos_wrap;
  net::Transport* wire = &transport;
  if (chaos.enabled()) {
    chaos_wrap = std::make_unique<scenario::ChaosTransport>(transport, chaos);
    wire = chaos_wrap.get();
  }
  runtime::DeviceProcess::Config dcfg;
  dcfg.rank = rank;
  dcfg.n_device_procs = endpoints.size() - 1;
  dcfg.engine = opts.engine;
  dcfg.incarnation = incarnation;
  dcfg.kill_at_phase = kill_at_phase;
  dcfg.fanout = fanout;
  dcfg.recovery = recovery;
  dcfg.anchor_every = anchor_every;
  runtime::DeviceProcess proc(*wire, harness.topology(),
                              harness.world_builder(n_updates, churn), dcfg);
  proc.run();
  wire->stop();
}

bool maybe_run_device_role(int argc, char** argv) {
  bool marked = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tulkun-device-proc") == 0) marked = true;
  }
  if (!marked) return false;

  const auto value = [&](const char* prefix) -> std::string {
    const std::size_t n = std::strlen(prefix);
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
    }
    throw Error(std::string("device process missing flag ") + prefix);
  };
  const auto value_or = [&](const char* prefix,
                            const std::string& dflt) -> std::string {
    const std::size_t n = std::strlen(prefix);
    for (int i = 1; i < argc; ++i) {
      if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
    }
    return dflt;
  };

  // The launcher may have SIGINT/SIGTERM blocked (dist_cli masks them for a
  // sigwait flush thread) and sigmasks survive execv; restore the default
  // disposition so a Ctrl-C on the process group still kills the children.
  sigset_t unblock;
  sigemptyset(&unblock);
  sigaddset(&unblock, SIGINT);
  sigaddset(&unblock, SIGTERM);
  pthread_sigmask(SIG_UNBLOCK, &unblock, nullptr);

  try {
    const auto rank = static_cast<net::PeerId>(std::stoul(value("--rank=")));
    const std::size_t procs = std::stoull(value("--procs="));
    const auto inc =
        static_cast<std::uint32_t>(std::stoul(value("--incarnation=")));
    const auto kind = net::parse_transport_kind(value("--transport="));
    const std::string dir = value("--dir=");
    const auto base_port =
        static_cast<std::uint16_t>(std::stoul(value("--base-port=")));
    const std::size_t updates = std::stoull(value("--updates="));
    const auto kill_phase =
        static_cast<std::uint32_t>(std::stoul(value("--kill-phase=")));
    if (value_or("--trace=", "0") == "1") obs::set_trace_enabled(true);
    if (value_or("--xform=", "1") == "0") xform::set_xform_enabled(false);
    DatasetSpec spec;
    HarnessOptions opts;
    decode_world(value("--world="), spec, opts);
    scenario::ChaosProfile chaos;
    const std::string chaos_arg = value_or("--chaos=", "");
    if (!chaos_arg.empty()) chaos = scenario::parse_chaos_arg(chaos_arg);
    std::optional<scenario::ChurnProfile> churn;
    const std::string churn_arg = value_or("--churn=", "");
    if (!churn_arg.empty()) churn = scenario::parse_churn_arg(churn_arg);
    const std::size_t fanout = std::stoull(value_or("--fanout=", "0"));
    const auto recovery =
        runtime::parse_recovery_mode(value_or("--recovery=", "legacy"));
    const auto anchor =
        static_cast<std::uint32_t>(std::stoul(value_or("--anchor=", "1")));
    const auto endpoints =
        net::local_endpoints(kind, dir, procs + 1, base_port);
    dist_run_device(spec, opts, updates, endpoints, rank, inc, kill_phase,
                    chaos, churn ? &*churn : nullptr, fanout, recovery,
                    anchor);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tulkun device process: %s\n", e.what());
    std::fflush(stderr);
    _exit(1);
  }
  return true;
}

}  // namespace tulkun::eval
