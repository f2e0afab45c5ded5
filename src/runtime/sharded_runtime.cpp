#include "runtime/sharded_runtime.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace tulkun::runtime {

ShardedRuntime::ShardedRuntime(const topo::Topology& topo,
                               dvm::EngineConfig cfg)
    : topo_(&topo) {
  std::size_t n_shards = cfg.runtime_shards;
  if (n_shards == 0) {
    n_shards = std::max(1u, std::thread::hardware_concurrency());
  }
  // More shards than devices would idle; cap (also keeps tiny tests light).
  n_shards = std::max<std::size_t>(
      1, std::min<std::size_t>(n_shards, topo.device_count()));
  shards_.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    std::vector<DeviceId> devs;
    for (std::size_t d = s; d < topo.device_count(); d += n_shards) {
      devs.push_back(static_cast<DeviceId>(d));
    }
    shards_.push_back(std::make_unique<Shard>(topo, devs, cfg));
    shards_.back()->local.jobs_per_shard.assign(n_shards, 0);
  }
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards_[s]->thread = std::thread([this, s] { worker_loop(s); });
  }
}

ShardedRuntime::~ShardedRuntime() {
  stopping_.store(true);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
}

void ShardedRuntime::install(const planner::InvariantPlan& plan) {
  // Installation happens between work waves; localize on the caller thread
  // while each device space is otherwise untouched. The next enqueue's
  // shard mutex publishes the installed state to the shard thread.
  wait_quiescent();
  for (auto& shard : shards_) shard->host.install(plan);
}

void ShardedRuntime::enqueue(Job job) {
  job.enqueued = std::chrono::steady_clock::now();
  Shard& shard = *shards_[shard_of(job.dev)];
  inflight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.queue.push_back(std::move(job));
  }
  shard.cv.notify_one();
}

void ShardedRuntime::finish_one() {
  if (inflight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Regression note: the notify must be ordered with the waiter's
    // predicate check — take the quiesce mutex (even empty) so the wake
    // cannot slip between the waiter's load and its sleep.
    std::lock_guard<std::mutex> lock(quiesce_mu_);
    quiesce_cv_.notify_all();
  }
}

void ShardedRuntime::post_initialize(DeviceId dev, const fib::FibTable& fib) {
  Job job;
  job.kind = Job::Kind::Init;
  job.dev = dev;
  // Flatten to wire form on the caller thread (reads only the caller's
  // space); the shard thread rebuilds rules in the device's own space.
  job.rules = to_wire(fib);
  enqueue(std::move(job));
}

std::shared_ptr<const fib::FibUpdate> ShardedRuntime::post_rule_update(
    DeviceId dev, const fib::FibUpdate& update) {
  Job job;
  job.kind = Job::Kind::Update;
  job.dev = dev;
  job.update = std::make_shared<fib::FibUpdate>(update);
  if (update.kind == fib::FibUpdate::Kind::Insert) {
    job.update_rule = to_wire(update.rule);
    job.update->rule = fib::Rule{};
  }
  std::shared_ptr<const fib::FibUpdate> handle = job.update;
  enqueue(std::move(job));
  return handle;
}

void ShardedRuntime::wait_quiescent() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  quiesce_cv_.wait(lock, [this] {
    return inflight_.load(std::memory_order_acquire) == 0;
  });
}

std::vector<dvm::Violation> ShardedRuntime::violations() {
  std::vector<dvm::Violation> out;
  for (DeviceId d = 0; d < device_count(); ++d) {
    auto v = device(d).violations();
    out.insert(out.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  }
  return out;
}

RuntimeMetrics ShardedRuntime::metrics() const {
  RuntimeMetrics out;
  out.jobs_per_shard.assign(shards_.size(), 0);
  for (const auto& shard : shards_) {
    out.merge(shard->local);
    out.merge(shard->host.metrics());
  }
  // Prefix-index effectiveness over this process (callers reset the global
  // counters at run start to scope them to one run).
  out.index = fib::index_counters_snapshot();
  return out;
}

void ShardedRuntime::handle(Shard& shard, Job& job) {
  const auto send = [this](DeviceId dst, std::vector<std::uint8_t> bytes) {
    Job next;
    next.kind = Job::Kind::Frame;
    next.dev = dst;
    next.bytes = std::move(bytes);
    enqueue(std::move(next));
  };
  switch (job.kind) {
    case Job::Kind::Init:
      shard.host.initialize(job.dev, job.rules, send);
      break;
    case Job::Kind::Update:
      // The handle receives the assigned id after the next quiescence.
      shard.host.update(job.dev, *job.update, job.update_rule, send);
      break;
    case Job::Kind::Frame:
      shard.host.deliver(job.dev, job.bytes, send);
      break;
  }
}

void ShardedRuntime::worker_loop(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  obs::set_thread_label("shard" + std::to_string(shard_index));
  while (true) {
    std::vector<Job> batch;
    {
      std::unique_lock<std::mutex> lock(shard.mu);
      shard.cv.wait(lock, [&] {
        return stopping_.load() || !shard.queue.empty();
      });
      if (stopping_.load() && shard.queue.empty()) return;
      batch.swap(shard.queue);
    }
    TLK_SPAN_ARG("runtime.batch", batch.size());
    const auto drained = std::chrono::steady_clock::now();
    for (auto& job : batch) {
      shard.local.queue_wait_seconds.add(
          std::chrono::duration<double>(drained - job.enqueued).count());
      handle(shard, job);
      shard.local.jobs_per_shard[shard_index] += 1;
      finish_one();
    }
  }
}

}  // namespace tulkun::runtime
