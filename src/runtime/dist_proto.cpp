#include "runtime/dist_proto.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace tulkun::runtime {

namespace {

constexpr std::uint8_t kHello = 1;
constexpr std::uint8_t kBegin = 2;
constexpr std::uint8_t kProbe = 3;
constexpr std::uint8_t kProbeAck = 4;
constexpr std::uint8_t kReset = 5;
constexpr std::uint8_t kCollect = 6;
constexpr std::uint8_t kRollup = 7;
constexpr std::uint8_t kDone = 8;
constexpr std::uint8_t kData = 9;
constexpr std::uint8_t kCatchup = 10;
constexpr std::uint8_t kSnapshot = 11;

// The RuntimeMetrics fields a VerdictEntry ships, in wire order.
using M = RuntimeMetrics;
constexpr std::array kShippedCounts = {
    &M::jobs, &M::frames, &M::envelopes, &M::frame_bytes,
    &M::transfer_cache_hits, &M::transfer_cache_misses, &M::channel_roots,
    &M::channel_nodes_shipped, &M::channel_resets, &M::gc_runs,
    &M::gc_reclaimed_nodes};
constexpr std::array kShippedSeconds = {
    &M::lec_delta_seconds, &M::recompute_seconds, &M::emit_seconds};

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::uint8_t> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }
  void str(const std::string& s) {
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void link_metrics(const net::LinkMetrics& m) {
    u64(m.frames_sent);
    u64(m.bytes_sent);
    u64(m.frames_received);
    u64(m.bytes_received);
    u64(m.reconnects);
    u64(m.heartbeat_misses);
    u64(m.protocol_errors);
    u64(m.send_queue_depth);
    u64(m.send_queue_peak);
    u64(m.backpressure_events);
  }
  void entry(const VerdictEntry& e) {
    u32(e.rank);
    u64(e.violations);
    dvm::encode_digest_deltas(e.deltas, out_);
    for (const auto field : kShippedCounts) u64(e.metrics.*field);
    for (const auto field : kShippedSeconds) f64(e.metrics.*field);
    link_metrics(e.metrics.transport);
    u64(e.world_rebuilds);
    u64(e.snapshot_rows_adopted);
    bytes(e.trace);
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] std::vector<std::uint8_t>& buffer() { return out_; }

 private:
  std::vector<std::uint8_t> out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<std::uint8_t> bytes() {
    const std::uint32_t len = u32();
    need(len);
    std::vector<std::uint8_t> out(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += len;
    return out;
  }
  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string out(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return out;
  }
  void link_metrics(net::LinkMetrics& m) {
    m.frames_sent = u64();
    m.bytes_sent = u64();
    m.frames_received = u64();
    m.bytes_received = u64();
    m.reconnects = u64();
    m.heartbeat_misses = u64();
    m.protocol_errors = u64();
    m.send_queue_depth = u64();
    m.send_queue_peak = u64();
    m.backpressure_events = u64();
  }
  VerdictEntry entry() {
    VerdictEntry e;
    e.rank = u32();
    e.violations = u64();
    e.deltas = dvm::decode_digest_deltas(bytes_, pos_,
                                         dvm::default_decode_limits());
    for (const auto field : kShippedCounts) e.metrics.*field = u64();
    for (const auto field : kShippedSeconds) e.metrics.*field = f64();
    link_metrics(e.metrics.transport);
    e.world_rebuilds = u64();
    e.snapshot_rows_adopted = u64();
    e.trace = bytes();
    return e;
  }
  /// Count-vs-remaining-bytes guard (see dvm::codec): each of `n` declared
  /// elements occupies at least `min_elem_bytes`.
  std::uint32_t count(std::uint32_t n, std::size_t min_elem_bytes) const {
    if (n > (bytes_.size() - pos_) / min_elem_bytes) {
      throw Error("dist decode: declared count exceeds buffer");
    }
    return n;
  }
  void done() const {
    if (pos_ != bytes_.size()) throw Error("dist decode: trailing bytes");
  }
  [[nodiscard]] std::span<const std::uint8_t> raw() const { return bytes_; }
  [[nodiscard]] std::size_t& pos() { return pos_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) throw Error("dist decode: truncated");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> encode_dist(const DistMsg& msg) {
  Writer w;
  if (const auto* m = std::get_if<DistHello>(&msg)) {
    w.u8(kHello);
    w.u32(m->rank);
    w.u32(m->incarnation);
  } else if (const auto* m = std::get_if<DistBegin>(&msg)) {
    w.u8(kBegin);
    w.u32(m->epoch);
    w.u32(m->phase);
    w.u64(m->trace_id);
    w.u64(m->parent_span);
  } else if (const auto* m = std::get_if<DistProbe>(&msg)) {
    w.u8(kProbe);
    w.u32(m->epoch);
    w.u32(m->wave);
    w.u8(m->direct ? 1 : 0);
  } else if (const auto* m = std::get_if<DistProbeAck>(&msg)) {
    w.u8(kProbeAck);
    w.u32(m->epoch);
    w.u32(m->wave);
    w.u32(m->ranks);
    w.u64(m->sent);
    w.u64(m->received);
    w.u8(m->idle ? 1 : 0);
    w.u32(m->phase);
    w.u8(m->phase_started ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(m->pairs.size()));
    for (const auto& p : m->pairs) {
      w.u32(p.peer);
      w.u64(p.sent_to);
      w.u64(p.recv_from);
    }
    w.u64(m->replay_sent);
    w.u64(m->replay_received);
    w.u8(m->replay_done ? 1 : 0);
  } else if (const auto* m = std::get_if<DistReset>(&msg)) {
    w.u8(kReset);
    w.u32(m->epoch);
  } else if (const auto* m = std::get_if<DistCollect>(&msg)) {
    w.u8(kCollect);
    w.u32(m->epoch);
    w.u64(m->seq);
    w.u8(m->want_full ? 1 : 0);
    w.u8(m->direct ? 1 : 0);
  } else if (const auto* m = std::get_if<DistRollup>(&msg)) {
    w.u8(kRollup);
    w.u32(m->epoch);
    w.u64(m->seq);
    w.u32(static_cast<std::uint32_t>(m->entries.size()));
    for (const auto& e : m->entries) w.entry(e);
  } else if (const auto* m = std::get_if<DistCatchup>(&msg)) {
    w.u8(kCatchup);
    w.u32(m->epoch);
    w.u32(m->next_phase);
    w.u32(static_cast<std::uint32_t>(m->reborn.size()));
    for (const std::uint32_t r : m->reborn) w.u32(r);
  } else if (const auto* m = std::get_if<DistSnapshot>(&msg)) {
    w.u8(kSnapshot);
    w.u32(m->epoch);
    w.u64(m->collect_seq);
    dvm::encode_digest_deltas(m->rows, w.buffer());
  } else if (std::get_if<DistDone>(&msg) != nullptr) {
    w.u8(kDone);
  } else {
    const auto& m = std::get<DistData>(msg);
    w.u8(kData);
    w.u32(m.epoch);
    w.u32(m.dst_device);
    w.bytes(m.frame);
    w.u64(m.trace_id);
    w.u64(m.parent_span);
    w.u8(m.replay ? 1 : 0);
  }
  return w.take();
}

DistMsg decode_dist(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  const std::uint8_t tag = r.u8();
  DistMsg out;
  try {
    switch (tag) {
      case kHello: {
        DistHello m;
        m.rank = r.u32();
        m.incarnation = r.u32();
        out = m;
        break;
      }
      case kBegin: {
        DistBegin m;
        m.epoch = r.u32();
        m.phase = r.u32();
        m.trace_id = r.u64();
        m.parent_span = r.u64();
        out = m;
        break;
      }
      case kProbe: {
        DistProbe m;
        m.epoch = r.u32();
        m.wave = r.u32();
        m.direct = r.u8() != 0;
        out = m;
        break;
      }
      case kProbeAck: {
        DistProbeAck m;
        m.epoch = r.u32();
        m.wave = r.u32();
        m.ranks = r.u32();
        m.sent = r.u64();
        m.received = r.u64();
        m.idle = r.u8() != 0;
        m.phase = r.u32();
        m.phase_started = r.u8() != 0;
        const std::uint32_t n = r.count(r.u32(), 20);
        m.pairs.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          DistPairCount p;
          p.peer = r.u32();
          p.sent_to = r.u64();
          p.recv_from = r.u64();
          m.pairs.push_back(p);
        }
        m.replay_sent = r.u64();
        m.replay_received = r.u64();
        m.replay_done = r.u8() != 0;
        out = m;
        break;
      }
      case kReset: {
        DistReset m;
        m.epoch = r.u32();
        out = m;
        break;
      }
      case kCollect: {
        DistCollect m;
        m.epoch = r.u32();
        m.seq = r.u64();
        m.want_full = r.u8() != 0;
        m.direct = r.u8() != 0;
        out = m;
        break;
      }
      case kRollup: {
        DistRollup m;
        m.epoch = r.u32();
        m.seq = r.u64();
        const std::uint32_t n = r.count(r.u32(), 4);
        m.entries.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) m.entries.push_back(r.entry());
        out = m;
        break;
      }
      case kCatchup: {
        DistCatchup m;
        m.epoch = r.u32();
        m.next_phase = r.u32();
        const std::uint32_t n = r.count(r.u32(), 4);
        m.reborn.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) m.reborn.push_back(r.u32());
        out = m;
        break;
      }
      case kSnapshot: {
        DistSnapshot m;
        m.epoch = r.u32();
        m.collect_seq = r.u64();
        m.rows = dvm::decode_digest_deltas(r.raw(), r.pos(),
                                           dvm::default_decode_limits());
        out = m;
        break;
      }
      case kDone:
        out = DistDone{};
        break;
      case kData: {
        DistData m;
        m.epoch = r.u32();
        m.dst_device = r.u32();
        m.frame = r.bytes();
        m.trace_id = r.u64();
        m.parent_span = r.u64();
        m.replay = r.u8() != 0;
        out = m;
        break;
      }
      default:
        throw Error("dist decode: unknown message tag");
    }
  } catch (const dvm::CodecError& e) {
    // Embedded digest-delta failures surface as the same Error family the
    // rest of the dist codec throws, so receivers keep one drop path.
    throw Error(std::string("dist decode: ") + e.what());
  }
  r.done();
  return out;
}

void merge_probe_ack(DistProbeAck& into, const DistProbeAck& child) {
  into.ranks += child.ranks;
  into.sent += child.sent;
  into.received += child.received;
  into.idle = into.idle && child.idle;
  into.phase = std::min(into.phase, child.phase);
  into.phase_started = into.phase_started && child.phase_started;
  into.replay_sent += child.replay_sent;
  into.replay_received += child.replay_received;
  into.replay_done = into.replay_done && child.replay_done;
  into.pairs.insert(into.pairs.end(), child.pairs.begin(), child.pairs.end());
}

}  // namespace tulkun::runtime
