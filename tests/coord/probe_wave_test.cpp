// DistCoordinator's termination rule, driven directly. Scripted fake
// device ranks answer every probe over an in-process transport (which
// delivers synchronously), so each test pins exactly which probe wave ends
// a phase or a catch-up drain: a phase is over only after two consecutive
// complete readings show every rank idle at the phase with balanced
// totals, both carry the same totals, and the second is a wave. Without
// pushes both readings are waves; with a push script the fake ranks push
// once per Begin, and a push set that covers every rank and settles is the
// first reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "net/inproc.hpp"
#include "runtime/distributed.hpp"

namespace tulkun::runtime {
namespace {

/// Shapes one rank's answer to one probe. `wave` counts the probes of the
/// same kind this rank has answered (relayed ones since its last Begin,
/// direct ones since its last Catchup), starting at 1. The ack arrives
/// pre-filled as an idle rank that finished its current phase with zero
/// traffic.
using Script = std::function<void(net::PeerId rank, std::uint32_t wave,
                                  bool direct, DistProbeAck& ack)>;
/// Shapes the push a rank sends the root right after adopting a Begin. The
/// push arrives pre-filled as an idle rank that finished that phase with
/// zero traffic, stamped with the rank's epoch.
using PushScript = std::function<void(net::PeerId rank, DistProbeAck& push)>;

class FakeRanks {
 public:
  FakeRanks(std::shared_ptr<net::InProcHub> hub, std::size_t n) {
    for (std::size_t r = 1; r <= n; ++r) {
      const auto self = static_cast<net::PeerId>(r);
      ranks_.emplace_back();
      ranks_.back().wire = std::make_unique<net::InProcTransport>(hub, self);
    }
    for (std::size_t i = 0; i < ranks_.size(); ++i) {
      const auto self = static_cast<net::PeerId>(i + 1);
      net::Transport::Handlers h;
      h.on_frame = [this, self](net::PeerId, std::vector<std::uint8_t> f) {
        on_frame(self, f);
      };
      ranks_[i].wire->start(std::move(h));
      send_hello(self, 0);
    }
  }

  void set_script(Script script) {
    std::lock_guard<std::mutex> lock(mu_);
    script_ = std::move(script);
  }

  /// Ranks push only while a push script is set.
  void set_push_script(PushScript script) {
    std::lock_guard<std::mutex> lock(mu_);
    push_script_ = std::move(script);
  }

  /// The rank's process died and came back: it re-Hellos with a higher
  /// incarnation and holds no epoch until the coordinator's Catchup.
  void rebirth(net::PeerId rank) {
    std::uint32_t incarnation = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Rank& r = at(rank);
      incarnation = ++r.incarnation;
      r.epoch = kEpochUnset;
      r.phase = -1;
    }
    send_hello(rank, incarnation);
  }

  /// Relayed probes answered since the rank's last Begin.
  std::uint32_t phase_waves(net::PeerId rank) {
    std::lock_guard<std::mutex> lock(mu_);
    return at(rank).relayed_waves;
  }
  /// Direct probes the rank answered before its last Catchup arrived.
  std::uint32_t drain_waves(net::PeerId rank) {
    std::lock_guard<std::mutex> lock(mu_);
    return at(rank).drain_waves;
  }
  std::uint32_t catchups(net::PeerId rank) {
    std::lock_guard<std::mutex> lock(mu_);
    return at(rank).catchups;
  }

 private:
  struct Rank {
    std::unique_ptr<net::InProcTransport> wire;
    std::uint32_t incarnation = 0;
    std::uint32_t epoch = 0;
    std::int64_t phase = -1;  // last phase Begun (finished instantly)
    std::uint32_t relayed_waves = 0;
    std::uint32_t direct_waves = 0;
    std::uint32_t drain_waves = 0;
    std::uint32_t catchups = 0;
  };

  Rank& at(net::PeerId rank) { return ranks_[rank - 1]; }

  void send_hello(net::PeerId rank, std::uint32_t incarnation) {
    at(rank).wire->send(kCoordinatorRank,
                        encode_dist(DistHello{rank, incarnation}));
  }

  void on_frame(net::PeerId self, const std::vector<std::uint8_t>& frame) {
    const DistMsg msg = decode_dist(frame);
    std::vector<std::uint8_t> reply;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Rank& r = at(self);
      if (const auto* begin = std::get_if<DistBegin>(&msg)) {
        if (begin->epoch == r.epoch) {
          r.phase = begin->phase;
          r.relayed_waves = 0;
          if (push_script_) {
            DistProbeAck push;
            push.epoch = r.epoch;
            push.wave = kPushWave;
            push.idle = true;
            push.phase_started = true;
            push.phase = begin->phase;
            push_script_(self, push);
            reply = encode_dist(push);
          }
        }
      } else if (const auto* cu = std::get_if<DistCatchup>(&msg)) {
        r.epoch = cu->epoch;
        r.catchups += 1;
        r.drain_waves = r.direct_waves;
        r.direct_waves = 0;
      } else if (const auto* probe = std::get_if<DistProbe>(&msg)) {
        DistProbeAck ack;
        ack.epoch = r.epoch;
        ack.wave = probe->wave;
        ack.idle = true;
        ack.phase_started = r.phase >= 0;
        ack.phase = r.phase >= 0 ? static_cast<std::uint32_t>(r.phase) : 0;
        const std::uint32_t wave =
            probe->direct ? ++r.direct_waves : ++r.relayed_waves;
        if (script_) script_(self, wave, probe->direct, ack);
        reply = encode_dist(ack);
      }
    }
    // Answer outside the lock: the coordinator's handler runs inline.
    if (!reply.empty()) at(self).wire->send(kCoordinatorRank, reply);
  }

  std::mutex mu_;
  Script script_;
  PushScript push_script_;
  std::vector<Rank> ranks_;
};

class ProbeWaveTest : public ::testing::Test {
 protected:
  void start(std::size_t ranks, std::size_t fanout = 0,
             RecoveryMode recovery = RecoveryMode::Legacy) {
    fakes_ = std::make_unique<FakeRanks>(hub_, ranks);
    DistCoordinator::Config cfg;
    cfg.n_device_procs = ranks;
    cfg.fanout = fanout;
    cfg.recovery = recovery;
    coord_ = std::make_unique<DistCoordinator>(coord_wire_, cfg);
    coord_->start();
  }

  std::shared_ptr<net::InProcHub> hub_ = std::make_shared<net::InProcHub>();
  net::InProcTransport coord_wire_{hub_, kCoordinatorRank};
  std::unique_ptr<FakeRanks> fakes_;
  std::unique_ptr<DistCoordinator> coord_;
};

TEST_F(ProbeWaveTest, QuietPhaseEndsOnTheSecondIdenticalWave) {
  start(3);
  for (int phase = 0; phase < 3; ++phase) {
    EXPECT_EQ(coord_->run_phase().resets, 0u);
    // One settled wave is never enough: the second confirms it.
    for (net::PeerId r = 1; r <= 3; ++r) EXPECT_EQ(fakes_->phase_waves(r), 2u);
  }
}

TEST_F(ProbeWaveTest, BusyRankHoldsThePhase) {
  start(3);
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    if (rank == 2 && wave <= 3) ack.idle = false;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 5u);
}

TEST_F(ProbeWaveTest, UnbalancedTotalsHoldThePhase) {
  start(2);
  // Rank 1 sent 7 frames; rank 2 has processed only 6 of them until wave 4.
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    if (rank == 1) ack.sent = 7;
    if (rank == 2) ack.received = wave <= 3 ? 6 : 7;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 5u);
}

TEST_F(ProbeWaveTest, RankBehindThePhaseHoldsIt) {
  start(3);
  // Phase 0: rank 3 has not finished any phase for two waves.
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    if (rank == 3 && wave <= 2) ack.phase_started = false;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 4u);
  // Phase 1: rank 3 still reports phase 0 for three waves.
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    if (rank == 3 && wave <= 3) ack.phase = 0;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 5u);
}

TEST_F(ProbeWaveTest, CounterChangeBetweenWavesRestartsTheWindow) {
  start(2);
  // Every wave is settled and balanced, but the totals move 5 -> 6 -> 7
  // before they hold: only the first repeat (wave 4) ends the phase.
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    const std::uint64_t n = 4 + std::min<std::uint32_t>(wave, 3);
    if (rank == 1) ack.sent = n;
    if (rank == 2) ack.received = n;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 4u);
}

TEST_F(ProbeWaveTest, WaveCoversSubtreesNotAnswers) {
  // Fanout 2 over 3 ranks: rank 1 aggregates rank 3, so the root hears
  // rank 1's merged ack for both. An ack covering only rank 1 leaves the
  // wave incomplete, and an incomplete wave never counts toward the two.
  start(3, /*fanout=*/2);
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool,
                        DistProbeAck& ack) {
    if (rank == 1) ack.ranks = wave == 1 ? 1 : 2;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 3u);
  EXPECT_EQ(fakes_->phase_waves(3), 0u);  // never probed by the root
}

TEST_F(ProbeWaveTest, CatchupDrainBalancesSurvivorPairsOnly) {
  start(3, /*fanout=*/0, RecoveryMode::Catchup);
  (void)coord_->run_phase();  // phase 0
  fakes_->rebirth(2);
  // Survivors 1 and 3 both sent frames to rank 2 that died with it, so the
  // scalar totals (sent 12, received <= 5) never balance; the drain must
  // judge survivor pairs only. Rank 3 is busy on wave 1 and has processed
  // 4 of rank 1's 5 frames until wave 3.
  fakes_->set_script([](net::PeerId rank, std::uint32_t wave, bool direct,
                        DistProbeAck& ack) {
    if (!direct || ack.epoch != 0) return;  // only the old-epoch drain
    if (rank == 1) {
      ack.sent = 9;
      ack.pairs = {DistPairCount{2, 4, 0}, DistPairCount{3, 5, 0}};
    } else if (rank == 3) {
      ack.idle = wave > 1;
      ack.sent = 3;
      ack.received = wave <= 2 ? 4 : 5;
      ack.pairs = {DistPairCount{1, 0, ack.received},
                   DistPairCount{2, 3, 0}};
    }
  });
  const auto out = coord_->run_phase();  // phase 1, after recovery
  EXPECT_EQ(out.resets, 1u);
  EXPECT_EQ(fakes_->drain_waves(1), 4u);
  EXPECT_EQ(fakes_->drain_waves(3), 4u);
  for (net::PeerId r = 1; r <= 3; ++r) {
    EXPECT_EQ(fakes_->catchups(r), 1u);
    EXPECT_EQ(fakes_->phase_waves(r), 2u);  // phase 1 itself ran normally
  }
}

TEST_F(ProbeWaveTest, SettledPushesEndEachPhaseOnOneWave) {
  start(3);
  fakes_->set_push_script([](net::PeerId, DistProbeAck&) {});
  for (int phase = 0; phase < 3; ++phase) {
    EXPECT_EQ(coord_->run_phase().resets, 0u);
    // The push set is the first reading; one wave confirms it.
    for (net::PeerId r = 1; r <= 3; ++r) EXPECT_EQ(fakes_->phase_waves(r), 1u);
  }
}

TEST_F(ProbeWaveTest, ConfirmingWaveMustMatchThePushSignature) {
  start(2);
  // Rank 1 sent 6 frames and rank 2 processed all 6, but phase 0's pushes
  // were taken at 5/5. A wave that settles at 6/6 is not a confirmation:
  // it becomes the first reading, and a second wave confirms it.
  fakes_->set_script([](net::PeerId rank, std::uint32_t, bool,
                        DistProbeAck& ack) {
    if (rank == 1) ack.sent = 6;
    if (rank == 2) ack.received = 6;
  });
  fakes_->set_push_script([](net::PeerId rank, DistProbeAck& push) {
    const std::uint64_t n = push.phase == 0 ? 5 : 6;
    if (rank == 1) push.sent = n;
    if (rank == 2) push.received = n;
  });
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 2u);
  // Phase 1's pushes read 6/6 like its waves: one wave ends it.
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 1u);
}

TEST_F(ProbeWaveTest, PushOfThePreviousPhaseIsNoReading) {
  start(3);
  fakes_->set_push_script([](net::PeerId, DistProbeAck&) {});
  (void)coord_->run_phase();
  EXPECT_EQ(fakes_->phase_waves(1), 1u);
  // Phase 1: rank 2's push still reports phase 0, so the push set does not
  // settle and the waves alone end the phase.
  fakes_->set_push_script([](net::PeerId rank, DistProbeAck& push) {
    if (rank == 2) push.phase = 0;
  });
  (void)coord_->run_phase();
  for (net::PeerId r = 1; r <= 3; ++r) EXPECT_EQ(fakes_->phase_waves(r), 2u);
}

TEST_F(ProbeWaveTest, PushFromTheOldEpochIsIgnoredAfterCatchup) {
  start(3, /*fanout=*/0, RecoveryMode::Catchup);
  fakes_->set_push_script([](net::PeerId, DistProbeAck&) {});
  (void)coord_->run_phase();  // phase 0
  EXPECT_EQ(fakes_->phase_waves(1), 1u);
  fakes_->rebirth(2);
  // Every push after the catch-up claims epoch 0. Taken at face value it
  // would settle phase 1; stamped with the old epoch it is dropped.
  fakes_->set_push_script([](net::PeerId, DistProbeAck& push) {
    push.epoch = 0;
  });
  const auto out = coord_->run_phase();  // phase 1, after recovery
  EXPECT_EQ(out.resets, 1u);
  for (net::PeerId r = 1; r <= 3; ++r) {
    EXPECT_EQ(fakes_->catchups(r), 1u);
    EXPECT_EQ(fakes_->phase_waves(r), 2u);
  }
}

}  // namespace
}  // namespace tulkun::runtime
