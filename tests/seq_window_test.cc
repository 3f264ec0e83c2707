// SeqWindow differential coverage: the paged direct-mapped window against
// std::map references for each way the stack uses it — the 16-bit
// retransmission histories across several wraps, the capped unwrapped
// transport-feedback history, arbitrary keys, and page materialization and
// release — plus DownlinkCc's registration-order eviction across legs
// against the capped map + FIFO it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "cc/downlink_cc.h"
#include "util/seq_window.h"

namespace converge {
namespace {

// Per-path mp_seq history: key = the 16-bit wire value, written once per
// packet in send order, erased when a non-media packet takes the value,
// looked up by NACKs naming any value. Reference: std::map<uint16_t, T>.
TEST(SeqWindowTest, SixteenBitHistoryMatchesMapAcrossWraps) {
  SeqWindow<int64_t> window(size_t{1} << 16);
  std::map<uint16_t, int64_t> reference;
  std::mt19937_64 rng(7);
  uint16_t next = 0;
  // Three full wraps of the 16-bit space.
  for (int64_t i = 0; i < 3 * 65536 + 1234; ++i) {
    const uint16_t seq = next++;
    if (rng() % 8 == 0) {
      reference.erase(seq);
      window.Erase(seq);
    } else {
      reference[seq] = i;
      window.Insert(seq, i);
    }
    // Random lookups and occasional random erases anywhere in the space.
    for (int probe = 0; probe < 2; ++probe) {
      const uint16_t key = static_cast<uint16_t>(rng());
      auto it = reference.find(key);
      const int64_t* found = window.Find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "key " << key << " step " << i;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
    if (rng() % 64 == 0) {
      const uint16_t key = static_cast<uint16_t>(rng());
      ASSERT_EQ(window.Erase(key), reference.erase(key) == 1);
    }
    ASSERT_EQ(window.size(), reference.size());
  }
  // A final sweep over the whole space.
  for (uint32_t key = 0; key < 65536; ++key) {
    auto it = reference.find(static_cast<uint16_t>(key));
    const int64_t* found = window.Find(key);
    ASSERT_EQ(found != nullptr, it != reference.end()) << key;
    if (found != nullptr) {
      ASSERT_EQ(*found, it->second);
    }
  }
}

// Transport-feedback history: unwrapped keys assigned +1 per packet, with
// lookups of any int64 (stale, future, negative). Reference: a map capped
// to the newest `capacity` keys.
TEST(SeqWindowTest, MonotoneKeysKeepExactlyTheNewestWindow) {
  constexpr size_t kCapacity = 1024;
  SeqWindow<int64_t> window(kCapacity);
  std::map<int64_t, int64_t> reference;
  std::mt19937_64 rng(11);
  for (int64_t seq = 0; seq < 70'000; ++seq) {
    reference[seq] = seq * 3;
    while (reference.size() > kCapacity) reference.erase(reference.begin());
    window.Insert(seq, seq * 3);
    for (int probe = 0; probe < 3; ++probe) {
      // Mostly near the head (in and just outside the window), sometimes
      // anywhere including negative keys and keys not sent yet.
      const int64_t key =
          rng() % 4 == 0
              ? static_cast<int64_t>(rng() % 200'000) - 50'000
              : seq - static_cast<int64_t>(rng() % (2 * kCapacity + 8)) + 4;
      auto it = reference.find(key);
      const int64_t* found = window.Find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "key " << key << " head " << seq;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
  EXPECT_EQ(window.size(), kCapacity);
}

// Arbitrary keys: the window is exactly a map in which writing a key first
// evicts every key congruent to it modulo the window.
TEST(SeqWindowTest, ArbitraryKeysEvictOnlyTheirSlot) {
  constexpr int64_t kWindow = 1024;
  SeqWindow<int> window(kWindow);
  std::map<int64_t, int> reference;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 50'000; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 16384) - 8192;
    switch (rng() % 3) {
      case 0: {
        for (auto it = reference.begin(); it != reference.end();) {
          const bool same_slot = ((it->first - key) & (kWindow - 1)) == 0;
          it = same_slot ? reference.erase(it) : std::next(it);
        }
        reference[key] = i;
        window.Insert(key, i);
        break;
      }
      case 1:
        ASSERT_EQ(window.Erase(key), reference.erase(key) == 1) << key;
        break;
      default: {
        auto it = reference.find(key);
        const int* found = window.Find(key);
        ASSERT_EQ(found != nullptr, it != reference.end()) << key;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        ASSERT_EQ(window.Collides(key),
                  found == nullptr &&
                      std::any_of(reference.begin(), reference.end(),
                                  [&](const auto& entry) {
                                    return ((entry.first - key) &
                                            (kWindow - 1)) == 0;
                                  }));
      }
    }
    ASSERT_EQ(window.size(), reference.size());
  }
}

TEST(SeqWindowTest, PagesMaterializeOnTouchAndReleaseWhenEmptied) {
  static_assert(SeqWindow<int>::kPageSlots == 256);
  SeqWindow<int> window(/*window=*/1024);
  EXPECT_EQ(window.pages_allocated(), 0u);
  EXPECT_EQ(window.Find(5), nullptr);
  EXPECT_FALSE(window.Erase(5));  // lookups never allocate
  EXPECT_EQ(window.pages_allocated(), 0u);

  // Last slot of page 0 and first slot of page 1.
  window.Insert(255, 1);
  EXPECT_EQ(window.pages_allocated(), 1u);
  window.Insert(256, 2);
  EXPECT_EQ(window.pages_allocated(), 2u);
  ASSERT_NE(window.Find(255), nullptr);
  EXPECT_EQ(*window.Find(255), 1);
  EXPECT_EQ(*window.Find(256), 2);
  // 1024 + 255 shares slot 255: it replaces the entry without a new page.
  window.Insert(1024 + 255, 3);
  EXPECT_EQ(window.Find(255), nullptr);
  EXPECT_EQ(*window.Find(1024 + 255), 3);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.pages_allocated(), 2u);

  EXPECT_FALSE(window.Erase(255));  // the slot holds another key
  EXPECT_TRUE(window.Erase(1024 + 255));
  EXPECT_EQ(window.pages_allocated(), 1u);
  EXPECT_TRUE(window.Erase(256));
  EXPECT_EQ(window.pages_allocated(), 0u);
  EXPECT_TRUE(window.empty());

  // The whole window: one page per 256 slots, never more.
  for (int64_t key = 0; key < 4096; ++key) window.Insert(key, 0);
  EXPECT_EQ(window.pages_allocated(), 4u);
  EXPECT_EQ(window.size(), 1024u);
}

// The sent history DownlinkCc kept before the window: a map keyed (leg,
// seq) capped by a FIFO of registrations in order.
class ReferenceSentHistory {
 public:
  explicit ReferenceSentHistory(size_t max_history)
      : max_history_(max_history) {}
  void Register(int leg, int64_t seq) {
    sent_.insert({leg, seq});
    order_.emplace_back(leg, seq);
    while (order_.size() > max_history_) {
      sent_.erase(order_.front());
      order_.pop_front();
    }
  }
  bool Contains(int leg, int64_t seq) const {
    return sent_.count({leg, seq}) > 0;
  }

 private:
  size_t max_history_;
  std::set<std::pair<int, int64_t>> sent_;
  std::deque<std::pair<int, int64_t>> order_;
};

// Registration-order eviction across legs, including legs whose egress
// counter restarts at 0 (the hub's ResetOrigin) while entries of their
// previous life are still held. Membership is observed through the
// controller's acked counter: one received arrival per feedback batch
// counts iff its (leg, seq) is still in the history.
TEST(SeqWindowTest, DownlinkCcHistoryMatchesCappedMapAcrossLegRestarts) {
  for (size_t max_history : {size_t{8}, size_t{100}, size_t{1000}}) {
    DownlinkCc::Config config;
    config.max_history = max_history;
    DownlinkCc cc(config);
    ReferenceSentHistory reference(max_history);
    std::mt19937_64 rng(29 + max_history);
    constexpr int kLegs = 4;
    std::vector<int64_t> next(kLegs, 0);
    std::vector<int64_t> highest(kLegs, 0);  // across lives, for probes
    Timestamp now = Timestamp::Zero();
    int64_t expected_acked = 0;
    int restarts = 0;
    for (int step = 0; step < 30'000; ++step) {
      now = now + Duration::Micros(500);
      // Legs send at different rates; leg 0 carries half the traffic.
      const int leg = rng() % 2 == 0 ? 0 : 1 + static_cast<int>(rng() % 3);
      // A leg restarts every so often: sometimes long after its last
      // packet, sometimes while most of its entries are still held.
      if (next[leg] > 0 && rng() % (max_history * 2) == 0) {
        next[leg] = 0;
        ++restarts;
      }
      const int64_t seq = next[leg]++;
      highest[leg] = std::max(highest[leg], seq);
      cc.OnPacketSent(leg, seq, now, 1200);
      reference.Register(leg, seq);

      const int probe_leg = static_cast<int>(rng() % kLegs);
      const int64_t probe_seq =
          static_cast<int64_t>(rng() % static_cast<uint64_t>(
                                           highest[probe_leg] + 3));
      TransportFeedback fb;
      fb.arrivals.push_back({probe_seq, now});
      cc.OnTransportFeedback(probe_leg, fb, now);
      if (reference.Contains(probe_leg, probe_seq)) ++expected_acked;
      ASSERT_EQ(cc.packets_acked(), expected_acked)
          << "leg " << probe_leg << " seq " << probe_seq << " step " << step
          << " max_history " << max_history;
    }
    EXPECT_GT(restarts, 3) << max_history;
    EXPECT_EQ(cc.packets_registered(), 30'000);
  }
}

// The corner the random walk above rarely reaches: a restarted leg writes
// the very key the eviction FIFO is about to drop. The capped map wrote the
// new record and then erased that key, so the new record went too.
TEST(SeqWindowTest, DownlinkCcEvictionOfARewrittenKeyDropsTheNewRecord) {
  DownlinkCc::Config config;
  config.max_history = 4;
  DownlinkCc cc(config);
  ReferenceSentHistory reference(config.max_history);
  const Timestamp now = Timestamp::Zero() + Duration::Millis(10);
  const std::vector<std::pair<int, int64_t>> registrations = {
      {0, 0}, {1, 0}, {1, 1}, {1, 2}, {0, 0} /* leg 0 restarted */};
  for (const auto& [leg, seq] : registrations) {
    cc.OnPacketSent(leg, seq, now, 1200);
    reference.Register(leg, seq);
  }
  ASSERT_FALSE(reference.Contains(0, 0));
  TransportFeedback fb;
  fb.arrivals.push_back({0, now});
  cc.OnTransportFeedback(0, fb, now);
  EXPECT_EQ(cc.packets_acked(), 0);
  cc.OnTransportFeedback(1, fb, now);  // (1, 0) is still held
  EXPECT_EQ(cc.packets_acked(), 1);
}

}  // namespace
}  // namespace converge
