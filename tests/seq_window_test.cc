// SeqWindow differential coverage: the paged direct-mapped window against
// std::map references for each way the stack uses it — the 16-bit
// retransmission histories across several wraps, the capped unwrapped
// transport-feedback history, the unwrapped key space's implied keys, and
// page materialization and release — plus the age bound, with keys in
// order and a few positions out of order (two pacers), and as the downlink
// controller sees it through per-leg egress lives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <type_traits>
#include <vector>

#include "cc/downlink_cc.h"
#include "session/egress_seq.h"
#include "util/seq_window.h"

namespace converge {
namespace {

// Per-path mp_seq history: key = the 16-bit wire value, written once per
// packet in send order, erased when a non-media packet takes the value,
// looked up by NACKs naming any value. Reference: std::map<uint16_t, T>.
TEST(SeqWindowTest, SixteenBitHistoryMatchesMapAcrossWraps) {
  SeqWindow<int64_t, uint16_t> window(size_t{1} << 16);
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
  SeqWindow<int64_t, int64_t> window(kCapacity);
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

// Unwrapped keys imply their slot's key: the window holds exactly the
// keys in (newest - W, newest] inserted and not erased since. A key that
// jumps ahead, by up to two windows at once, clears the slots it skips; a
// key less than W / 2 behind the newest takes its own slot. Every value
// the window drops (replaced, erased or skipped) is released: a token each
// value shares counts exactly the entries held.
TEST(SeqWindowTest, UnwrappedKeysHoldExactlyTheNewestWindow) {
  constexpr int64_t kWindow = 1024;
  struct Held {
    int64_t value = 0;
    std::shared_ptr<int> token;
  };
  SeqWindow<Held, int64_t> window(kWindow);
  std::map<int64_t, int64_t> reference;
  const auto token = std::make_shared<int>(0);
  std::mt19937_64 rng(3);
  int64_t newest = -5000;  // negative keys index like any other
  window.Insert(newest, Held{-1, token});
  reference[newest] = -1;
  int64_t jumps = 0;
  int64_t behind = 0;
  for (int64_t i = 0; i < 60'000; ++i) {
    const uint64_t roll = rng() % 100;
    if (roll < 60) {
      int64_t key = newest + 1;
      if (roll >= 50) {
        key = newest - static_cast<int64_t>(rng() % (kWindow / 2));
        ++behind;
      } else if (roll >= 45) {
        key = newest + 2 + static_cast<int64_t>(rng() % (2 * kWindow));
        ++jumps;
      }
      if (key > newest) {
        newest = key;
        reference.erase(reference.begin(),
                        reference.lower_bound(newest - kWindow + 1));
      }
      reference[key] = i;
      window.Insert(key, Held{i, token});
    } else if (roll < 75) {
      // Held, out of the window behind, and above the newest.
      const int64_t key =
          newest + 8 - static_cast<int64_t>(rng() % (kWindow + 64));
      ASSERT_EQ(window.Erase(key), reference.erase(key) == 1) << key;
    } else {
      const int64_t key =
          newest + kWindow - static_cast<int64_t>(rng() % (3 * kWindow));
      auto it = reference.find(key);
      const Held* found = window.Find(key);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "key " << key << " newest " << newest;
      if (found != nullptr) {
        ASSERT_EQ(found->value, it->second);
      }
    }
    ASSERT_EQ(window.size(), reference.size()) << "step " << i;
    ASSERT_EQ(static_cast<size_t>(token.use_count() - 1), window.size());
    if (i % 64 == 0) {
      std::set<int64_t> pages;
      for (const auto& [key, value] : reference) {
        pages.insert((key & (kWindow - 1)) /
                     static_cast<int64_t>(decltype(window)::kPageSlots));
      }
      ASSERT_EQ(window.pages_allocated(), pages.size()) << "step " << i;
    }
  }
  EXPECT_GT(jumps, 2000);
  EXPECT_GT(behind, 2000);
}

TEST(SeqWindowTest, PagesMaterializeOnTouchAndReleaseWhenEmptied) {
  static_assert(SeqWindow<int, int64_t>::kPageSlots == 64);
  SeqWindow<int, int64_t> window(/*window=*/1024);
  EXPECT_EQ(window.pages_allocated(), 0u);
  EXPECT_EQ(window.Find(5), nullptr);
  EXPECT_FALSE(window.Erase(5));  // lookups never allocate
  EXPECT_EQ(window.pages_allocated(), 0u);
  EXPECT_EQ(window.page_table_slots(), 0u);

  // Last slot of page 0 and first slot of page 1.
  window.Insert(63, 1);
  EXPECT_EQ(window.pages_allocated(), 1u);
  window.Insert(64, 2);
  EXPECT_EQ(window.pages_allocated(), 2u);
  ASSERT_NE(window.Find(63), nullptr);
  EXPECT_EQ(*window.Find(63), 1);
  EXPECT_EQ(*window.Find(64), 2);
  // 1024 + 63 shares slot 63: it replaces the entry without a new page.
  window.Insert(1024 + 63, 3);
  EXPECT_EQ(window.Find(63), nullptr);
  EXPECT_EQ(*window.Find(1024 + 63), 3);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.pages_allocated(), 2u);

  EXPECT_FALSE(window.Erase(63));  // the slot holds another key
  EXPECT_TRUE(window.Erase(1024 + 63));
  EXPECT_EQ(window.pages_allocated(), 1u);
  EXPECT_TRUE(window.Erase(64));
  EXPECT_EQ(window.pages_allocated(), 0u);
  EXPECT_TRUE(window.empty());

  // The whole window: one page per 64 slots, never more, and a table of
  // one entry per page. The keys go on from the newest insert, 1024 + 63
  // (none may fall W / 2 behind it).
  for (int64_t key = 1088; key < 1088 + 4096; ++key) window.Insert(key, 0);
  EXPECT_EQ(window.pages_allocated(), 16u);
  EXPECT_EQ(window.page_table_slots(), 16u);
  EXPECT_EQ(window.size(), 1024u);
}

// ---- The age bound -----------------------------------------------------------

struct Sent {
  int64_t key = 0;  // unwrapped
  Timestamp time;
};

// Trim against a std::map reference keyed by the unwrapped key. Keys rise
// in send order with occasional holes, recent keys are erased at random,
// and the window is trimmed after most inserts and sometimes after a long
// pause. The reference models the window exactly: a write evicts every
// older key of its slot (and, for unwrapped keys, of every slot a jump
// skips), a trim walks a tail key from the oldest position up to the
// newest key, erasing the expired entry each slot holds and passing holes
// until a live unexpired entry. Trimmed(k) holds where the trim erased an
// entry, no newer key has taken the slot since, and the tail is at most
// kTrimMemory positions on. Key uint16_t stores 16-bit keys, as the
// per-path RTX windows do; int64_t the unwrapped keys themselves.
template <typename Key>
void RunTrimAgainstMap(size_t window_size, Duration horizon, int64_t steps,
                       uint64_t seed) {
  const bool wire = std::is_same_v<Key, uint16_t>;
  SCOPED_TRACE(testing::Message() << "window " << window_size << " wire "
                                  << wire);
  const int64_t w = static_cast<int64_t>(window_size);
  auto stored = [&](int64_t key) {
    return static_cast<Key>(wire ? (key & 0xFFFF) : key);
  };
  SeqWindow<Sent, Key> window(window_size);
  std::map<int64_t, Sent> reference;
  constexpr int64_t kNone = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> owner(window_size, kNone);  // live key per slot
  std::mt19937_64 rng(seed);
  Timestamp now = Timestamp::Zero();
  const int64_t start = 5;  // first key
  int64_t newest = start - 1;
  int64_t tail = start;     // the model's tail key
  int64_t trims_passed = 0;
  int64_t trimmed_probes = 0;
  int64_t pauses = 0;
  std::map<int64_t, bool> erased_at;  // by position the tail passed
  bool full_span_seen = false;

  auto erase_ref = [&](int64_t key) {
    reference.erase(key);
    owner[static_cast<size_t>(key & (w - 1))] = kNone;
  };
  auto trim = [&] {
    auto expired = [&](const Sent& s) { return now - s.time > horizon; };
    window.Trim(expired);
    while (tail <= newest) {
      // The slot may hold an older key a skipped key left behind.
      const int64_t live = owner[static_cast<size_t>(tail & (w - 1))];
      if (live != kNone) {
        if (!expired(reference.at(live))) break;
        erase_ref(live);
      }
      erased_at[tail] = live != kNone;
      ++tail;
      ++trims_passed;
    }
  };
  // The window's answers for the key whose slot `probe` maps to, against
  // the reference's.
  auto check = [&](int64_t probe) {
    const int64_t slot = probe & (w - 1);
    const int64_t live = owner[static_cast<size_t>(slot)];
    const bool held = wire ? live != kNone : live == probe;
    const Sent* found = window.Find(stored(probe));
    ASSERT_EQ(found != nullptr, held) << "probe " << probe << " newest "
                                      << newest;
    if (held) {
      ASSERT_EQ(found->key, live);
    }
    // The one key of this slot inside the newest window.
    const int64_t key = newest - ((newest - slot) & (w - 1));
    if (!wire && key != probe) return;  // Trimmed is positional
    const int64_t lowest = std::max(
        {start, newest - w + 1, tail - w + 1,
         tail - static_cast<int64_t>(SeqWindow<Sent, Key>::kTrimMemory)});
    const bool trimmed = key >= lowest && key < tail && erased_at[key];
    ASSERT_EQ(window.Trimmed(stored(probe)), trimmed)
        << "probe " << probe << " tail " << tail << " newest " << newest;
    trimmed_probes += trimmed ? 1 : 0;
  };

  for (int64_t step = 0; step < steps; ++step) {
    const uint64_t roll = rng() % 100;
    if (roll < 85) {
      now = now + Duration::Micros(static_cast<int64_t>(rng() % 2000));
      const int64_t gap = rng() % 10 == 0 ? static_cast<int64_t>(rng() % 4) : 0;
      const int64_t key = newest < start ? start : newest + 1 + gap;
      // The model's span: restarts at the key when empty (the positions
      // skipped are passed as holes), else keeps at most the newest `w`
      // positions.
      if (tail > newest) {
        for (int64_t skipped = tail; skipped < key; ++skipped) {
          erased_at[skipped] = false;
        }
        tail = key;
      } else {
        tail = std::max(tail, key - w + 1);
      }
      full_span_seen |= key - tail + 1 == w;
      if (!wire) {
        // An unwrapped key that jumps ahead clears the slots it skips:
        // the keys they hold leave the window.
        for (int64_t skipped = newest + 1; skipped < key; ++skipped) {
          const int64_t live = owner[static_cast<size_t>(skipped & (w - 1))];
          if (live != kNone) erase_ref(live);
        }
      }
      newest = key;
      for (int64_t old = key - w; old >= start; old -= w) {
        if (reference.erase(old) == 1) break;  // one live key per slot
      }
      reference[key] = Sent{key, now};
      owner[static_cast<size_t>(key & (w - 1))] = key;
      window.Insert(stored(key), Sent{key, now});
      if (rng() % 5 != 0) trim();
    } else if (roll < 93) {
      // A 16-bit key names whatever its slot holds, a skipped key's
      // previous wrap included.
      const int64_t key = newest - static_cast<int64_t>(rng() % 64);
      const int64_t live = owner[static_cast<size_t>(key & (w - 1))];
      const bool held = wire ? live != kNone : live == key;
      ASSERT_EQ(window.Erase(stored(key)), held) << key;
      if (held) erase_ref(live);
    } else if (roll < 94 && rng() % 64 == 0) {
      now = now + horizon + horizon / 2;  // a pause: everything expires
      trim();
      ++pauses;
    } else {
      trim();
    }
    for (int probe = 0; probe < 3; ++probe) {
      const int64_t back = static_cast<int64_t>(rng() % (w + 16)) - 8;
      check(rng() % 4 == 0 ? static_cast<int64_t>(rng() % (1 << 20))
                           : newest - back);
    }
    ASSERT_EQ(window.size(), reference.size()) << "step " << step;
  }
  EXPECT_GT(pauses, 10);
  EXPECT_GT(trimmed_probes, steps / 50);
  EXPECT_GT(trims_passed, steps / 4);
  EXPECT_GE(newest / 65536, wire ? 3 : 0);
  if (!wire) {
    EXPECT_TRUE(full_span_seen);
  }
}

TEST(SeqWindowTest, TrimMatchesMapAcrossWrapsAndPages) {
  // 16-bit keys over three wraps, the span well inside the window.
  RunTrimAgainstMap<uint16_t>(size_t{1} << 16, Duration::Millis(400), 260'000,
                              41);
  // Unwrapped keys in a window the horizon overfills: the count cap and
  // the age bound take turns.
  RunTrimAgainstMap<int64_t>(1024, Duration::Millis(1500), 120'000, 43);
}

// Keys of one flow leave through two FIFO pacers, so some are inserted a few
// positions behind the newest (the legacy RTX windows of the multipath
// baselines). Reference: a std::map and a model cursor in unwrapped keys.
// An insert behind the newest leaves the newest alone (the tail moves back
// to it if it had passed it); any other insert is the new newest, and the
// tail rolls along once the span covers the window. An unwrapped key that
// jumps ahead also clears the slots it skips. Checked: every key
// inside the horizon and the newest window is found, a key past the horizon
// is gone unless an unexpired key a few positions before it holds the
// tail, Trimmed matches the model, and each page is allocated exactly
// while it holds an entry. Pauses drain both pacers first, so no key is
// still queued when the whole span has expired.
template <typename Key>
void RunInterleavedAgainstMap(size_t window_size, Duration horizon,
                              Duration max_gap, int64_t steps, uint64_t seed) {
  const bool wire = std::is_same_v<Key, uint16_t>;
  SCOPED_TRACE(testing::Message() << "window " << window_size << " wire "
                                  << wire);
  const int64_t w = static_cast<int64_t>(window_size);
  const int64_t page_slots =
      std::min<int64_t>(w, SeqWindow<Sent, Key>::kPageSlots);
  auto stored = [&](int64_t key) {
    return static_cast<Key>(wire ? (key & 0xFFFF) : key);
  };
  auto slot_of = [&](int64_t key) {
    return static_cast<size_t>(key & (w - 1));
  };
  SeqWindow<Sent, Key> window(window_size);
  std::map<int64_t, Sent> reference;
  std::map<int64_t, Timestamp> sent_at;  // every key inserted
  constexpr int64_t kNone = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> owner(window_size, kNone);  // live key per slot
  std::vector<int64_t> page_live(window_size / page_slots, 0);
  std::deque<int64_t> pacers[2];
  std::mt19937_64 rng(seed);
  Timestamp now = Timestamp::Zero();
  const int64_t start = 5;  // first key
  int64_t next_key = start;
  int64_t newest = start - 1;  // the model cursor's newest key
  int64_t tail = start;        // its tail key; tail > newest: empty span
  // What the tail remembers of the last positions it passed: the key it
  // passed at each and whether it erased an entry there.
  const int64_t memory = std::min<int64_t>(w, SeqWindow<Sent, Key>::kTrimMemory);
  std::vector<std::pair<int64_t, bool>> passed(static_cast<size_t>(memory),
                                               {kNone, false});
  auto pass = [&](int64_t key, bool erased) {
    passed[static_cast<size_t>(key & (memory - 1))] = {key, erased};
  };
  Timestamp trimmed_at = now;  // the cutoff of the last trim
  int64_t behind_inserts = 0;
  int64_t behind_in_full_span = 0;
  int64_t tail_moved_back = 0;
  int64_t trims_passed = 0;
  int64_t trimmed_probes = 0;
  int64_t pauses = 0;

  auto expired = [&](const Sent& s) { return trimmed_at - s.time > horizon; };
  auto set_owner = [&](int64_t key, int64_t live) {
    int64_t& slot = owner[slot_of(key)];
    const size_t page = slot_of(key) / static_cast<size_t>(page_slots);
    page_live[page] += (live != kNone) - (slot != kNone);
    if (slot != kNone) reference.erase(slot);
    slot = live;
  };
  auto trim = [&] {
    trimmed_at = now;
    window.Trim(expired);
    while (tail <= newest) {
      const int64_t live = owner[slot_of(tail)];
      if (live != kNone) {
        if (!expired(reference.at(live))) break;
        set_owner(live, kNone);
      }
      pass(tail, live != kNone);
      ++tail;
      ++trims_passed;
    }
  };
  auto insert = [&](int64_t key) {
    if (!wire) {
      // An unwrapped key that jumps ahead clears the slots it skips (a key
      // still queued in the other pacer among them).
      for (int64_t skipped = newest + 1; skipped < key; ++skipped) {
        set_owner(skipped, kNone);
      }
    }
    if (tail > newest) {
      ASSERT_GE(key, tail) << "a key still queued when its span emptied";
      for (int64_t skipped = std::max(tail, key - memory); skipped < key;
           ++skipped) {
        pass(skipped, false);
      }
      tail = key;
      newest = key;
    } else if (key <= newest) {
      ASSERT_LT(2 * (newest - key), w);
      ++behind_inserts;
      behind_in_full_span += newest - tail + 1 == w ? 1 : 0;
      if (key < tail) {
        tail = key;
        ++tail_moved_back;
      }
    } else {
      newest = key;
      tail = std::max(tail, key - w + 1);
    }
    set_owner(key, key);
    reference[key] = Sent{key, now};
    sent_at[key] = now;
    window.Insert(stored(key), Sent{key, now});
    trim();
  };
  auto check = [&](int64_t key) {
    const int64_t live = owner[slot_of(key)];
    const bool held = wire ? live != kNone : live == key;
    const Sent* found = window.Find(stored(key));
    ASSERT_EQ(found != nullptr, held) << "key " << key << " newest "
                                      << newest << " tail " << tail;
    if (held) {
      ASSERT_EQ(found->key, live);
    }
    auto sent = sent_at.find(key);
    if (sent != sent_at.end() && key > newest - w) {
      if (trimmed_at - sent->second <= horizon) {
        ASSERT_TRUE(held) << "key " << key << " inside the horizon";
      } else if (held) {
        // Only an unexpired key a few positions before it holds it.
        bool blocked = false;
        for (int64_t j = key - 16; j < key && !blocked; ++j) {
          blocked = owner[slot_of(j)] == j && !expired(reference.at(j));
        }
        ASSERT_TRUE(blocked) << "key " << key << " past the horizon";
      }
    }
    const size_t bit = static_cast<size_t>(key & (memory - 1));
    const bool trimmed = key > newest - w && key > tail - w && key < tail &&
                         passed[bit].first == key && passed[bit].second;
    ASSERT_EQ(window.Trimmed(stored(key)), trimmed)
        << "key " << key << " tail " << tail << " newest " << newest;
    trimmed_probes += trimmed ? 1 : 0;
  };

  for (int64_t step = 0; step < steps; ++step) {
    // Alternating 10,000-step stretches, the second four times sparser.
    const int64_t gap = max_gap.us() * ((step / 10'000) % 2 == 0 ? 1 : 4);
    now = now + Duration::Micros(static_cast<int64_t>(
                    rng() % static_cast<uint64_t>(gap + 1)));
    if (rng() % 4 != 0) {
      // A new key joins one pacer's queue.
      pacers[rng() % 2].push_back(next_key++);
    }
    // One pacer sends its head; a backlog forces both out.
    const size_t queued = pacers[0].size() + pacers[1].size();
    for (int p = 0; p < 2; ++p) {
      std::deque<int64_t>& q = pacers[(p + step) % 2];
      if (!q.empty() && (rng() % 3 == 0 || queued > 6)) {
        insert(q.front());
        q.pop_front();
      }
    }
    if (rng() % 2048 == 0) {
      // A pause: both pacers drain, then everything expires.
      for (std::deque<int64_t>& q : pacers) {
        for (int64_t key : q) insert(key);
        q.clear();
      }
      now = now + horizon + horizon / 2;
      trim();
      ++pauses;
    }
    for (int probe = 0; probe < 3; ++probe) {
      check(newest - static_cast<int64_t>(rng() % static_cast<uint64_t>(w)));
    }
    ASSERT_EQ(window.size(), reference.size()) << "step " << step;
    if (step % 16 == 0) {
      const size_t pages = static_cast<size_t>(std::count_if(
          page_live.begin(), page_live.end(), [](int64_t n) { return n > 0; }));
      ASSERT_EQ(window.pages_allocated(), pages) << "step " << step;
    }
  }
  EXPECT_GT(pauses, 10);
  EXPECT_GT(behind_inserts, steps / 10);
  EXPECT_GT(trimmed_probes, steps / 50);
  EXPECT_GT(trims_passed, steps / 4);
  EXPECT_GE(newest / 65536, wire ? 3 : 0);
  EXPECT_GT(tail_moved_back, 0);
  if (!wire) {
    EXPECT_GT(behind_in_full_span, steps / 100);
  }
}

TEST(SeqWindowTest, InterleavedInsertsMatchMapInsideAndAtTheFullWindow) {
  // 16-bit keys over three wraps, the span well inside the window.
  RunInterleavedAgainstMap<uint16_t>(size_t{1} << 16, Duration::Millis(400),
                                     Duration::Micros(1500), 400'000, 51);
  // Unwrapped keys in a window the horizon overfills between pauses: the
  // span often equals the window.
  RunInterleavedAgainstMap<int64_t>(256, Duration::Millis(300),
                                    Duration::Micros(1500), 120'000, 53);
}

// A steady sender under the real horizon, trimming on every insert as the
// RTX and feedback windows do: after a 180-s call the window holds the
// packets of the last horizon and no more than one page beyond them.
TEST(SeqWindowTest, TrimmedWindowPagesFollowRateNotCallLength) {
  for (const int64_t rate : {1000, 4000}) {
    SeqWindow<Sent, uint16_t> window(size_t{1} << 16);
    const Duration gap = Duration::Micros(1'000'000 / rate);
    const int64_t horizon_packets =
        kSentHistoryHorizon.us() / gap.us();  // horizon * rate
    const size_t max_pages = static_cast<size_t>(
        (horizon_packets + SeqWindow<Sent, uint16_t>::kPageSlots - 1) /
            static_cast<int64_t>(SeqWindow<Sent, uint16_t>::kPageSlots) +
        1);
    Timestamp now = Timestamp::Zero();
    size_t peak = 0;
    for (int64_t key = 0; now <= Timestamp::Zero() + Duration::Seconds(180);
         ++key, now = now + gap) {
      window.Insert(key & 0xFFFF, Sent{key, now});
      window.Trim([&](const Sent& s) {
        return now - s.time > kSentHistoryHorizon;
      });
      peak = std::max(peak, window.pages_allocated());
      if (now > Timestamp::Zero() + kSentHistoryHorizon) {
        ASSERT_EQ(window.size(), static_cast<size_t>(horizon_packets) + 1)
            << rate << " pkt/s at " << now.seconds() << " s";
      }
    }
    EXPECT_LE(peak, max_pages) << rate << " pkt/s";
    EXPECT_GE(peak, max_pages - 1) << rate << " pkt/s";
  }
}

// The page geometry of a 16-bit window over four wraps, against a model of
// the live keys: the send rate swings between 200 and 50,000 packets a
// second under a 200-ms horizon, with pauses that expire everything, some
// keys never inserted (an FEC packet's) and some erased early. After every
// trim, each page holding a live key is allocated and no other; the page
// table is a power of two that reaches the pages from the oldest live key
// to the newest insert, shrinks once they need a quarter of it, and never
// covers the whole window; and Trimmed holds for exactly the keys the trim
// erased among the last kTrimMemory positions behind the tail.
TEST(SeqWindowTest, PageTableFollowsTheSpanAcrossWraps) {
  using Window = SeqWindow<Sent, uint16_t>;
  constexpr int64_t kSlots = Window::kPageSlots;
  constexpr int64_t kPages = 65536 / kSlots;
  const Duration horizon = Duration::Millis(200);
  Window window(size_t{1} << 16);
  std::map<int64_t, Timestamp> live;  // unwrapped key -> send time
  std::set<int64_t> trim_erased;
  std::vector<int64_t> page_live(kPages, 0);
  std::vector<int64_t> page_takes(kPages, 0);
  auto page_of = [&](int64_t key) {
    return static_cast<size_t>((key & 0xFFFF) / kSlots);
  };
  auto drop = [&](std::map<int64_t, Timestamp>::iterator it) {
    --page_live[page_of(it->first)];
    return live.erase(it);
  };
  std::mt19937_64 rng(61);
  Timestamp now = Timestamp::Zero();
  int64_t newest = -1;
  size_t table_peak = 0;
  int64_t narrowed = 0;  // times the table went from 64+ slots to 2 or 1
  bool was_wide = false;
  for (int64_t key = 0; key < 4 * 65536 + 777; ++key) {
    const bool fast = (key / 20'000) % 2 == 1;
    now = now + Duration::Micros(fast ? 20 : 5'000);
    if (rng() % 30'000 == 0) now = now + horizon * 2.0;  // a pause
    if (!live.empty() && rng() % 50 == 0) {
      // An early erase of a live key near the newest.
      auto it = live.lower_bound(newest - static_cast<int64_t>(rng() % 64));
      if (it != live.end()) {
        ASSERT_TRUE(window.Erase(static_cast<uint16_t>(it->first)));
        drop(it);
      }
    }
    if (rng() % 8 != 0) {
      window.Insert(static_cast<uint16_t>(key), Sent{key, now});
      if (page_live[page_of(key)]++ == 0) ++page_takes[page_of(key)];
      live[key] = now;
      newest = key;
    }
    window.Trim([&](const Sent& s) { return now - s.time > horizon; });
    for (auto it = live.begin();
         it != live.end() && now - it->second > horizon;) {
      trim_erased.insert(it->first);
      it = drop(it);
    }
    ASSERT_EQ(window.size(), live.size()) << key;

    const int64_t tail = live.empty() ? newest + 1 : live.begin()->first;
    const int64_t reach = (tail & 0xFFFF) % kSlots + newest - tail;
    const size_t spanned =
        live.empty()
            ? 0
            : static_cast<size_t>(std::min(kPages, reach / kSlots + 1));
    const size_t table = window.page_table_slots();
    ASSERT_TRUE(std::has_single_bit(table)) << key;
    ASSERT_GE(table, spanned) << key;
    ASSERT_TRUE(table == 1 || 4 * spanned > table)
        << "key " << key << " table " << table << " spans " << spanned;
    table_peak = std::max(table_peak, table);
    was_wide |= table >= 64;
    if (was_wide && table <= 2) {
      ++narrowed;
      was_wide = false;
    }
    if (key % 32 == 0) {
      const size_t pages = static_cast<size_t>(std::count_if(
          page_live.begin(), page_live.end(), [](int64_t n) { return n > 0; }));
      ASSERT_EQ(window.pages_allocated(), pages) << key;
    }
    if (key % 8 == 0) {
      // Positions behind the tail remember what the trim erased; those at
      // and after it remember nothing.
      const int64_t probe =
          tail - 1 - static_cast<int64_t>(rng() % (Window::kTrimMemory + 64));
      const int64_t memory = static_cast<int64_t>(Window::kTrimMemory);
      const bool want =
          probe >= tail - memory && trim_erased.count(probe) == 1;
      ASSERT_EQ(window.Trimmed(static_cast<uint16_t>(probe)), want)
          << "probe " << probe << " tail " << tail;
      const int64_t ahead = tail + static_cast<int64_t>(rng() % 64);
      ASSERT_FALSE(window.Trimmed(static_cast<uint16_t>(ahead))) << ahead;
    }
  }
  EXPECT_GE(newest / 65536, 4);
  // Every page was released and taken again in each wrap at least.
  EXPECT_GE(*std::min_element(page_takes.begin(), page_takes.end()), 4);
  EXPECT_GE(table_peak, size_t{128});
  EXPECT_LT(table_peak, static_cast<size_t>(kPages));
  EXPECT_GE(narrowed, 5);
}

// A leg's records age against the leg's own newest send: feedback for an
// aged record is skipped and counted in the downlink's horizon misses,
// feedback for a seq never sent is not, and another leg's sends age nothing
// of this one. A restarted leg starts a new egress life.
TEST(SeqWindowTest, DownlinkCcAgesRecordsOutAndCountsLateFeedback) {
  DownlinkCc cc(CcConfig{});
  std::vector<EgressSeq> legs(2);
  auto send = [&](int leg, Timestamp at) {
    RtpPacket p;
    p.payload_bytes = 1200;
    p.send_time = at;
    legs[static_cast<size_t>(leg)].Stamp(p);
    cc.OnPacketSent();
  };
  auto feedback = [&](int leg, int64_t seq, Timestamp now) {
    TransportFeedback fb;
    fb.arrivals.push_back({seq, now});
    int64_t misses = 0;
    const std::vector<PacketResult> results =
        legs[static_cast<size_t>(leg)].Match(fb, misses);
    cc.OnTransportFeedback(results, misses, now);
  };
  const Timestamp t0 = Timestamp::Zero() + Duration::Millis(5);
  send(0, t0);                        // (0, 0)
  send(1, t0);                        // (1, 0)
  send(0, t0 + kSentHistoryHorizon);  // (0, 1), exactly 10 s later
  feedback(0, 0, t0 + kSentHistoryHorizon);
  EXPECT_EQ(cc.packets_acked(), 1);  // still held at the bound itself

  const Timestamp late = t0 + kSentHistoryHorizon + Duration::Micros(1);
  send(0, late);  // (0, 2) ages out (0, 0) only
  feedback(0, 0, late);
  EXPECT_EQ(cc.packets_acked(), 1);
  EXPECT_EQ(cc.horizon_misses(), 1);
  feedback(1, 0, late);
  EXPECT_EQ(cc.packets_acked(), 2);
  send(1, late);  // (1, 1): now (1, 0) too
  feedback(1, 0, late);
  EXPECT_EQ(cc.packets_acked(), 2);
  EXPECT_EQ(cc.horizon_misses(), 2);
  feedback(0, 7, late);  // never sent
  EXPECT_EQ(cc.horizon_misses(), 2);
  feedback(0, 1, late);
  EXPECT_EQ(cc.packets_acked(), 3);

  legs[1] = EgressSeq();  // leg 1 restarted
  send(1, late);
  feedback(1, 0, late);
  EXPECT_EQ(cc.packets_acked(), 4);
  EXPECT_EQ(cc.horizon_misses(), 2);
}

}  // namespace
}  // namespace converge
