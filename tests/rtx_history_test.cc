// RtxHistory differential coverage: the shared retransmission module
// against copies of the std::map bookkeeping the sender and the hub
// forwarding engines each kept before it (per-path mp_sent windows, the
// legacy ssrc_sent_/legacy_sent_ maps, the recent_rtx_ dedup maps and the
// RTX stamping), less the 4,096-entry caps on the legacy and dedup maps.
// Random send/NACK/leave workloads drive both sides in both NACK flavours;
// every answer must match packet for packet. The references keep packets
// until their seq is reused, the module only for kSentHistoryHorizon: NACKs
// for older packets, of either flavour, go to the module alone, which must
// decline them and count each as a horizon miss. Directed tests pin the
// dedup boundary, the stamping, the flavour filter, the age bound, and
// what the caps used to drop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "session/rtx_history.h"
#include "util/invariants.h"
#include "util/seq_window.h"

namespace converge {
namespace {

// One NACK answer as the engine sees it.
struct Answer {
  PathId target = kInvalidPathId;
  PathId origin = kInvalidPathId;
  uint16_t seq = 0;
  RtpPacket rtx;
};

// mp_transport_seq is not compared: the egress stamps every copy afresh,
// so the history does not keep it (RtxHistoryTest.SlotRebuildsTheSentPacket
// checks every other field).
auto Fields(const Answer& a) {
  const RtpPacket& p = a.rtx;
  return std::make_tuple(a.target, a.origin, a.seq, p.ssrc, p.seq, p.path_id,
                         p.mp_seq, p.kind, p.priority, p.stream_id,
                         p.frame_id, p.via_rtx, p.rtx_for_path,
                         p.rtx_for_mp_seq, p.send_time.us());
}

void ExpectSameAnswers(const std::vector<Answer>& want,
                       const std::vector<Answer>& got, int64_t step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(Fields(got[i]) == Fields(want[i]))
        << "step " << step << " answer " << i << " seq " << want[i].seq;
  }
}

// Stand-in for Scheduler::ChooseRtxPath: deterministic in the stamped copy,
// and declines some answers so the "not queued, not remembered" branch
// runs.
PathId ChooseRtxPath(const RtpPacket& rtx) {
  if ((rtx.seq * 31u + rtx.mp_seq) % 7u == 0) return kInvalidPathId;
  return static_cast<PathId>(rtx.seq % 2);
}

// ---- References: the pre-RtxHistory engine code, uncapped -----------------

// Sender: DispatchPacket's history write and HandleNack's retransmit
// lambda (ChooseRtxPath as above), verbatim but for the count caps.
class ReferenceSender {
 public:
  ReferenceSender(bool per_path_nack, const std::vector<PathId>& paths) {
    config_.per_path_nack = per_path_nack;
    for (PathId id : paths) paths_[id];
  }

  void OnSent(PathId path, const RtpPacket& packet) {
    PathState& st = paths_.at(path);
    const bool media_like = packet.kind == PayloadKind::kMedia ||
                            packet.kind == PayloadKind::kPps ||
                            packet.kind == PayloadKind::kSps;
    if (config_.per_path_nack) {
      if (media_like) {
        st.mp_sent.Insert(packet.mp_seq, packet);
      } else {
        st.mp_sent.Erase(packet.mp_seq);  // stale wrap-around entry
      }
    } else if (media_like && !packet.via_rtx) {
      ssrc_sent_[{packet.ssrc, packet.seq}] = {packet, path};
    }
  }

  std::vector<Answer> HandleNack(const Nack& nack, PathId report_path,
                                 Timestamp now) {
    std::vector<Answer> out;
    const bool legacy = nack.ssrc != 0;
    if (legacy == config_.per_path_nack) return out;

    auto retransmit = [&](const RtpPacket& original, PathId origin,
                          int64_t dedup_flow, uint16_t dedup_seq,
                          bool tag_mp_hole) {
      const auto key = std::make_pair(dedup_flow, dedup_seq);
      auto rit = recent_rtx_.find(key);
      if (rit != recent_rtx_.end() &&
          now - rit->second < Duration::Millis(40)) {
        return;
      }
      RtpPacket rtx = original;
      rtx.via_rtx = true;
      rtx.priority = Priority::kRetransmit;
      if (tag_mp_hole) {
        rtx.rtx_for_path = static_cast<PathId>(dedup_flow);
        rtx.rtx_for_mp_seq = dedup_seq;
      }
      const PathId target = ChooseRtxPath(rtx);
      if (target == kInvalidPathId) return;
      recent_rtx_[key] = now;
      out.push_back({target, origin, dedup_seq, rtx});
    };

    if (legacy) {
      for (uint16_t seq : nack.seqs) {
        auto it = ssrc_sent_.find({nack.ssrc, seq});
        if (it == ssrc_sent_.end()) continue;
        retransmit(it->second.first, it->second.second,
                   static_cast<int64_t>(nack.ssrc), seq,
                   /*tag_mp_hole=*/false);
      }
    } else {
      auto pit = paths_.find(report_path);
      if (pit == paths_.end()) return out;
      PathState& st = pit->second;
      for (uint16_t mp_seq : nack.seqs) {
        const RtpPacket* original = st.mp_sent.Find(mp_seq);
        if (original == nullptr) continue;
        retransmit(*original, report_path, report_path, mp_seq,
                   /*tag_mp_hole=*/true);
      }
    }
    return out;
  }

 private:
  struct Config {
    bool per_path_nack = true;
  } config_;
  struct PathState {
    SeqWindow<RtpPacket, uint16_t> mp_sent{size_t{1} << 16};
  };
  std::map<PathId, PathState> paths_;
  std::map<std::pair<int64_t, uint16_t>, Timestamp> recent_rtx_;
  std::map<std::pair<uint32_t, uint16_t>, std::pair<RtpPacket, PathId>>
      ssrc_sent_;
};

// HubForwarder: Emit's history write, HandleNack's answer lambda (the
// target path must be one of the engine's paths) and ResetOrigin's erases,
// verbatim but for the count caps.
class ReferenceHub {
 public:
  ReferenceHub(bool per_path_nack, const std::vector<PathId>& paths) {
    config_.per_path_nack = per_path_nack;
    for (PathId id : paths) paths_[id];
  }

  void OnSent(int leg, PathId path, const RtpPacket& packet) {
    EgressLeg& el = paths_.at(path).egress[leg];
    const bool media_like = MediaLike(packet);
    if (config_.per_path_nack) {
      if (media_like) {
        el.mp_sent.Insert(packet.mp_seq, packet);
      } else {
        el.mp_sent.Erase(packet.mp_seq);  // stale wrap-around entry
      }
    } else if (media_like && !packet.via_rtx) {
      legacy_sent_[{{leg, packet.ssrc}, packet.seq}] = {path, packet};
    }
  }

  void ResetOrigin(int leg) {
    for (auto& [path, ps] : paths_) ps.egress.erase(leg);
    for (auto it = legacy_sent_.begin(); it != legacy_sent_.end();) {
      it = it->first.first.first == leg ? legacy_sent_.erase(it)
                                       : std::next(it);
    }
  }

  std::vector<Answer> HandleNack(int leg, PathId report_path,
                                 const Nack& nack, Timestamp now) {
    std::vector<Answer> out;
    auto answer = [&](const RtpPacket& original, PathId target, int64_t flow,
                      uint16_t seq, bool tag_mp_hole) {
      const auto key = std::make_pair(flow, seq);
      auto rit = recent_rtx_.find(key);
      if (rit != recent_rtx_.end() &&
          now - rit->second < config_.rtx_dedup_window) {
        return;
      }
      auto tit = paths_.find(target);
      if (tit == paths_.end()) return;
      recent_rtx_[key] = now;
      RtpPacket rtx = original;
      rtx.via_rtx = true;
      rtx.priority = Priority::kRetransmit;
      if (tag_mp_hole) {
        rtx.rtx_for_path = target;
        rtx.rtx_for_mp_seq = seq;
      } else {
        rtx.rtx_for_path = kInvalidPathId;
        rtx.rtx_for_mp_seq = 0;
      }
      out.push_back({target, target, seq, rtx});
    };

    const bool legacy = nack.ssrc != 0;
    if (legacy == config_.per_path_nack) return out;
    if (legacy) {
      for (uint16_t seq : nack.seqs) {
        auto it = legacy_sent_.find({{leg, nack.ssrc}, seq});
        if (it == legacy_sent_.end()) continue;
        answer(it->second.second, it->second.first,
               LegacyFlow(leg, nack.ssrc), seq, /*tag_mp_hole=*/false);
      }
    } else {
      auto pit = paths_.find(report_path);
      if (pit == paths_.end()) return out;
      auto lit = pit->second.egress.find(leg);
      if (lit == pit->second.egress.end()) return out;
      for (uint16_t seq : nack.seqs) {
        const RtpPacket* original = lit->second.mp_sent.Find(seq);
        if (original == nullptr) continue;
        answer(*original, report_path, MpFlow(leg, report_path), seq,
               /*tag_mp_hole=*/true);
      }
    }
    return out;
  }

 private:
  static bool MediaLike(const RtpPacket& p) {
    return p.kind == PayloadKind::kMedia || p.kind == PayloadKind::kPps ||
           p.kind == PayloadKind::kSps;
  }
  static int64_t MpFlow(int leg, PathId path) {
    return (static_cast<int64_t>(leg) << 33) | (int64_t{1} << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(path));
  }
  static int64_t LegacyFlow(int leg, uint32_t ssrc) {
    return (static_cast<int64_t>(leg) << 33) | static_cast<int64_t>(ssrc);
  }

  struct Config {
    Duration rtx_dedup_window = Duration::Millis(40);
    bool per_path_nack = true;
  } config_;
  struct EgressLeg {
    SeqWindow<RtpPacket, uint16_t> mp_sent{size_t{1} << 16};
  };
  struct PathState {
    std::map<int, EgressLeg> egress;
  };
  std::map<PathId, PathState> paths_;
  std::map<std::pair<std::pair<int, uint32_t>, uint16_t>,
           std::pair<PathId, RtpPacket>>
      legacy_sent_;
  std::map<std::pair<int64_t, uint16_t>, Timestamp> recent_rtx_;
};

// ---- The age bound -----------------------------------------------------------

// Which packets the module's age bound has dropped while a reference still
// holds them: the send time of each held packet per (leg, flow, seq), and
// the newest send per (leg, flow), which is what the module trims against.
// A flow is the path and the seq the mp_seq for per-path NACK; for legacy
// NACK they are the SSRC and its seq, and only media-like originals (not
// RTX copies) are sent on a flow. A legacy seq that an FEC or probe packet
// took is not sent on its flow: the reference still holds the previous
// wrap's packet under it, while the module passed it as a hole and does not
// count it.
class HorizonShadow {
 public:
  explicit HorizonShadow(bool per_path_nack) : per_path_nack_(per_path_nack) {}

  void OnSent(int leg, PathId path, const RtpPacket& packet) {
    uint16_t seq = packet.mp_seq;
    int64_t id = path;
    if (!per_path_nack_) {
      if (packet.via_rtx) return;
      seq = packet.seq;
      id = packet.ssrc;
      if (!packet.IsMediaLike()) {
        flows_[{leg, id}].reused.insert(seq);
        return;
      }
    }
    Flow& flow = flows_[{leg, id}];
    flow.newest = packet.send_time;
    if (packet.IsMediaLike()) {
      flow.held[seq] = packet.send_time;
      flow.reused.erase(seq);
      flow.media.emplace_back(seq, packet.send_time);
      flow.after_media = static_cast<uint16_t>(seq + 1);
    } else {
      flow.held.erase(seq);
    }
  }
  void Forget(int leg) {
    for (auto it = flows_.begin(); it != flows_.end();) {
      it = it->first.first == leg ? flows_.erase(it) : std::next(it);
    }
  }
  // The NACK with every held seq older than the horizon left out. `aged`
  // counts those left out; `counted` those of them the module still
  // remembers trimming (SeqWindow::kTrimMemory positions behind its
  // tail). A NACK of the other flavour passes whole.
  Nack InsideHorizon(int leg, PathId report_path, const Nack& nack,
                     int64_t* aged, int64_t* counted) {
    const bool per_path = nack.ssrc == 0;
    auto it = flows_.find(
        {leg, per_path ? int64_t{report_path} : int64_t{nack.ssrc}});
    if (per_path != per_path_nack_ || it == flows_.end()) return nack;
    Flow& flow = it->second;
    const uint16_t tail = flow.Tail();
    Nack inside{nack.ssrc, {}};
    for (uint16_t seq : nack.seqs) {
      auto held = flow.held.find(seq);
      if (held != flow.held.end() && flow.Expired(held->second)) {
        ++*aged;
        const uint16_t back = static_cast<uint16_t>(tail - seq);
        if (back >= 1 && back <= SeqWindow<RtpPacket, uint16_t>::kTrimMemory &&
            flow.reused.count(seq) == 0) {
          ++*counted;
        }
      } else {
        inside.seqs.push_back(seq);
      }
    }
    return inside;
  }

 private:
  struct Flow {
    bool Expired(Timestamp sent) const {
      return newest - sent > kSentHistoryHorizon;
    }
    // The module's tail: its oldest unexpired media packet, else the
    // value after its newest media packet.
    uint16_t Tail() {
      while (!media.empty()) {
        const auto [seq, sent] = media.front();
        auto held = held_at(seq);
        if (held != nullptr && *held == sent && !Expired(sent)) return seq;
        media.pop_front();
      }
      return after_media;
    }
    const Timestamp* held_at(uint16_t seq) const {
      auto it = held.find(seq);
      return it == held.end() ? nullptr : &it->second;
    }

    Timestamp newest;
    std::map<uint16_t, Timestamp> held;
    std::set<uint16_t> reused;  // legacy seqs an FEC or probe packet took
    std::deque<std::pair<uint16_t, Timestamp>> media;  // in send order
    uint16_t after_media = 0;
  };
  bool per_path_nack_;
  std::map<std::pair<int, int64_t>, Flow> flows_;
};

// The module's verdict on the seqs the reference did not see: each aged
// one is declined (the answers already matched the reference's exactly)
// and counted as a miss while the module still remembers trimming it.
void ExpectAgedCounted(int64_t counted, int64_t misses, int64_t step) {
  ASSERT_EQ(misses, counted) << "step " << step;
}

// ---- Random workload --------------------------------------------------------

// Origin legs send media, parameter sets, FEC, probes and RTX copies over
// three paths; receivers NACK both flavours (one of them the wrong one)
// about recent, old and never-sent seqs on four report paths (path 3 is
// unknown), repeating NACKs at random sub-40 ms and later gaps. Hub
// workloads also reset origins other than the first, restarting their
// mp_seq counters and SSRCs.
class Workload {
 public:
  Workload(uint64_t seed, std::vector<int> legs)
      : rng_(seed), legs_(std::move(legs)) {
    for (int leg : legs_) NewIncarnation(leg);
  }

  // Runs `steps` events against `engine`, an adapter with
  // OnSent(leg, path, packet), Nack(leg, report_path, nack, now) and
  // Reset(leg) (no Reset events when `resets` is false).
  template <typename Engine>
  void Run(int64_t steps, bool resets, Engine& engine) {
    for (int64_t step = 0; step < steps; ++step) {
      now_ = now_ + Duration::Micros(static_cast<int64_t>(rng_() % 300));
      const uint64_t roll = rng_() % 1000;
      if (resets && legs_.size() > 1 && rng_() % 20'000 == 0) {
        // The first leg never leaves, so its counters can wrap.
        const int leg = legs_[1 + rng_() % (legs_.size() - 1)];
        engine.Reset(leg);
        NewIncarnation(leg);
      } else if (roll < 850) {
        const int leg = PickLeg();
        const PathId path = PickPath();
        engine.OnSent(leg, path, NextPacket(leg, path));
      } else {
        const int leg = PickLeg();
        if (rng_() % 3 != 0 || last_nack_.seqs.empty()) {
          last_nack_ = MakeNack(leg);
          last_report_ = static_cast<PathId>(rng_() % 4);
          last_leg_ = leg;
        }
        // Otherwise a repeat of the previous NACK (receivers send on every
        // live path and re-request after a round trip).
        engine.Nack(last_leg_, last_report_, last_nack_, now_, step);
      }
    }
  }

  // Most mp_seq wraps any (leg, path) counter made within one incarnation.
  int max_wraps() const {
    int best = 0;
    for (const auto& [key, w] : wraps_) best = std::max(best, w);
    return best;
  }

 private:
  struct LegState {
    uint32_t ssrcs[2] = {0, 0};
    uint16_t seqs[2] = {0, 0};
    std::map<PathId, uint16_t> next_mp_seq;
  };

  void NewIncarnation(int leg) {
    LegState& ls = legs_state_[leg];
    // Fresh SSRCs per incarnation, the lower one first.
    ls.ssrcs[0] = 0x1000u + static_cast<uint32_t>(leg) * 64u +
                  static_cast<uint32_t>(incarnation_) * 4u;
    ls.ssrcs[1] = ls.ssrcs[0] + 2;
    ls.seqs[0] = static_cast<uint16_t>(rng_());
    ls.seqs[1] = static_cast<uint16_t>(rng_());
    ls.next_mp_seq.clear();
    for (auto it = wraps_.begin(); it != wraps_.end();) {
      it = it->first.first == leg ? wraps_.erase(it) : std::next(it);
    }
    ++incarnation_;
  }

  // Skewed so one (leg, path) counter wraps several times.
  int PickLeg() {
    return rng_() % 10 < 6 ? legs_.front() : legs_[rng_() % legs_.size()];
  }
  PathId PickPath() {
    return rng_() % 10 < 6 ? 0 : static_cast<PathId>(rng_() % 3);
  }

  RtpPacket NextPacket(int leg, PathId path) {
    LegState& ls = legs_state_[leg];
    RtpPacket p;
    const int stream = static_cast<int>(rng_() % 2);
    const uint64_t kind = rng_() % 20;
    p.kind = kind < 14   ? PayloadKind::kMedia
             : kind < 15 ? PayloadKind::kPps
             : kind < 16 ? PayloadKind::kSps
             : kind < 18 ? PayloadKind::kFec
                         : PayloadKind::kProbe;
    p.stream_id = stream;
    p.ssrc = ls.ssrcs[stream];
    p.frame_id = static_cast<int64_t>(rng_() % 100000);
    p.priority = p.kind == PayloadKind::kFec ? Priority::kFec
                                             : Priority::kNone;
    if (p.IsMediaLike() && rng_() % 10 == 0) {
      // An RTX copy of a recent packet: keeps its (ssrc, seq), carries the
      // hole it plugged.
      p.seq = static_cast<uint16_t>(ls.seqs[stream] - 1 - rng_() % 200);
      p.via_rtx = true;
      p.priority = Priority::kRetransmit;
      p.rtx_for_path = static_cast<PathId>(rng_() % 3);
      p.rtx_for_mp_seq = static_cast<uint16_t>(rng_());
    } else {
      p.seq = ls.seqs[stream]++;
    }
    uint16_t& next = ls.next_mp_seq[path];
    p.path_id = path;
    p.mp_seq = next++;
    if (next == 0) ++wraps_[{leg, path}];
    p.mp_transport_seq = p.mp_seq;
    p.send_time = now_;
    return p;
  }

  Nack MakeNack(int leg) {
    LegState& ls = legs_state_[leg];
    Nack nack;
    const int stream = static_cast<int>(rng_() % 2);
    const bool legacy = rng_() % 2 == 0;
    nack.ssrc = !legacy              ? 0
                : rng_() % 50 == 0   ? 0x7777u  // never sent
                                     : ls.ssrcs[stream];
    const uint16_t head =
        legacy ? ls.seqs[stream]
               : ls.next_mp_seq[static_cast<PathId>(rng_() % 3)];
    const int count = 1 + static_cast<int>(rng_() % 5);
    for (int i = 0; i < count; ++i) {
      const uint64_t r = rng_() % 20;
      uint16_t seq;
      if (r < 14) {
        seq = static_cast<uint16_t>(head - 1 - rng_() % 400);  // recent
      } else if (r < 17) {
        seq = static_cast<uint16_t>(head - 1 - rng_() % 9000);  // old
      } else if (r < 19) {
        seq = static_cast<uint16_t>(rng_());  // anywhere
      } else {
        seq = nack.seqs.empty() ? head : nack.seqs.back();  // repeated
      }
      nack.seqs.push_back(seq);
    }
    return nack;
  }

  std::mt19937_64 rng_;
  std::vector<int> legs_;
  std::map<int, LegState> legs_state_;
  std::map<std::pair<int, PathId>, int> wraps_;
  int incarnation_ = 0;
  Timestamp now_ = Timestamp::Zero();
  Nack last_nack_;
  PathId last_report_ = 0;
  int last_leg_ = 0;
};

// The sender's use: leg 0, ChooseRtxPath picks the target.
struct SenderPair {
  SenderPair(bool per_path_nack)
      : reference(per_path_nack, {0, 1, 2}),
        history(per_path_nack),
        shadow(per_path_nack) {}

  void OnSent(int leg, PathId path, const RtpPacket& packet) {
    reference.OnSent(path, packet);
    history.OnSent(leg, packet);
    shadow.OnSent(leg, path, packet);
  }
  void Nack(int leg, PathId report_path, const converge::Nack& nack,
            Timestamp now, int64_t step) {
    int64_t step_aged = 0;
    int64_t step_counted = 0;
    const std::vector<Answer> want = reference.HandleNack(
        shadow.InsideHorizon(leg, report_path, nack, &step_aged,
                             &step_counted),
        report_path, now);
    const int64_t misses_before = history.horizon_misses();
    std::vector<Answer> got;
    history.AnswerNack(
        leg, report_path, nack, now,
        [&](RtpPacket rtx, PathId origin, uint16_t seq) {
          const PathId target = ChooseRtxPath(rtx);
          if (target == kInvalidPathId) return false;
          got.push_back({target, origin, seq, std::move(rtx)});
          return true;
        });
    ExpectSameAnswers(want, got, step);
    ExpectAgedCounted(step_counted,
                      history.horizon_misses() - misses_before, step);
    answers += static_cast<int64_t>(want.size());
    aged += step_aged;
  }
  void Reset(int) {}

  ReferenceSender reference;
  RtxHistory history;
  HorizonShadow shadow;
  int64_t answers = 0;
  int64_t aged = 0;  // NACKed seqs the reference held beyond the horizon
};

// A hub engine's use: per-origin legs, answered on the origin path if the
// engine has it, origins reset on leave.
struct HubPair {
  HubPair(bool per_path_nack)
      : reference(per_path_nack, {0, 1, 2}),
        history(per_path_nack),
        shadow(per_path_nack) {}

  void OnSent(int leg, PathId path, const RtpPacket& packet) {
    reference.OnSent(leg, path, packet);
    history.OnSent(leg, packet);
    shadow.OnSent(leg, path, packet);
  }
  void Nack(int leg, PathId report_path, const converge::Nack& nack,
            Timestamp now, int64_t step) {
    int64_t step_aged = 0;
    int64_t step_counted = 0;
    const std::vector<Answer> want = reference.HandleNack(
        leg, report_path,
        shadow.InsideHorizon(leg, report_path, nack, &step_aged,
                             &step_counted),
        now);
    const int64_t misses_before = history.horizon_misses();
    std::vector<Answer> got;
    history.AnswerNack(leg, report_path, nack, now,
                       [&](RtpPacket rtx, PathId target, uint16_t seq) {
                         if (target < 0 || target > 2) return false;
                         got.push_back({target, target, seq, std::move(rtx)});
                         return true;
                       });
    ExpectSameAnswers(want, got, step);
    ExpectAgedCounted(step_counted,
                      history.horizon_misses() - misses_before, step);
    answers += static_cast<int64_t>(want.size());
    aged += step_aged;
  }
  void Reset(int leg) {
    reference.ResetOrigin(leg);
    history.ForgetLeg(leg);
    shadow.Forget(leg);
  }

  ReferenceHub reference;
  RtxHistory history;
  HorizonShadow shadow;
  int64_t answers = 0;
  int64_t aged = 0;  // NACKed seqs the reference held beyond the horizon
};

// Three mp_seq wraps on the busiest (leg, path) at 0.6 * 0.6 of all sends.
constexpr int64_t kSenderSteps = 420'000;
constexpr int64_t kHubSteps = 700'000;

TEST(RtxHistoryTest, PerPathSenderMatchesReference) {
  SenderPair pair(/*per_path_nack=*/true);
  Workload workload(11, {0});
  workload.Run(kSenderSteps, /*resets=*/false, pair);
  EXPECT_GE(workload.max_wraps(), 3);
  EXPECT_GT(pair.answers, 5'000);
  EXPECT_GT(pair.aged, 1'000);
  EXPECT_GT(pair.history.horizon_misses(), 100);
}

TEST(RtxHistoryTest, LegacySenderMatchesReference) {
  SenderPair pair(/*per_path_nack=*/false);
  Workload workload(12, {0});
  workload.Run(kSenderSteps, /*resets=*/false, pair);
  EXPECT_GE(workload.max_wraps(), 3);
  EXPECT_GT(pair.answers, 5'000);
  EXPECT_GT(pair.aged, 1'000);
  EXPECT_GT(pair.history.horizon_misses(), 50);
}

TEST(RtxHistoryTest, PerPathHubMatchesReferenceAcrossResets) {
  HubPair pair(/*per_path_nack=*/true);
  Workload workload(13, {1, 2, 3, 5});
  workload.Run(kHubSteps, /*resets=*/true, pair);
  EXPECT_GE(workload.max_wraps(), 3);
  EXPECT_GT(pair.answers, 5'000);
  EXPECT_GT(pair.aged, 1'000);
  EXPECT_GT(pair.history.horizon_misses(), 100);
}

TEST(RtxHistoryTest, LegacyHubMatchesReferenceAcrossResets) {
  HubPair pair(/*per_path_nack=*/false);
  Workload workload(14, {1, 2, 3, 5});
  workload.Run(kHubSteps, /*resets=*/true, pair);
  EXPECT_GE(workload.max_wraps(), 3);
  EXPECT_GT(pair.answers, 5'000);
  EXPECT_GT(pair.aged, 1'000);
  EXPECT_GT(pair.history.horizon_misses(), 50);
}

// ---- Directed ---------------------------------------------------------------

RtpPacket Media(uint32_t ssrc, uint16_t seq, PathId path, uint16_t mp_seq) {
  RtpPacket p;
  p.ssrc = ssrc;
  p.seq = seq;
  p.path_id = path;
  p.mp_seq = mp_seq;
  p.frame_id = 9;
  return p;
}

Nack PerPathNack(uint16_t mp_seq) { return Nack{0, {mp_seq}}; }

// Answers collected from one AnswerNack call; `accept` is the engine's
// verdict on queuing them.
std::vector<Answer> AnswerAll(RtxHistory& history, int leg, PathId report,
                              const Nack& nack, Timestamp now,
                              bool accept = true) {
  std::vector<Answer> out;
  history.AnswerNack(leg, report, nack, now,
                     [&](RtpPacket rtx, PathId origin, uint16_t seq) {
                       out.push_back({origin, origin, seq, std::move(rtx)});
                       return accept;
                     });
  return out;
}

TEST(RtxHistoryTest, DedupWindowEndsAtFortyMilliseconds) {
  for (const bool per_path : {true, false}) {
    RtxHistory history(per_path);
    history.OnSent(0, Media(0x1000, 5, 1, 7));
    const Nack nack = per_path ? PerPathNack(7) : Nack{0x1000, {5}};
    const Timestamp t0 = Timestamp::Millis(100);
    // A declined answer does not open the window.
    EXPECT_EQ(AnswerAll(history, 0, 1, nack, t0, /*accept=*/false).size(),
              1u);
    EXPECT_EQ(AnswerAll(history, 0, 1, nack, t0).size(), 1u);
    EXPECT_TRUE(
        AnswerAll(history, 0, 1, nack, t0 + Duration::Micros(39'999))
            .empty());
    EXPECT_EQ(AnswerAll(history, 0, 1, nack, t0 + Duration::Millis(40))
                  .size(),
              1u);
  }
}

TEST(RtxHistoryTest, StampsBothFlavours) {
  RtxHistory per_path(true);
  per_path.OnSent(3, Media(0x1000, 5, 1, 7));
  const std::vector<Answer> mp =
      AnswerAll(per_path, 3, 1, PerPathNack(7), Timestamp::Zero());
  ASSERT_EQ(mp.size(), 1u);
  EXPECT_EQ(mp[0].origin, 1);
  EXPECT_EQ(mp[0].seq, 7);
  EXPECT_TRUE(mp[0].rtx.via_rtx);
  EXPECT_EQ(mp[0].rtx.priority, Priority::kRetransmit);
  EXPECT_EQ(mp[0].rtx.rtx_for_path, 1);
  EXPECT_EQ(mp[0].rtx.rtx_for_mp_seq, 7);
  EXPECT_EQ(mp[0].rtx.seq, 5);

  RtxHistory legacy(false);
  legacy.OnSent(3, Media(0x1000, 5, 2, 7));
  const std::vector<Answer> ls =
      AnswerAll(legacy, 3, 0, Nack{0x1000, {5}}, Timestamp::Zero());
  ASSERT_EQ(ls.size(), 1u);
  EXPECT_EQ(ls[0].origin, 2);  // the original path, not the report path
  EXPECT_EQ(ls[0].seq, 5);
  EXPECT_TRUE(ls[0].rtx.via_rtx);
  EXPECT_EQ(ls[0].rtx.priority, Priority::kRetransmit);
  EXPECT_EQ(ls[0].rtx.rtx_for_path, kInvalidPathId);
  EXPECT_EQ(ls[0].rtx.rtx_for_mp_seq, 0);
  // Another leg's NACK for the same (ssrc, seq) names nothing.
  EXPECT_TRUE(
      AnswerAll(legacy, 4, 0, Nack{0x1000, {5}}, Timestamp::Zero()).empty());
}

TEST(RtxHistoryTest, IgnoresTheOtherFlavour) {
  RtxHistory per_path(true);
  RtxHistory legacy(false);
  for (RtxHistory* h : {&per_path, &legacy}) {
    h->OnSent(0, Media(0x1000, 5, 0, 5));
  }
  EXPECT_TRUE(
      AnswerAll(per_path, 0, 0, Nack{0x1000, {5}}, Timestamp::Zero()).empty());
  EXPECT_TRUE(
      AnswerAll(legacy, 0, 0, PerPathNack(5), Timestamp::Zero()).empty());
}

// A per-path window keeps a packet while no newer send on it is more than
// kSentHistoryHorizon later. A NACK for a packet past that is declined and
// counted; one for a value the window never held is declined uncounted.
TEST(RtxHistoryTest, PerPathWindowAgesOutAndCountsMisses) {
  RtxHistory history(/*per_path_nack=*/true);
  const Timestamp t0 = Timestamp::Millis(3);
  auto send = [&](uint16_t mp_seq, Timestamp at) {
    RtpPacket p = Media(0x1000, mp_seq, 0, mp_seq);
    p.send_time = at;
    history.OnSent(0, p);
  };
  send(0, t0);
  send(1, t0 + kSentHistoryHorizon);  // exactly the horizon later
  EXPECT_EQ(AnswerAll(history, 0, 0, PerPathNack(0), t0).size(), 1u);

  send(2, t0 + kSentHistoryHorizon + Duration::Micros(1));
  const Timestamp late = t0 + kSentHistoryHorizon + Duration::Seconds(1);
  EXPECT_TRUE(AnswerAll(history, 0, 0, PerPathNack(0), late).empty());
  EXPECT_EQ(history.horizon_misses(), 1);
  EXPECT_TRUE(AnswerAll(history, 0, 0, PerPathNack(900), late).empty());
  EXPECT_EQ(history.horizon_misses(), 1);
  EXPECT_EQ(AnswerAll(history, 0, 0, PerPathNack(1), late).size(), 1u);
  EXPECT_EQ(history.pages_allocated(), 1u);
}

TEST(RtxHistoryTest, ForgetLegKeepsOtherLegsAndDedupRecords) {
  RtxHistory history(true);
  history.OnSent(1, Media(0x1000, 5, 0, 0));
  history.OnSent(2, Media(0x2000, 5, 0, 0));
  const Timestamp t0 = Timestamp::Millis(10);
  ASSERT_EQ(AnswerAll(history, 1, 0, PerPathNack(0), t0).size(), 1u);
  history.ForgetLeg(1);
  EXPECT_TRUE(AnswerAll(history, 1, 0, PerPathNack(0), t0).empty());
  EXPECT_EQ(AnswerAll(history, 2, 0, PerPathNack(0), t0).size(), 1u);
  // The rejoined leg restarts at mp_seq 0; the dedup record of its previous
  // life still suppresses a repeat inside the window.
  history.OnSent(1, Media(0x3000, 1, 0, 0));
  EXPECT_TRUE(AnswerAll(history, 1, 0, PerPathNack(0),
                        t0 + Duration::Millis(39))
                  .empty());
  const std::vector<Answer> after =
      AnswerAll(history, 1, 0, PerPathNack(0), t0 + Duration::Millis(40));
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].rtx.ssrc, 0x3000u);
}

// ---- What the 4,096-entry caps dropped ------------------------------------
// The legacy and dedup maps were capped by count and evicted their smallest
// key, so the lower SSRC lost its packets first and a wrapped seq was
// dropped as soon as it was written. The windows keep every packet of the
// horizon and the dedup list every answer of the window.

TEST(RtxHistoryTest, LegacyKeepsTheLowerSsrcsNewestPacket) {
  RtxHistory history(/*per_path_nack=*/false);
  Timestamp now = Timestamp::Millis(1);
  // 10,000 held over 5 s; the upper SSRC alone fills the old cap.
  constexpr uint16_t kPerSsrc = 5000;
  for (uint16_t seq = 0; seq < kPerSsrc; ++seq) {
    for (const uint32_t ssrc : {0x1000u, 0x2000u}) {
      RtpPacket p = Media(ssrc, seq, static_cast<PathId>(seq % 2), seq);
      p.send_time = now;
      history.OnSent(0, p);
      now = now + Duration::Micros(500);
    }
  }
  const std::vector<Answer> newest =
      AnswerAll(history, 0, 0, Nack{0x1000, {kPerSsrc - 1}}, now);
  ASSERT_EQ(newest.size(), 1u);
  EXPECT_EQ(newest[0].rtx.ssrc, 0x1000u);
  EXPECT_EQ(newest[0].origin, 1);  // the path the original left on
  EXPECT_EQ(AnswerAll(history, 0, 0, Nack{0x1000, {0}}, now).size(), 1u);
  EXPECT_EQ(history.horizon_misses(), 0);
}

TEST(RtxHistoryTest, LegacyKeepsThePacketJustSentAfterAWrap) {
  RtxHistory history(/*per_path_nack=*/false);
  Timestamp now = Timestamp::Millis(1);
  uint16_t seq = 65536 - 5000;
  for (int i = 0; i < 5003; ++i, ++seq) {  // ends three packets past 65535
    RtpPacket p = Media(0x1000, seq, 0, static_cast<uint16_t>(i));
    p.send_time = now;
    history.OnSent(0, p);
    now = now + Duration::Millis(1);
  }
  const uint16_t just_sent = static_cast<uint16_t>(seq - 1);
  ASSERT_EQ(just_sent, 2);
  const std::vector<Answer> answers =
      AnswerAll(history, 0, 0, Nack{0x1000, {just_sent, 65535}}, now);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0].rtx.seq, just_sent);
  EXPECT_EQ(answers[1].rtx.seq, 65535);
}

TEST(RtxHistoryTest, DedupDeclinesARepeatAfterManyAnswersAcrossAWrap) {
  RtxHistory history(/*per_path_nack=*/true);
  Timestamp now = Timestamp::Millis(1);
  Nack all{0, {}};
  uint16_t mp_seq = 65536 - 5000;
  for (int i = 0; i < 5010; ++i, ++mp_seq) {
    RtpPacket p = Media(0x1000, static_cast<uint16_t>(i), 0, mp_seq);
    p.send_time = now;
    history.OnSent(0, p);
    all.seqs.push_back(mp_seq);
    now = now + Duration::Millis(1);
  }
  ASSERT_EQ(AnswerAll(history, 0, 0, all, now).size(), all.seqs.size());
  const uint16_t newest = all.seqs.back();
  ASSERT_LT(newest, 16);  // past the wrap
  EXPECT_TRUE(AnswerAll(history, 0, 0, PerPathNack(newest),
                        now + Duration::Micros(39'999))
                  .empty());
  EXPECT_TRUE(AnswerAll(history, 0, 0, PerPathNack(all.seqs.front()),
                        now + Duration::Micros(39'999))
                  .empty());
  EXPECT_EQ(AnswerAll(history, 0, 0, PerPathNack(newest),
                      now + Duration::Millis(40))
                .size(),
            1u);
}

// A legacy window ages like a per-path one: a NACK for a packet more than
// the horizon older than the flow's newest send is declined and counted.
TEST(RtxHistoryTest, LegacyWindowAgesOutAndCountsMisses) {
  RtxHistory history(/*per_path_nack=*/false);
  const Timestamp t0 = Timestamp::Millis(3);
  auto send = [&](uint32_t ssrc, uint16_t seq, Timestamp at) {
    RtpPacket p = Media(ssrc, seq, 0, seq);
    p.send_time = at;
    history.OnSent(0, p);
  };
  send(0x1000, 10, t0);
  send(0x2000, 10, t0);
  send(0x1000, 11, t0 + kSentHistoryHorizon + Duration::Micros(1));
  const Timestamp late = t0 + kSentHistoryHorizon + Duration::Seconds(1);
  EXPECT_TRUE(AnswerAll(history, 0, 0, Nack{0x1000, {10}}, late).empty());
  EXPECT_EQ(history.horizon_misses(), 1);
  // The other SSRC's window ages against its own sends only.
  EXPECT_EQ(AnswerAll(history, 0, 0, Nack{0x2000, {10}}, late).size(), 1u);
  EXPECT_TRUE(AnswerAll(history, 0, 0, Nack{0x1000, {12}}, late).empty());
  EXPECT_EQ(history.horizon_misses(), 1);
}


// ---- The compact slot -------------------------------------------------------

// Every RtpPacket field of an answer against the full packet stamped as the
// engines stamped it before slots were compact, but mp_transport_seq (the
// egress stamps it afresh).
void ExpectSameRtx(const RtpPacket& got, const RtpPacket& want) {
  EXPECT_EQ(got.capture_time, want.capture_time);
  EXPECT_EQ(got.send_time, want.send_time);
  EXPECT_TRUE(got.fec == nullptr);
  EXPECT_EQ(got.ssrc, want.ssrc);
  EXPECT_EQ(got.rtp_timestamp, want.rtp_timestamp);
  EXPECT_EQ(got.frame_id, want.frame_id);
  EXPECT_EQ(got.gop_id, want.gop_id);
  EXPECT_EQ(got.payload_bytes, want.payload_bytes);
  EXPECT_EQ(got.seq, want.seq);
  EXPECT_EQ(got.mp_seq, want.mp_seq);
  EXPECT_EQ(got.rtx_for_mp_seq, want.rtx_for_mp_seq);
  EXPECT_EQ(got.path_id, want.path_id);
  EXPECT_EQ(got.rtx_for_path, want.rtx_for_path);
  EXPECT_EQ(got.stream_id, want.stream_id);
  EXPECT_EQ(got.qp, want.qp);
  EXPECT_EQ(got.payload_type, want.payload_type);
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.frame_kind, want.frame_kind);
  EXPECT_EQ(got.priority, want.priority);
  EXPECT_EQ(got.spatial_id, want.spatial_id);
  EXPECT_EQ(got.num_spatial, want.num_spatial);
  EXPECT_EQ(got.temporal_id, want.temporal_id);
  EXPECT_EQ(got.num_temporal, want.num_temporal);
  EXPECT_EQ(got.marker, want.marker);
  EXPECT_EQ(got.first_in_frame, want.first_in_frame);
  EXPECT_EQ(got.last_in_frame, want.last_in_frame);
  EXPECT_EQ(got.via_fec, want.via_fec);
  EXPECT_EQ(got.via_rtx, want.via_rtx);
  EXPECT_EQ(got.is_probe_duplicate, want.is_probe_duplicate);
  EXPECT_EQ(got.wire_size(), want.wire_size());
}

// Randomized media-like packets, each layer nibble through all 16 values
// and each flag and small enum through all of its values, in both NACK
// flavours: the answer built from the slot equals the full packet's.
TEST(RtxHistoryTest, SlotRebuildsTheSentPacket) {
  ScopedInvariants guard;
  std::mt19937_64 rng(21);
  for (const bool per_path : {true, false}) {
    RtxHistory history(per_path);
    Timestamp now = Timestamp::Zero();
    for (int i = 0; i < 4096; ++i) {
      RtpPacket p;
      p.capture_time = Timestamp::Micros(static_cast<int64_t>(rng() >> 20));
      // Offsets of either sign, up to the int32 microsecond bounds.
      const int64_t offset =
          i % 64 == 0   ? std::numeric_limits<int32_t>::max()
          : i % 64 == 1 ? std::numeric_limits<int32_t>::min()
                        : static_cast<int64_t>(rng() % 4'000'000) - 1'000'000;
      p.send_time = p.capture_time + Duration::Micros(offset);
      p.ssrc = static_cast<uint32_t>(rng()) | 1u;  // legacy NACKs name it
      p.rtp_timestamp = static_cast<uint32_t>(rng());
      p.frame_id = static_cast<int32_t>(rng());
      p.gop_id = static_cast<int32_t>(rng());
      p.payload_bytes = i % 64 == 2 ? std::numeric_limits<uint16_t>::max()
                                    : static_cast<int32_t>(rng() % 65536);
      p.seq = static_cast<uint16_t>(per_path ? rng() : i);
      p.mp_seq = static_cast<uint16_t>(per_path ? i : rng());
      p.mp_transport_seq = static_cast<uint16_t>(rng());
      p.path_id = static_cast<PathId>(rng() % (kMaxPacketPathId + 1));
      p.stream_id = static_cast<uint8_t>(rng());
      p.qp = static_cast<uint8_t>(rng());
      p.payload_type = static_cast<uint8_t>(rng());
      p.kind = i % 3 == 0   ? PayloadKind::kMedia
               : i % 3 == 1 ? PayloadKind::kPps
                            : PayloadKind::kSps;
      p.frame_kind = (i >> 1) % 2 == 0 ? FrameKind::kKey : FrameKind::kDelta;
      p.priority = static_cast<Priority>(1 + rng() % 6);
      p.spatial_id = i % 16;
      p.num_spatial = (i / 16) % 16;
      p.temporal_id = (i / 256) % 16;
      p.num_temporal = (i * 7 + 3) % 16;
      const int flags = i % 32;
      p.marker = flags & 1;
      p.first_in_frame = flags & 2;
      p.last_in_frame = flags & 4;
      p.via_fec = flags & 8;
      p.is_probe_duplicate = flags & 16;
      // A legacy window takes originals only; a per-path one RTX copies
      // too.
      p.via_rtx = per_path && (i / 32) % 2 == 1;
      if (p.via_rtx) {
        p.rtx_for_path = static_cast<PathId>(rng() % 3);
        p.rtx_for_mp_seq = static_cast<uint16_t>(rng());
      }
      history.OnSent(0, p);

      const PathId report = per_path ? p.path_id : 0;
      const Nack nack =
          per_path ? PerPathNack(p.mp_seq) : Nack{p.ssrc, {p.seq}};
      now = now + Duration::Millis(50);
      const std::vector<Answer> got = AnswerAll(history, 0, report, nack, now);
      ASSERT_EQ(got.size(), 1u) << "packet " << i;
      RtpPacket want = p;
      want.via_rtx = true;
      want.priority = Priority::kRetransmit;
      want.rtx_for_path = per_path ? report : kInvalidPathId;
      want.rtx_for_mp_seq = per_path ? p.mp_seq : 0;
      EXPECT_EQ(got[0].origin, per_path ? report : p.path_id);
      SCOPED_TRACE(testing::Message() << "packet " << i);
      ExpectSameRtx(got[0].rtx, want);
    }
  }
  EXPECT_EQ(InvariantRegistry::violation_count(), 0);
}

// What a slot cannot hold is reported, not wrapped silently: a send time
// more than the int32 microsecond range from capture, a payload over 16
// bits, and an FEC block on a media-like packet.
TEST(RtxHistoryTest, SlotReportsWhatItCannotHold) {
  ScopedInvariants guard;
  RtxHistory history(/*per_path_nack=*/true);
  RtpPacket late = Media(0x1000, 1, 0, 1);
  late.send_time =
      late.capture_time +
      Duration::Micros(int64_t{std::numeric_limits<int32_t>::max()} + 1);
  history.OnSent(0, late);
  EXPECT_EQ(InvariantRegistry::violation_count(), 1);
  RtpPacket big = Media(0x1000, 2, 0, 2);
  big.payload_bytes = 65536;
  history.OnSent(0, big);
  EXPECT_EQ(InvariantRegistry::violation_count(), 2);
  RtpPacket with_fec = Media(0x1000, 3, 0, 3);
  with_fec.fec = FecMetaRef::Make(FecBlockMeta{});
  history.OnSent(0, with_fec);
  EXPECT_EQ(InvariantRegistry::violation_count(), 3);
}

// ---- Frame records against whole packets ------------------------------------
// A window keeps a frame's shared fields once per run of its packets. The
// reference keeps every packet whole, trimmed as a window trims: in key
// order from the oldest held key, up to the first one a new send has not
// aged past the horizon. Frame-structured traffic (interleaved simulcast
// streams, SPS and PPS inside keyframes, RTX copies of old frames, FEC and
// probes, legacy packets of one SSRC swapped between two pacers, and legs
// that leave and rejoin) drives both through several 16-bit wraps, in
// stretches dense enough that wraps overwrite and sparse enough that the
// age bound trims. Every answer must equal the reference's in every field
// but mp_transport_seq.

class WholePacketReference {
 public:
  explicit WholePacketReference(bool per_path_nack)
      : per_path_nack_(per_path_nack) {}

  void OnSent(int leg, const RtpPacket& packet) {
    if (!per_path_nack_ && (!packet.IsMediaLike() || packet.via_rtx)) return;
    Flow& flow = flows_[{leg, FlowId(packet)}];
    const uint16_t seq = Key(packet);
    flow.Remove(seq);
    if (packet.IsMediaLike()) flow.Add(seq, packet);
    flow.Trim(packet.send_time);
  }

  void ForgetLeg(int leg) {
    for (auto it = flows_.begin(); it != flows_.end();) {
      it = it->first.first == leg ? flows_.erase(it) : std::next(it);
    }
  }

  // Whether `packet` is still held under its key.
  bool Holds(int leg, const RtpPacket& packet) const {
    auto it = flows_.find({leg, FlowId(packet)});
    if (it == flows_.end()) return false;
    auto held = it->second.held.find(Key(packet));
    return held != it->second.held.end() &&
           held->second.send_time == packet.send_time;
  }

  std::vector<Answer> AnswerNack(int leg, PathId report, const Nack& nack,
                                 Timestamp now) {
    std::vector<Answer> out;
    const bool per_path = nack.ssrc == 0;
    if (per_path != per_path_nack_) return out;
    const int64_t id = per_path ? int64_t{report} : int64_t{nack.ssrc};
    auto it = flows_.find({leg, id});
    if (it == flows_.end()) return out;
    for (uint16_t seq : nack.seqs) {
      auto held = it->second.held.find(seq);
      if (held == it->second.held.end()) continue;
      const auto key = std::make_tuple(leg, id, seq);
      auto last = answered_.find(key);
      if (last != answered_.end() &&
          now - last->second < RtxHistory::kDedupWindow) {
        continue;
      }
      answered_[key] = now;
      RtpPacket rtx = held->second;
      rtx.via_rtx = true;
      rtx.priority = Priority::kRetransmit;
      rtx.rtx_for_path = per_path ? report : kInvalidPathId;
      rtx.rtx_for_mp_seq = per_path ? seq : 0;
      const PathId origin = per_path ? report : rtx.path_id;
      out.push_back({origin, origin, seq, rtx});
    }
    return out;
  }

 private:
  struct Flow {
    std::map<uint16_t, RtpPacket> held;
    std::deque<uint16_t> order;  // the held keys, oldest first

    void Add(uint16_t seq, const RtpPacket& packet) {
      held[seq] = packet;
      // A key behind the newest goes to its place in key order.
      auto at = order.end();
      while (at != order.begin() &&
             static_cast<int16_t>(seq - *std::prev(at)) < 0) {
        --at;
      }
      order.insert(at, seq);
    }
    void Remove(uint16_t seq) {
      if (held.erase(seq) == 0) return;
      order.erase(std::find(order.begin(), order.end(), seq));
    }
    void Trim(Timestamp now) {
      while (!order.empty() &&
             now - held.at(order.front()).send_time > kSentHistoryHorizon) {
        held.erase(order.front());
        order.pop_front();
      }
    }
  };

  int64_t FlowId(const RtpPacket& packet) const {
    return per_path_nack_ ? int64_t{packet.path_id} : int64_t{packet.ssrc};
  }
  uint16_t Key(const RtpPacket& packet) const {
    return per_path_nack_ ? packet.mp_seq : packet.seq;
  }

  bool per_path_nack_;
  std::map<std::pair<int, int64_t>, Flow> flows_;
  std::map<std::tuple<int, int64_t, uint16_t>, Timestamp> answered_;
};

// Legs send frames on three simulcast streams, a packet at a time, the
// streams' packets interleaved on the paths. Leg 0 never leaves and sends
// most, mostly on path 0 and stream 0, so those flows wrap.
class FrameWorkload {
 public:
  FrameWorkload(uint64_t seed, bool per_path_nack)
      : rng_(seed), per_path_nack_(per_path_nack) {
    for (int leg = 0; leg < kLegs; ++leg) Join(leg);
  }

  template <typename Check>
  void Run(int64_t steps, RtxHistory& history,
           WholePacketReference& reference, Check&& check) {
    for (int64_t step = 0; step < steps && !testing::Test::HasFailure();
         ++step) {
      // 200,000-step stretches: ~50 us apart, so a busy flow's seqs wrap
      // inside the horizon, and ~350 us apart, so the age bound trims.
      const bool dense = (step / 200'000) % 2 == 0;
      now_ = now_ + Duration::Micros(static_cast<int64_t>(
                        dense ? 20 + rng_() % 60 : 100 + rng_() % 500));
      const uint64_t roll = rng_() % 1000;
      if (roll < 880) {
        const int leg = rng_() % 10 < 6 ? 0 : static_cast<int>(rng_() % kLegs);
        for (const RtpPacket& packet : NextPackets(leg)) {
          history.OnSent(leg, packet);
          reference.OnSent(leg, packet);
        }
      } else if (roll < 999 || rng_() % 30 != 0) {
        const int leg = static_cast<int>(rng_() % kLegs);
        const PathId report = static_cast<PathId>(rng_() % 3);
        const Nack nack = MakeNack(leg, report);
        const std::vector<Answer> want =
            reference.AnswerNack(leg, report, nack, now_);
        std::vector<Answer> got;
        history.AnswerNack(leg, report, nack, now_,
                           [&](RtpPacket rtx, PathId origin, uint16_t seq) {
                             got.push_back({origin, origin, seq, rtx});
                             return true;
                           });
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE(testing::Message() << "step " << step << " answer "
                                          << i << " seq " << want[i].seq);
          ASSERT_EQ(got[i].origin, want[i].origin);
          ASSERT_EQ(got[i].seq, want[i].seq);
          ExpectSameRtx(got[i].rtx, want[i].rtx);
        }
        answers_ += static_cast<int64_t>(want.size());
      } else {
        // A leg other than 0 leaves and rejoins: new SSRCs and seqs, its
        // per-path seqs from 0.
        const int leg = 1 + static_cast<int>(rng_() % (kLegs - 1));
        history.ForgetLeg(leg);
        reference.ForgetLeg(leg);
        Join(leg);
        ++rejoins_;
      }
      if (step % 2'000 == 0) check(step);
    }
  }

  // Most wraps one flow's keys made within one life of its leg.
  int max_wraps() const {
    int best = 0;
    for (const auto& [flow, wraps] : wraps_) best = std::max(best, wraps);
    return best;
  }
  int64_t answers() const { return answers_; }
  int64_t rejoins() const { return rejoins_; }
  int64_t swaps() const { return swaps_; }
  // Legacy packets sent ahead of the one before them (whose key is behind
  // theirs), paired with their leg, still held by `reference`. Each can
  // keep one drained record in its window's ring: the one its late
  // neighbour made, behind its own frame's record.
  int64_t HeldAheadOfSwaps(const WholePacketReference& reference) {
    std::erase_if(ahead_, [&](const std::pair<int, RtpPacket>& a) {
      return !reference.Holds(a.first, a.second);
    });
    return static_cast<int64_t>(ahead_.size());
  }

  static constexpr int kLegs = 4;

 private:
  struct Stream {
    uint32_t ssrc = 0;
    uint16_t seq = 0;
    int32_t frame_id = 0;
    int32_t gop_id = -1;
    std::vector<RtpPacket> frame;  // its current frame's unsent packets
  };
  struct Leg {
    Stream streams[3];
    std::map<PathId, uint16_t> mp_seq;
    std::deque<RtpPacket> sent;  // recent media-like originals, for RTX
  };

  void Join(int leg) {
    Leg& l = legs_[leg];
    l = Leg{};
    for (uint32_t s = 0; s < 3; ++s) {
      l.streams[s].ssrc = 0x1000u + 0x100u * static_cast<uint32_t>(joins_) + s;
      l.streams[s].seq = static_cast<uint16_t>(rng_());
    }
    for (auto it = wraps_.begin(); it != wraps_.end();) {
      it = std::get<0>(it->first) == leg ? wraps_.erase(it) : std::next(it);
    }
    ++joins_;
  }

  // Captures `stream`'s next frame: a keyframe (SPS, PPS, then slices)
  // every 30 frames, else 1 to 6 delta slices; stream 0 sends more.
  void Capture(Leg& l, int s) {
    Stream& st = l.streams[s];
    const bool key = st.frame_id % 30 == 0;
    if (key) ++st.gop_id;
    RtpPacket p;
    p.capture_time = now_;
    p.ssrc = st.ssrc;
    p.rtp_timestamp = static_cast<uint32_t>(now_.us() * 9 / 100);
    p.frame_id = st.frame_id++;
    p.gop_id = st.gop_id;
    p.stream_id = static_cast<uint8_t>(s);
    p.qp = static_cast<uint8_t>(20 + rng_() % 20);
    p.payload_type = static_cast<uint8_t>(96 + s);
    p.spatial_id = s;
    p.num_spatial = 3;
    p.temporal_id = p.frame_id % 2;
    p.num_temporal = 2;
    p.frame_kind = key ? FrameKind::kKey : FrameKind::kDelta;
    std::vector<PayloadKind> kinds;
    if (key) kinds = {PayloadKind::kSps, PayloadKind::kPps};
    const int slices = 1 + static_cast<int>(rng_() % (s == 0 ? 6 : 2)) +
                       (key ? 3 : 0);
    kinds.insert(kinds.end(), static_cast<size_t>(slices), PayloadKind::kMedia);
    for (size_t i = 0; i < kinds.size(); ++i) {
      RtpPacket q = p;
      q.kind = kinds[i];
      q.payload_bytes = static_cast<int32_t>(
          kinds[i] == PayloadKind::kMedia ? 200 + rng_() % 1000 : 20);
      q.first_in_frame = i == 0;
      q.last_in_frame = i + 1 == kinds.size();
      q.marker = q.last_in_frame;
      q.priority = key ? Priority::kKeyframe : Priority::kNone;
      st.frame.push_back(q);
    }
    std::reverse(st.frame.begin(), st.frame.end());  // sent from the back
  }

  // Stamps `packet` for `path` as the egress would and records the wrap.
  RtpPacket Dispatch(int leg, RtpPacket packet) {
    const PathId path = rng_() % 10 < 6 ? 0 : static_cast<PathId>(rng_() % 3);
    uint16_t& next = legs_[leg].mp_seq[path];
    packet.path_id = path;
    packet.mp_seq = next++;
    packet.mp_transport_seq = static_cast<uint16_t>(rng_());
    packet.send_time = now_;
    if (next == 0) ++wraps_[{leg, path, 0}];
    if (!packet.via_rtx && packet.IsMediaLike() && packet.seq == 0xFFFF) {
      ++wraps_[{leg, -1, packet.ssrc}];
    }
    return packet;
  }

  // The packets the leg sends at this instant: usually one, two when a
  // legacy pair is swapped.
  std::vector<RtpPacket> NextPackets(int leg) {
    Leg& l = legs_[leg];
    const uint64_t roll = rng_() % 100;
    if (roll < 4 && !l.sent.empty()) {
      // An RTX copy of an earlier frame's packet, up to seconds old.
      RtpPacket rtx = l.sent[rng_() % l.sent.size()];
      rtx.via_rtx = true;
      rtx.priority = Priority::kRetransmit;
      rtx.rtx_for_path = static_cast<PathId>(rng_() % 3);
      rtx.rtx_for_mp_seq = static_cast<uint16_t>(rng_());
      return {Dispatch(leg, rtx)};
    }
    if (roll < 10) {
      RtpPacket other;
      other.kind = roll < 8 ? PayloadKind::kFec : PayloadKind::kProbe;
      other.ssrc = l.streams[0].ssrc;
      other.seq = static_cast<uint16_t>(rng_());
      other.capture_time = now_;
      other.priority = roll < 8 ? Priority::kFec : Priority::kNone;
      other.is_probe_duplicate = roll >= 8;
      return {Dispatch(leg, other)};
    }
    // Stream 0 carries most packets; the streams' frames interleave.
    const int s = rng_() % 10 < 7 ? 0 : 1 + static_cast<int>(rng_() % 2);
    Stream& st = l.streams[s];
    if (st.frame.empty()) Capture(l, s);
    std::vector<RtpPacket> out = {st.frame.back()};
    st.frame.pop_back();
    out[0].seq = st.seq++;
    // Two pacers: a legacy flow's next packet, of this frame or the next
    // one, leaves ahead of this one now and then.
    if (rng_() % 8 == 0) {
      if (st.frame.empty()) Capture(l, s);
      RtpPacket ahead = st.frame.back();
      st.frame.pop_back();
      ahead.seq = st.seq++;
      out.insert(out.begin(), ahead);
      ++swaps_;
    }
    for (RtpPacket& p : out) {
      p = Dispatch(leg, p);
      l.sent.push_back(p);
      if (l.sent.size() > 4'000) l.sent.pop_front();
    }
    if (out.size() == 2 && !per_path_nack_) ahead_.emplace_back(leg, out[0]);
    return out;
  }

  // 1 to 5 recent, old or arbitrary keys of one flow of `leg`. NACKs come
  // every few hundred microseconds, so recent keys repeat inside the dedup
  // window.
  Nack MakeNack(int leg, PathId report) {
    Leg& l = legs_[leg];
    Nack nack;
    uint16_t head;
    if (per_path_nack_) {
      head = l.mp_seq[report];
    } else {
      const Stream& st = l.streams[rng_() % 10 < 7 ? 0 : 1 + rng_() % 2];
      nack.ssrc = st.ssrc;
      head = st.seq;
    }
    const int count = 1 + static_cast<int>(rng_() % 5);
    for (int i = 0; i < count; ++i) {
      const uint64_t r = rng_() % 20;
      nack.seqs.push_back(
          r < 14   ? static_cast<uint16_t>(head - 1 - rng_() % 300)
          : r < 18 ? static_cast<uint16_t>(head - 1 - rng_() % 60'000)
                   : static_cast<uint16_t>(rng_()));
    }
    return nack;
  }

  std::mt19937_64 rng_;
  bool per_path_nack_;
  Leg legs_[kLegs];
  // Wraps per (leg, path, 0) for mp_seq and (leg, -1, ssrc) for seq.
  std::map<std::tuple<int, int, uint32_t>, int> wraps_;
  std::vector<std::pair<int, RtpPacket>> ahead_;
  Timestamp now_ = Timestamp::Millis(1);
  int joins_ = 0;
  int64_t answers_ = 0;
  int64_t rejoins_ = 0;
  int64_t swaps_ = 0;
};

// A packet shares the newest frame record only when every per-frame field
// equals it: for each field, a packet that differs from the one before in
// that field alone is answered with its own value, in both flavours.
TEST(RtxHistoryTest, SharesAFrameRecordOnlyWhenEveryFrameFieldEquals) {
  using Change = void (*)(RtpPacket&);
  const Change changes[] = {
      [](RtpPacket& p) {
        p.capture_time = p.capture_time + Duration::Micros(1);
      },
      [](RtpPacket& p) { p.ssrc += 2; },
      [](RtpPacket& p) { ++p.rtp_timestamp; },
      [](RtpPacket& p) { ++p.frame_id; },
      [](RtpPacket& p) { ++p.gop_id; },
      [](RtpPacket& p) { ++p.stream_id; },
      [](RtpPacket& p) { ++p.qp; },
      [](RtpPacket& p) { ++p.payload_type; },
      [](RtpPacket& p) { p.spatial_id = p.spatial_id + 1; },
      [](RtpPacket& p) { p.num_spatial = p.num_spatial + 1; },
      [](RtpPacket& p) { p.temporal_id = p.temporal_id + 1; },
      [](RtpPacket& p) { p.num_temporal = p.num_temporal + 1; },
      [](RtpPacket& p) { p.frame_kind = FrameKind::kKey; },
  };
  for (const bool per_path : {true, false}) {
    RtxHistory history(per_path);
    uint16_t seq = 0;
    Timestamp now = Timestamp::Millis(1);
    for (const Change change : changes) {
      RtpPacket first = Media(0x1001, seq, 0, seq);
      first.capture_time = now;
      first.send_time = now;
      RtpPacket second = first;
      change(second);
      ++seq;
      second.seq = seq;
      second.mp_seq = seq;
      ++seq;
      SCOPED_TRACE(testing::Message()
                   << (per_path ? "per-path" : "legacy") << " change "
                   << seq / 2);
      for (const RtpPacket& sent : {first, second}) history.OnSent(0, sent);
      for (const RtpPacket& sent : {first, second}) {
        const Nack nack =
            per_path ? PerPathNack(sent.mp_seq) : Nack{sent.ssrc, {sent.seq}};
        const std::vector<Answer> got = AnswerAll(history, 0, 0, nack, now);
        ASSERT_EQ(got.size(), 1u);
        RtpPacket want = sent;
        want.via_rtx = true;
        want.priority = Priority::kRetransmit;
        want.rtx_for_path = per_path ? 0 : kInvalidPathId;
        want.rtx_for_mp_seq = per_path ? sent.mp_seq : 0;
        ExpectSameRtx(got[0].rtx, want);
      }
      now = now + Duration::Millis(1);
    }
    // One record per packet: no two consecutive packets agreed.
    EXPECT_EQ(history.frame_records().held, 2 * std::size(changes));
  }
}

void RunFrameRecordsAgainstWholePackets(bool per_path_nack, uint64_t seed) {
  RtxHistory history(per_path_nack);
  WholePacketReference reference(per_path_nack);
  FrameWorkload workload(seed, per_path_nack);
  int64_t checks = 0;
  int64_t drained_behind = 0;
  workload.Run(900'000, history, reference, [&](int64_t step) {
    // The records held never outnumber the distinct ones live slots name,
    // but for a record a swapped legacy pair's late packet made, behind
    // its held ahead packet's record; and no slot names a dropped record.
    const RtxHistory::FrameRecords records = history.frame_records();
    const int64_t allowed = workload.HeldAheadOfSwaps(reference);
    ASSERT_LE(records.referenced, records.held) << "step " << step;
    ASSERT_LE(records.held, records.referenced + static_cast<size_t>(allowed))
        << "step " << step;
    drained_behind +=
        static_cast<int64_t>(records.held - records.referenced);
    ++checks;
  });
  EXPECT_GE(workload.max_wraps(), 4);
  EXPECT_GT(workload.answers(), 20'000);
  EXPECT_GT(workload.rejoins(), 3);
  EXPECT_GT(workload.swaps(), 10'000);
  EXPECT_GT(checks, 400);
  if (per_path_nack) {
    EXPECT_EQ(drained_behind, 0);
  }
}

TEST(RtxHistoryTest, PerPathFrameRecordsMatchWholePackets) {
  RunFrameRecordsAgainstWholePackets(/*per_path_nack=*/true, 31);
}

TEST(RtxHistoryTest, LegacyFrameRecordsMatchWholePackets) {
  RunFrameRecordsAgainstWholePackets(/*per_path_nack=*/false, 32);
}

}  // namespace
}  // namespace converge
