#include "chaos/schedule.hpp"

#include <algorithm>

#include "common/bytes.hpp"
#include "sim/random.hpp"

namespace fastbft::chaos {

namespace {

constexpr std::uint8_t kScheduleVersion = 2;

const char* event_name(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::Crash: return "crash";
    case FaultEvent::Kind::Restart: return "restart";
    case FaultEvent::Kind::PartitionStart: return "partition";
    case FaultEvent::Kind::PartitionHeal: return "heal-partition";
    case FaultEvent::Kind::LinkFault: return "link-fault";
    case FaultEvent::Kind::LinkHeal: return "link-heal";
  }
  return "?";
}

}  // namespace

void Schedule::encode(Encoder& enc) const {
  enc.u8(kScheduleVersion);
  enc.u64(seed);
  enc.u32(n);
  enc.u32(f);
  enc.u32(t);
  enc.u32(shards);
  enc.u32(sessions);
  enc.u32(ops_per_session);
  enc.u32(key_space);
  enc.u32(pipeline_depth);
  enc.boolean(adaptive);
  enc.boolean(rotate_leaders);
  enc.u32(lying_mask);
  enc.u32(byz_gateway_mask);
  enc.boolean(corrupt_forwards);
  enc.boolean(unsafe_first_reply_quorum);
  enc.u64(static_cast<std::uint64_t>(horizon));
  enc.u32(static_cast<std::uint32_t>(faults.size()));
  for (const FaultEvent& ev : faults) {
    enc.u8(static_cast<std::uint8_t>(ev.kind));
    enc.u64(static_cast<std::uint64_t>(ev.at));
    enc.u32(ev.a);
    enc.u32(ev.b);
    enc.u32(ev.side_mask);
    enc.u64(static_cast<std::uint64_t>(ev.fault.extra_min));
    enc.u64(static_cast<std::uint64_t>(ev.fault.extra_max));
    enc.u32(ev.fault.drop_permille);
  }
}

std::optional<Schedule> Schedule::decode(Decoder& dec) {
  if (dec.u8() != kScheduleVersion) return std::nullopt;
  Schedule s;
  s.seed = dec.u64();
  s.n = dec.u32();
  s.f = dec.u32();
  s.t = dec.u32();
  s.shards = dec.u32();
  s.sessions = dec.u32();
  s.ops_per_session = dec.u32();
  s.key_space = dec.u32();
  s.pipeline_depth = dec.u32();
  s.adaptive = dec.boolean();
  s.rotate_leaders = dec.boolean();
  s.lying_mask = dec.u32();
  s.byz_gateway_mask = dec.u32();
  s.corrupt_forwards = dec.boolean();
  s.unsafe_first_reply_quorum = dec.boolean();
  s.horizon = static_cast<TimePoint>(dec.u64());
  std::uint32_t count = dec.u32();
  if (!dec.ok() || count > 10'000) return std::nullopt;
  s.faults.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    FaultEvent ev;
    std::uint8_t kind = dec.u8();
    if (kind < 1 || kind > 6) return std::nullopt;
    ev.kind = static_cast<FaultEvent::Kind>(kind);
    ev.at = static_cast<TimePoint>(dec.u64());
    ev.a = dec.u32();
    ev.b = dec.u32();
    ev.side_mask = dec.u32();
    ev.fault.extra_min = static_cast<Duration>(dec.u64());
    ev.fault.extra_max = static_cast<Duration>(dec.u64());
    ev.fault.drop_permille = dec.u32();
    s.faults.push_back(ev);
  }
  if (!dec.ok()) return std::nullopt;
  return s;
}

std::string Schedule::to_hex() const {
  Encoder enc;
  encode(enc);
  Bytes encoded = std::move(enc).take();
  return fastbft::to_hex(encoded);
}

std::optional<Schedule> Schedule::from_hex(std::string_view hex) {
  Bytes raw = fastbft::from_hex(hex);
  if (raw.empty()) return std::nullopt;
  Decoder dec{ByteView(raw)};
  auto s = decode(dec);
  if (!s || !dec.at_end()) return std::nullopt;
  return s;
}

std::string Schedule::to_string() const {
  std::string out = "schedule seed=" + std::to_string(seed) + " n=" +
                    std::to_string(n) + " f=" + std::to_string(f) +
                    " shards=" + std::to_string(shards) + " sessions=" +
                    std::to_string(sessions) + " ops=" +
                    std::to_string(ops_per_session) + " keys=" +
                    std::to_string(key_space) + " depth=" +
                    std::to_string(pipeline_depth);
  if (adaptive) out += " adaptive(retired, ignored)";
  if (rotate_leaders) out += " rotate";
  if (lying_mask) out += " liars=0x" + std::to_string(lying_mask);
  if (unsafe_first_reply_quorum) out += " UNSAFE-QUORUM";
  out += " horizon=" + std::to_string(horizon) + "\n";
  for (const FaultEvent& ev : faults) {
    out += "  @" + std::to_string(ev.at) + " " + event_name(ev.kind);
    switch (ev.kind) {
      case FaultEvent::Kind::Crash:
      case FaultEvent::Kind::Restart:
        out += " replica " + std::to_string(ev.a);
        break;
      case FaultEvent::Kind::PartitionStart:
        out += " sides=0b";
        for (std::uint32_t i = n; i-- > 0;) {
          out += (ev.side_mask >> i) & 1 ? '1' : '0';
        }
        break;
      case FaultEvent::Kind::PartitionHeal:
        break;
      case FaultEvent::Kind::LinkFault:
        out += " " + std::to_string(ev.a) + "->" + std::to_string(ev.b) +
               " delay=[" + std::to_string(ev.fault.extra_min) + "," +
               std::to_string(ev.fault.extra_max) + "] drop=" +
               std::to_string(ev.fault.drop_permille) + "/1000";
        break;
      case FaultEvent::Kind::LinkHeal:
        out += " " + std::to_string(ev.a) + "->" + std::to_string(ev.b);
        break;
    }
    out += "\n";
  }
  return out;
}

Schedule generate_schedule(std::uint64_t seed,
                           const ScenarioOptions& options) {
  sim::Rng rng(seed ^ 0x73636564756cULL);
  Schedule s;
  s.seed = seed;
  s.shards = options.shards;
  s.sessions = options.sessions;
  s.ops_per_session = options.ops_per_session;
  s.key_space = 4 + static_cast<std::uint32_t>(rng.next_below(8));
  s.pipeline_depth = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  s.rotate_leaders = rng.chance(1, 2);

  // Byzantine casting. The crash/restart victim and the lying replica
  // must be DIFFERENT replicas: the cluster's fault accounting admits at
  // most f crashed replicas, and the reply-quorum argument admits at most
  // f liars — with f = 1, one each, and a replica that both lies and
  // crashes would double-spend the budget the moment the other role is
  // also cast.
  ProcessId victim = static_cast<ProcessId>(rng.next_below(s.n));
  bool cast_liar = options.force_liar || rng.chance(1, 3);
  if (cast_liar) {
    ProcessId liar = victim;
    while (liar == victim) {
      liar = static_cast<ProcessId>(rng.next_below(s.n));
    }
    s.lying_mask = 1u << liar;
  }
  if (rng.chance(1, 3)) {
    // Retired fields (see Schedule::byz_gateway_mask), still drawn so the
    // rest of the schedule consumes the same random stream.
    s.byz_gateway_mask = 1u << rng.next_below(s.n);
    s.corrupt_forwards = rng.chance(1, 2);
  }

  // Fault timeline: crash/restart cycles only ever target `victim`
  // (budget above), partitions and link faults are free-form. Events land
  // in the first ~2/3 of the horizon so the tail is quiet enough for the
  // post-workload convergence drive.
  std::uint32_t num_events =
      1 + static_cast<std::uint32_t>(rng.next_below(options.max_fault_events));
  TimePoint window = s.horizon * 2 / 3;
  // Draw the event times first and sort them, THEN assign kinds in time
  // order: the crash/restart and partition state machines below reason in
  // time order, so pairings stay consistent without any post-hoc sort.
  std::vector<TimePoint> times;
  times.reserve(num_events);
  for (std::uint32_t i = 0; i < num_events; ++i) {
    times.push_back(1'000 + rng.next_in_range(0, window));
  }
  std::sort(times.begin(), times.end());
  bool victim_down = false;
  bool partitioned = false;
  for (std::uint32_t i = 0; i < num_events; ++i) {
    FaultEvent ev;
    ev.at = times[i];
    switch (rng.next_below(4)) {
      case 0:
        if (victim_down) {
          ev.kind = FaultEvent::Kind::Restart;
          ev.a = victim;
          victim_down = false;
        } else {
          ev.kind = FaultEvent::Kind::Crash;
          ev.a = victim;
          victim_down = true;
        }
        break;
      case 1:
        if (partitioned) {
          ev.kind = FaultEvent::Kind::PartitionHeal;
          partitioned = false;
        } else {
          ev.kind = FaultEvent::Kind::PartitionStart;
          // A nonempty proper subset of the replicas on side 1.
          ev.side_mask = 1 + static_cast<std::uint32_t>(
                                 rng.next_below((1u << s.n) - 2));
          partitioned = true;
        }
        break;
      case 2: {
        ev.kind = FaultEvent::Kind::LinkFault;
        ev.a = static_cast<ProcessId>(rng.next_below(s.n));
        ev.b = static_cast<ProcessId>(rng.next_below(s.n));
        if (ev.a == ev.b) ev.b = (ev.b + 1) % s.n;
        ev.fault.extra_min = rng.next_in_range(50, 400);
        ev.fault.extra_max =
            ev.fault.extra_min + rng.next_in_range(0, 1'500);
        ev.fault.drop_permille =
            static_cast<std::uint32_t>(rng.next_below(301));
        break;
      }
      default: {
        ev.kind = FaultEvent::Kind::LinkHeal;
        ev.a = static_cast<ProcessId>(rng.next_below(s.n));
        ev.b = static_cast<ProcessId>(rng.next_below(s.n));
        if (ev.a == ev.b) ev.b = (ev.b + 1) % s.n;
        break;
      }
    }
    s.faults.push_back(ev);
  }
  return s;
}

}  // namespace fastbft::chaos
