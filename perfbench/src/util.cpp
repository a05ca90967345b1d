#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.hpp"

namespace perfbench {

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double Rng::exponential(double mean) {
  return -mean * std::log(1.0 - uniform());
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x100000001b3ULL + stream);
  return rng.next();
}

OpStream::OpStream(std::uint64_t seed, std::uint32_t stream, double get_share)
    : rng_(mix_seed(seed, stream)), get_share_(get_share), stream_(stream) {}

Op OpStream::next() {
  Op op;
  op.is_get = rng_.uniform() < get_share_;
  op.key = rng_.below(kKeys);
  op.tag = ((stream_ & 0xF) << 32) | (count_++ & 0xFFFFFFFFULL);
  return op;
}

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04u", key);
  return buf;
}

namespace {

std::uint32_t value_check(std::uint32_t key, std::uint64_t tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t part : {static_cast<std::uint64_t>(key), tag}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (part >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return static_cast<std::uint32_t>(h & 0xFFFF);
}

}  // namespace

std::string make_value(std::uint32_t key, std::uint64_t tag,
                       std::size_t value_bytes) {
  // 16-byte header: 3 hex key digits, 9 hex tag digits, 4 hex check digits.
  char head[24];
  std::snprintf(head, sizeof(head), "%03x%09" PRIx64 "%04x", key & 0xFFF,
                static_cast<std::uint64_t>(tag & 0xFFFFFFFFFULL), value_check(key, tag));
  std::string value(head, 16);
  if (value_bytes > 16) {
    value.resize(value_bytes);
    Rng fill(tag * 31 + key);
    for (std::size_t i = 16; i < value_bytes; i += 8) {
      std::uint64_t r = fill.next();
      for (std::size_t j = i; j < std::min(i + 8, value_bytes); ++j) {
        value[j] = static_cast<char>('a' + (r & 0xF));
        r >>= 4;
      }
    }
  }
  return value;
}

std::vector<std::pair<std::string, std::string>> sentinel_plan(
    std::uint64_t seed) {
  Rng pick(mix_seed(seed, 7));
  std::vector<bool> used(kKeys, false);
  std::vector<std::pair<std::string, std::string>> plan;
  while (plan.size() < 32) {
    const std::uint32_t key = pick.below(kKeys);
    if (used[key]) continue;
    used[key] = true;
    plan.emplace_back(key_name(key), "sentinel-" + std::to_string(seed) + "-" +
                                         std::to_string(plan.size()));
  }
  return plan;
}

bool check_value(std::uint32_t key, const std::string& value,
                 std::size_t value_bytes) {
  if (value.size() != std::max<std::size_t>(value_bytes, 16)) return false;
  unsigned k = 0;
  std::uint64_t tag = 0;
  if (std::sscanf(value.substr(0, 3).c_str(), "%x", &k) != 1 ||
      std::sscanf(value.substr(3, 9).c_str(), "%" SCNx64, &tag) != 1) {
    return false;
  }
  return k == (key & 0xFFF) && make_value(key, tag, value_bytes) == value;
}

std::uint64_t SpanLog::add(std::uint64_t parent, std::uint64_t op,
                           const char* name, const char* clock,
                           std::int64_t start, std::int64_t end) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id = next_id_++;
  spans_.push_back(Span{id, parent, op, name, clock, start, end});
  return id;
}

bool SpanLog::write(const std::string& path, bool append) const {
  FILE* out = std::fopen(path.c_str(), append ? "a" : "w");
  if (out == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"id\": %" PRIu64 ", \"parent\": %" PRIu64
                 ", \"op\": %" PRIu64
                 ", \"name\": \"%s\", \"clock\": \"%s\", \"start\": %" PRId64
                 ", \"end\": %" PRId64 "}\n",
                 s.id, s.parent, s.op, s.name, s.clock, s.start, s.end);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
