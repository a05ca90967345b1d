#include "trace/trace.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "net/stats.hpp"

namespace fastbft::trace {

namespace {

/// Broadcast grouping key: one rendered line per (send time, sender, tag,
/// delivery time).
struct GroupKey {
  TimePoint sent;
  ProcessId from;
  std::uint8_t tag;
  TimePoint delivered;

  auto operator<=>(const GroupKey&) const = default;
};

std::string receiver_list(const std::set<ProcessId>& receivers,
                          std::uint32_t n, ProcessId sender) {
  if (receivers.size() >= n - 1) return "*";
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (ProcessId p : receivers) {
    if (!first) out << ",";
    out << "p" << p;
    first = false;
  }
  out << "}";
  (void)sender;
  return out.str();
}

}  // namespace

std::string render_sequence(const adversary::EnvelopeLog& log,
                            std::uint32_t n, const RenderOptions& options) {
  std::map<GroupKey, std::set<ProcessId>> groups;
  for (const auto& m : log.records()) {
    if (options.hide_self_sends && m.from == m.to) continue;
    if (m.sent > options.until) continue;
    if (!options.tags.empty() &&
        std::find(options.tags.begin(), options.tags.end(), m.kind.tag) ==
            options.tags.end()) {
      continue;
    }
    groups[GroupKey{m.sent, m.from, m.kind.tag, m.delivered}].insert(m.to);
  }

  std::ostringstream out;
  for (const auto& [key, receivers] : groups) {
    if (!options.collapse_broadcasts && receivers.size() > 1) {
      for (ProcessId p : receivers) {
        out << "t=" << key.sent << "\tp" << key.from << " -> p" << p << "\t"
            << net::tag_name(key.tag);
        if (key.delivered >= kTimeInfinity) {
          out << "\t(delayed indefinitely)";
        } else {
          out << "\t(delivered t=" << key.delivered << ")";
        }
        out << "\n";
      }
      continue;
    }
    out << "t=" << key.sent << "\tp" << key.from << " -> "
        << receiver_list(receivers, n, key.from) << "\t"
        << net::tag_name(key.tag);
    if (key.delivered >= kTimeInfinity) {
      out << "\t(delayed indefinitely)";
    } else {
      out << "\t(delivered t=" << key.delivered << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace fastbft::trace
