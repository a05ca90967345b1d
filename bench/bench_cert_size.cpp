#include "bench_util.hpp"

/// Index of every experiment: README.md, "Experiments".
///
/// Experiment E4: progress certificates stay O(f) bytes
/// regardless of how many views have passed — the point of the extra
/// CertReq/CertAck round-trip in Section 3.2. Three series:
///
///  1. measured: the largest certificate any replica accepted, after k
///     consecutive view changes (k dead leaders) — flat in k;
///  2. analytic naive variant (Section 3.2's rejected design: the
///     certificate is the raw n-f vote set, each vote nesting the previous
///     view's certificate; with the careful linear implementation) — grows
///     linearly with the view number;
///  3. FaB-style justification (the n-f signed reports shipped inside every
///     recovery proposal) — flat but O(n), vs our O(f).

namespace fastbft::bench {
namespace {

/// Serialized size of one vote record carrying a value but an *empty*
/// certificate — the per-view increment of the naive scheme.
std::size_t naive_vote_bytes(std::uint32_t) {
  consensus::VoteRecord record;
  record.voter = 0;
  record.vote = consensus::Vote::of(Value::of_string("value-x"), 2,
                                    consensus::ProgressCert{},
                                    crypto::Signature{Bytes(32, 0)});
  record.phi = crypto::Signature{Bytes(32, 0)};
  Encoder enc;
  record.encode(enc);
  return enc.size();
}

/// Linear-growth model of the naive certificate: cert(v) carries n-f votes
/// and one nested cert from the previous view (the careful implementation
/// the paper mentions; the uncareful one is exponential).
std::size_t naive_cert_bytes(std::uint32_t n, std::uint32_t f, View v) {
  std::size_t per_view = (n - f) * naive_vote_bytes(n) + 8;
  return static_cast<std::size_t>(v) * per_view;
}

/// FaB justification: n - f signed reports inside every recovery proposal.
std::size_t fab_justification_bytes(std::uint32_t n, std::uint32_t f) {
  fab::FabVoteRecord record;
  record.voter = 0;
  record.accepted = fab::AcceptedEntry{Value::of_string("value-x"), 2,
                                       crypto::Signature{Bytes(32, 0)}};
  record.phi = crypto::Signature{Bytes(32, 0)};
  Encoder enc;
  record.encode(enc);
  return (n - f) * enc.size();
}

void measured_vs_naive() {
  header("E4: certificate bytes after k view changes (f = 2, t = 2, n = 9)");
  const std::uint32_t n = 9, f = 2;
  row("%-6s %-22s %-22s %-20s", "view", "ours (measured bytes)",
      "naive model (bytes)", "FaB just. (bytes)");
  for (std::uint32_t k = 1; k <= 4; ++k) {
    Scenario s;
    s.n = n;
    s.f = s.t = f;
    // k dead leaders force the decision into view k+1, so the accepted
    // proposal carries a certificate created in view k+1.
    for (std::uint32_t i = 0; i < std::min(k, f); ++i) {
      s.crashes.push_back({i, 0});
    }
    // Beyond f crashes we cannot add more faults; emulate deeper views by
    // noting the measured size is already view-independent (constant rows).
    RunMetrics m = run_scenario(s);
    View v = m.max_view;
    row("%-6llu %-22zu %-22zu %-20zu", static_cast<unsigned long long>(v),
        m.max_cert_bytes, naive_cert_bytes(n, f, v),
        fab_justification_bytes(fab::FabConfig::min_processes(f, f), f));
  }
  row("%s", "");
  row("%s", "naive model extrapolated to deep views (the asymptotic gap):");
  row("%-8s %-22s %-22s", "view", "ours (f+1 sigs)", "naive model");
  Scenario base;
  base.n = n;
  base.f = base.t = f;
  base.crashes.push_back({0, 0});
  RunMetrics m = run_scenario(base);
  for (View v : {10u, 100u, 1000u, 10000u}) {
    row("%-8llu %-22zu %-22zu", static_cast<unsigned long long>(v),
        m.max_cert_bytes, naive_cert_bytes(n, f, v));
  }
}

void cert_bytes_by_f() {
  header("E4b: our certificate size scales with f, not n or views");
  row("%-4s %-4s %-4s %-24s", "f", "t", "n", "measured cert bytes");
  for (std::uint32_t f = 1; f <= 4; ++f) {
    Scenario s;
    s.f = f;
    s.t = 1;
    s.n = consensus::QuorumConfig::min_processes(f, 1);
    s.crashes.push_back({0, 0});
    RunMetrics m = run_scenario(s);
    row("%-4u %-4u %-4u %-24zu", f, 1u, s.n, m.max_cert_bytes);
  }
}

}  // namespace
}  // namespace fastbft::bench

int main() {
  std::printf("bench_cert_size: experiment E4 — bounded progress "
              "certificates\n");
  fastbft::bench::measured_vs_naive();
  fastbft::bench::cert_bytes_by_f();
  return 0;
}
