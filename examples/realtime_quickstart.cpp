#include <chrono>
#include <cstdio>

#include "smr/service.hpp"

/// The same protocol, real threads, real clock. Part 1: nine replica
/// threads, f = t = 2, two of them crashed — wall-clock time for one
/// client request to be decided, applied everywhere and confirmed by
/// f + 1 signed replies. Part 2: the full client API over the threaded
/// runtime — two smr::ClientSessions drive a replicated KV service (typed
/// ops, f + 1 signed-reply quorum per request), and a replica crash
/// mid-run is absorbed by session failover plus wall-clock view change.
///
/// Run: ./build/examples/realtime_quickstart

using namespace fastbft;
using namespace std::chrono;
using namespace std::chrono_literals;

namespace {

/// Part 1: one request through a 9-replica threaded service.
int run_single_request() {
  auto config = smr::ServiceConfig{}.with_cluster(/*n=*/9, /*f=*/2, /*t=*/2);
  auto service = smr::make_threaded_service(config);
  service->crash(4);
  service->crash(8);

  auto begin = steady_clock::now();
  service->start();
  smr::Future<smr::Reply> put = service->session(0).put("cmd", "decided");
  bool done = service->await(put, 10'000ms) &&
              service->await_applied(1, 10'000ms);
  auto elapsed = duration_cast<microseconds>(steady_clock::now() - begin);
  service->stop();

  if (!done) {
    std::printf("no decision within 10s — something is wrong\n");
    return 1;
  }
  std::printf("9 replicas (2 crashed), f = t = 2, real threads:\n");
  std::printf("  put decided in slot %llu, confirmed by f + 1 = 3 signed "
              "replies\n",
              static_cast<unsigned long long>(put.value().slot));
  std::printf("agreement: %s\n", service->stores_agree() ? "yes" : "NO (bug!)");
  std::printf("wall-clock time to full decision: %lld us (%llu messages "
              "delivered)\n",
              static_cast<long long>(elapsed.count()),
              static_cast<unsigned long long>(service->delivered_messages()));
  std::printf("\n(the two-message-delay structure is the same as in the\n"
              "simulator; here a \"delay\" is an in-process queue hop of a\n"
              "few microseconds instead of a scripted Delta)\n");
  return 0;
}

/// Part 2: two sessions, a deep pipeline and a replica crash.
int run_threaded_service() {
  auto config = smr::ServiceConfig{}
                    .with_cluster(/*n=*/6, /*f=*/1, /*t=*/1)
                    .with_sessions(2)
                    .with_batch(8)
                    .with_pipeline_depth(8)
                    .with_rotating_leaders()
                    .with_window(8);
  auto service = smr::make_threaded_service(config);

  auto begin = steady_clock::now();
  service->start();

  // Closed-loop warm-up: both sessions stream puts, windowed at 8.
  constexpr std::uint64_t kPerSession = 60;
  std::vector<smr::Future<smr::Reply>> futures;
  for (std::uint32_t s = 0; s < 2; ++s) {
    for (std::uint64_t i = 1; i <= kPerSession; ++i) {
      futures.push_back(service->session(s).put(
          "account-" + std::to_string(i % 16),
          "balance-" + std::to_string(s * 1000 + i)));
    }
  }
  auto all_ready = [&] {
    for (const auto& f : futures) {
      if (!f.ready()) return false;
    }
    return true;
  };
  if (!service->run_until(all_ready, 30'000ms)) {
    std::printf("threaded service made no progress — something is wrong\n");
    return 1;
  }

  // Crash p1 mid-run: sessions send every request to all replicas, so
  // the survivors still hold it; the crashed process's slots are rescued
  // by wall-clock view change underneath.
  service->crash(1);
  smr::Future<smr::Reply> through_crash =
      service->session(0).put("after-crash", "survived");
  if (!service->await(through_crash, 30'000ms)) {
    std::printf("request after the crash never completed\n");
    return 1;
  }
  smr::Future<smr::Reply> read = service->session(1).get("after-crash");
  bool read_done = service->await(read, 30'000ms);
  bool converged = service->await_applied(2 * kPerSession + 2, 30'000ms);
  auto elapsed = duration_cast<microseconds>(steady_clock::now() - begin);
  service->stop();

  if (!read_done || !read.value().result.found) {
    std::printf("the other session cannot see the write — bug\n");
    return 1;
  }
  std::printf("\nreplicated KV service over OS threads (n = 6, depth = 8, "
              "2 sessions, p1 crashed mid-run):\n");
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::printf("  session %u: %llu completed, %llu failovers\n", s,
                static_cast<unsigned long long>(
                    service->session(s).completed()),
                static_cast<unsigned long long>(
                    service->session(s).failovers()));
  }
  std::printf("cross-session read: \"%s\" (quorum-verified), stores agree: "
              "%s | wall-clock: %lld us\n",
              read.value().result.value.c_str(),
              service->stores_agree() && converged ? "yes" : "NO (bug!)",
              static_cast<long long>(elapsed.count()));
  std::printf("(every completion carries f + 1 matching signed replies; "
              "every request went to all 6 replicas, so the crash lost "
              "none of them)\n");
  return 0;
}

}  // namespace

int main() {
  int status = run_single_request();
  return status != 0 ? status : run_threaded_service();
}
