#include "net/socket_network.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/assert.hpp"

namespace fastbft::net {

namespace {

// epoll_event.data.u64 layout: kind(high 16) | gen(16) | index(32).
// Kind 0 is never used, so no tag collides with EventLoop::kWakeTag.
enum : std::uint64_t { kTagListen = 1, kTagLink = 2, kTagPending = 3 };

std::uint64_t make_tag(std::uint64_t kind, std::uint16_t gen,
                       std::uint32_t index) {
  return (kind << 48) | (static_cast<std::uint64_t>(gen) << 32) | index;
}

int make_tcp_socket() {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd >= 0) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

bool make_addr(const std::string& host, std::uint16_t port,
               sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

void SocketEndpoint::send(ProcessId to, SharedBytes payload) {
  net_.send(self_, to, std::move(payload));
}

std::uint32_t SocketEndpoint::cluster_size() const { return net_.size(); }

SocketNetwork::SocketNetwork(SocketNetworkConfig config)
    : config_(std::move(config)),
      handlers_(config_.peers.size()),
      locals_(config_.peers.size()),
      listen_ports_(config_.peers.size(), 0) {
  FASTBFT_ASSERT(config_.cluster_size <= config_.peers.size(),
                 "peers table must cover the replica cluster");
}

SocketNetwork::~SocketNetwork() { stop(); }

/// True when local id `self` initiates the connection to `peer`: exactly
/// one side of each pair dials (higher replica id dials lower, so the
/// pair shares one TCP connection), and listen-less endpoints (clients)
/// dial every listener.
static bool is_dialer(const SocketNetworkConfig& cfg, ProcessId self,
                      ProcessId peer) {
  if (peer == self) return false;
  if (!cfg.peers[peer].listens()) return false;
  if (!cfg.peers[self].listens()) return true;
  return peer < self;
}

void SocketNetwork::attach(ProcessId id, ReceiveHandler handler) {
  FASTBFT_ASSERT(id < total_size(), "attach: id out of range");
  FASTBFT_ASSERT(!started_, "attach before start()");
  handlers_[id] = std::move(handler);
  if (!locals_[id]) {
    auto local = std::make_unique<Local>(*this, id);
    local->links.reserve(total_size());
    for (ProcessId peer = 0; peer < total_size(); ++peer) {
      auto link = std::make_unique<Link>(config_.max_frame_bytes);
      link->dialer = is_dialer(config_, id, peer);
      link->policy = LinkPolicy(
          config_.link,
          (static_cast<std::uint64_t>(id) << 32) | (peer + 1));
      local->links.push_back(std::move(link));
    }
    locals_[id] = std::move(local);
  }
}

std::unique_ptr<SocketEndpoint> SocketNetwork::endpoint(ProcessId id) {
  FASTBFT_ASSERT(id < total_size(), "endpoint: id out of range");
  return std::make_unique<SocketEndpoint>(*this, id);
}

SocketNetwork::Local& SocketNetwork::local_of(ProcessId id) const {
  FASTBFT_ASSERT(id < locals_.size() && locals_[id],
                 "id is not a local endpoint");
  return *locals_[id];
}

void SocketNetwork::start() {
  FASTBFT_ASSERT(!started_, "already started");
  started_ = true;
  for (auto& local_ptr : locals_) {
    if (!local_ptr) continue;
    Local& local = *local_ptr;
    const SocketPeer& self_addr = config_.peers[local.id];
    if (self_addr.listens()) {
      if (self_addr.adopted_listen_fd >= 0) {
        local.listen_fd = self_addr.adopted_listen_fd;
      } else {
        local.listen_fd = make_tcp_socket();
        FASTBFT_ASSERT(local.listen_fd >= 0, "listen socket failed");
        int one = 1;
        ::setsockopt(local.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr;
        FASTBFT_ASSERT(make_addr(self_addr.host, self_addr.port, addr),
                       "bad listen address");
        FASTBFT_ASSERT(::bind(local.listen_fd,
                              reinterpret_cast<sockaddr*>(&addr),
                              sizeof(addr)) == 0,
                       "bind failed");
        FASTBFT_ASSERT(::listen(local.listen_fd, 128) == 0, "listen failed");
      }
      sockaddr_in bound;
      socklen_t len = sizeof(bound);
      if (::getsockname(local.listen_fd,
                        reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        listen_ports_[local.id] = ntohs(bound.sin_port);
      }
      epoll_event lev{};
      lev.events = EPOLLIN;
      lev.data.u64 = make_tag(kTagListen, 0, 0);
      ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_ADD, local.listen_fd,
                  &lev);
    }
  }
  for (auto& local : locals_) {
    if (local) local->loop.start();
  }
}

void SocketNetwork::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  for (auto& local_ptr : locals_) {
    if (!local_ptr) continue;
    Local& local = *local_ptr;
    // Joined: the sockets belong to the thread tearing the network down.
    local.loop.stop();
    for (auto& link : local.links) {
      if (link->fd >= 0) ::close(link->fd);
      link->fd = -1;
    }
    for (auto& p : local.pendings) {
      if (p && p->fd >= 0) ::close(p->fd);
    }
    local.pendings.clear();
    if (local.listen_fd >= 0) ::close(local.listen_fd);
    local.listen_fd = -1;
  }
}

std::uint16_t SocketNetwork::listen_port(ProcessId id) const {
  FASTBFT_ASSERT(id < total_size(), "listen_port: id out of range");
  return listen_ports_[id];
}

void SocketNetwork::send(ProcessId from, ProcessId to, SharedBytes payload) {
  FASTBFT_ASSERT(from < total_size() && to < total_size(),
                 "send: id out of range");
  if (to < locals_.size() && locals_[to]) {
    // Both endpoints live in this process: deliver through the target
    // loop's task queue — no socket, no copy, and the same deferred
    // (non-reentrant) semantics as a ThreadedNetwork self-send.
    locals_[to]->loop.post([this, from, to, payload = std::move(payload)] {
      if (!handlers_[to]) return;
      delivered_.fetch_add(1, std::memory_order_relaxed);
      handlers_[to](from, payload);
    });
    return;
  }
  Local& local = local_of(from);
  if (local.loop.on_loop_thread()) {
    send_on_loop(local, to, std::move(payload));
  } else {
    local.loop.post(
        [this, &local, to, payload = std::move(payload)]() mutable {
          send_on_loop(local, to, std::move(payload));
        });
  }
}

void SocketNetwork::send_on_loop(Local& local, ProcessId to,
                                 SharedBytes payload) {
  FASTBFT_DASSERT(local.loop.affinity_ok(),
                  "send_on_loop: loop state is loop-thread-only");
  enqueue_frame(*local.links[to], std::move(payload), /*heartbeat=*/false);
}

void SocketNetwork::enqueue_frame(Link& link, SharedBytes payload,
                                  bool heartbeat) {
  if (payload.size() > config_.max_frame_bytes ||
      link.sendq.size() >= config_.max_queued_frames) {
    link.stats.bump(link.stats.frames_dropped);
    return;
  }
  SendEntry entry;
  encode_frame_header(static_cast<std::uint32_t>(payload.size()),
                      entry.header);
  entry.payload = std::move(payload);
  if (config_.tx_delay_us > 0) {
    entry.ready_at = EventLoop::now() + config_.tx_delay_us;
  }
  link.sendq.push_back(std::move(entry));
  link.stats.high_water(link.sendq.size());
  if (heartbeat) link.stats.bump(link.stats.heartbeats_out);
}

// --- Event-loop backend ------------------------------------------------------

void SocketNetwork::Local::service(TimePoint now) {
  net.service_links(*this, now);
  // Write coalescing: everything the tasks, deliveries and timers since
  // the last flush queued goes out in as few writev calls as possible.
  for (ProcessId peer = 0; peer < links.size(); ++peer) {
    Link& link = *links[peer];
    if (link.state == LinkState::Ready && !link.sendq.empty() &&
        !link.want_writable) {
      net.flush_link(*this, link, peer);
    }
  }
}

TimePoint SocketNetwork::Local::next_deadline(TimePoint now) {
  return net.next_deadline(*this, now);
}

void SocketNetwork::Local::on_io(std::uint64_t tag, std::uint32_t events) {
  net.on_io(*this, tag, events);
}

TimePoint SocketNetwork::next_deadline(const Local& local,
                                       TimePoint now) const {
  TimePoint dl = now + 100'000;  // 100 ms cap: nothing sleeps longer
  const Duration hs_timeout = config_.link.heartbeat_timeout_us;
  for (const auto& link_ptr : local.links) {
    const Link& link = *link_ptr;
    switch (link.state) {
      case LinkState::Idle:
        if (link.dialer) dl = std::min(dl, link.policy.retry_at());
        break;
      case LinkState::Connecting:
        dl = std::min(dl, link.connect_started + hs_timeout);
        break;
      case LinkState::Ready:
        dl = std::min(dl, link.policy.next_established_deadline());
        // Held tx_delay frames must wake the loop when they come due —
        // the flush in service() won't run again until the wait returns.
        if (config_.tx_delay_us > 0 && !link.sendq.empty() &&
            !link.want_writable) {
          dl = std::min(dl, link.sendq.front().ready_at);
        }
        break;
    }
  }
  for (const auto& p : local.pendings) {
    if (p && p->fd >= 0) dl = std::min(dl, p->accepted_at + hs_timeout);
  }
  return std::max(dl, now);
}

void SocketNetwork::on_io(Local& local, std::uint64_t tag,
                          std::uint32_t events) {
  const std::uint64_t kind = tag >> 48;
  const std::uint16_t gen = static_cast<std::uint16_t>(tag >> 32);
  const std::uint32_t index = static_cast<std::uint32_t>(tag);
  switch (kind) {
    case kTagListen:
      accept_ready(local);
      break;
    case kTagLink: {
      Link& link = *local.links[index];
      if (link.gen != gen || link.fd < 0) break;  // stale event
      if (link.state == LinkState::Connecting) {
        // Any readiness on a connecting fd resolves the attempt.
        on_connect_writable(local, link, index);
        break;
      }
      // Drain readable bytes BEFORE acting on ERR/HUP so a peer's last
      // frames ahead of a close are still delivered.
      if ((events & EPOLLIN) != 0) {
        link_readable(local, link, index);
      }
      if (link.gen != gen || link.fd < 0) break;  // went down while reading
      if ((events & EPOLLOUT) != 0) {
        link.want_writable = false;
        update_epoll(local, link, index);
        flush_link(local, link, index);
      }
      if (link.gen != gen || link.fd < 0) break;
      if ((events & (EPOLLERR | EPOLLHUP)) != 0) link_down(link);
      break;
    }
    case kTagPending: {
      if (index >= local.pendings.size() || !local.pendings[index] ||
          local.pendings[index]->fd < 0 ||
          local.pendings[index]->gen != gen) {
        break;  // stale event
      }
      if (events & (EPOLLERR | EPOLLHUP)) {
        drop_pending(local, index);
      } else {
        pending_readable(local, index);
      }
      break;
    }
  }
}

void SocketNetwork::service_links(Local& local, TimePoint now) {
  const Duration hs_timeout = config_.link.heartbeat_timeout_us;
  for (ProcessId peer = 0; peer < local.links.size(); ++peer) {
    Link& link = *local.links[peer];
    switch (link.state) {
      case LinkState::Idle:
        if (link.dialer && link.policy.retry_due(now)) {
          start_connect(local, link, peer, now);
        }
        break;
      case LinkState::Connecting:
        if (now - link.connect_started >= hs_timeout) link_down(link);
        break;
      case LinkState::Ready:
        if (link.policy.rx_expired(now)) {
          link.stats.bump(link.stats.peer_downs);
          link_down(link);
        } else if (link.policy.heartbeat_due(now)) {
          enqueue_frame(link, SharedBytes(), /*heartbeat=*/true);
          link.policy.on_tx(now);
        }
        break;
    }
  }
  for (std::size_t slot = 0; slot < local.pendings.size(); ++slot) {
    auto& p = local.pendings[slot];
    if (p && p->fd >= 0 && now - p->accepted_at >= hs_timeout) {
      drop_pending(local, slot);
    }
  }
}

// --- Outbound connections ----------------------------------------------------

void SocketNetwork::start_connect(Local& local, Link& link, ProcessId peer,
                                  TimePoint now) {
  const SocketPeer& addr = config_.peers[peer];
  sockaddr_in sa;
  if (!make_addr(addr.host, addr.port, sa)) {
    link.policy.on_connect_failed(now);
    return;
  }
  int fd = make_tcp_socket();
  if (fd < 0) {
    link.policy.on_connect_failed(now);
    return;
  }
  link.stats.bump(link.stats.connects_attempted);
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0) {
    link.fd = fd;
    ++link.gen;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = make_tag(kTagLink, link.gen, peer);
    ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_ADD, fd, &ev);
    established(local, link, peer);
    return;
  }
  if (errno == EINPROGRESS) {
    link.fd = fd;
    link.state = LinkState::Connecting;
    link.connect_started = now;
    ++link.gen;
    epoll_event ev{};
    ev.events = EPOLLOUT;
    ev.data.u64 = make_tag(kTagLink, link.gen, peer);
    ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_ADD, fd, &ev);
    return;
  }
  ::close(fd);
  link.policy.on_connect_failed(now);
}

void SocketNetwork::on_connect_writable(Local& local, Link& link,
                                        ProcessId peer) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    link_down(link);
    return;
  }
  link.state = LinkState::Ready;  // established() fills in the rest
  established(local, link, peer);
}

void SocketNetwork::established(Local& local, Link& link, ProcessId peer) {
  const TimePoint now = EventLoop::now();
  link.state = LinkState::Ready;
  link.want_writable = false;
  link.policy.on_established(now);
  if (link.ever_established) {
    link.stats.bump(link.stats.reconnects);
  }
  link.ever_established = true;
  link.stats.bump(link.stats.connects_established);
  if (link.dialer) {
    // First frame on the wire must identify us; the acceptor cannot bind
    // this connection to a link until it arrives.
    link.peer_identified = false;
    SendEntry hello;
    Handshake hs{local.id, config_.cluster_size};
    Bytes encoded = hs.encode();
    encode_frame_header(static_cast<std::uint32_t>(encoded.size()),
                        hello.header);
    hello.payload = SharedBytes(std::move(encoded));
    link.sendq.push_front(std::move(hello));
  }
  update_epoll(local, link, peer);
  flush_link(local, link, peer);
}

void SocketNetwork::link_down(Link& link) {
  if (link.fd >= 0) {
    ::close(link.fd);
    link.fd = -1;
  }
  ++link.gen;
  link.state = LinkState::Idle;
  link.peer_identified = false;
  link.want_writable = false;
  link.reader = FrameReader(config_.max_frame_bytes);
  // Queued frames are kept (bounded): they flush after reconnection.
  // Drop any partially written frame — the peer's reader lost sync
  // context anyway when the connection died.
  if (!link.sendq.empty() && link.sendq.front().offset > 0) {
    link.sendq.pop_front();
  }
  if (link.dialer) {
    link.policy.on_connect_failed(EventLoop::now());
  }
}

// --- Accept path -------------------------------------------------------------

void SocketNetwork::accept_ready(Local& local) {
  for (;;) {
    int fd = ::accept4(local.listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) return;  // EAGAIN or transient error: epoll will re-arm
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    // Identify ourselves immediately; a fresh socket buffer always has
    // room for the 18-byte hello, so a short write means a broken peer.
    Handshake hs{local.id, config_.cluster_size};
    const Bytes body = hs.encode();
    FrameHeader hdr;
    encode_frame_header(static_cast<std::uint32_t>(body.size()), hdr);
    Bytes wire(hdr.begin(), hdr.end());
    wire.insert(wire.end(), body.begin(), body.end());
    if (::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(wire.size())) {
      ::close(fd);
      continue;
    }

    std::size_t slot = 0;
    while (slot < local.pendings.size() && local.pendings[slot] &&
           local.pendings[slot]->fd >= 0) {
      ++slot;
    }
    if (slot == local.pendings.size()) {
      local.pendings.push_back(
          std::make_unique<PendingAccept>(config_.max_frame_bytes));
    } else if (!local.pendings[slot]) {
      local.pendings[slot] =
          std::make_unique<PendingAccept>(config_.max_frame_bytes);
    }
    PendingAccept& p = *local.pendings[slot];
    p.fd = fd;
    ++p.gen;
    p.reader = FrameReader(config_.max_frame_bytes);
    p.accepted_at = EventLoop::now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 =
        make_tag(kTagPending, p.gen, static_cast<std::uint32_t>(slot));
    ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_ADD, fd, &ev);
  }
}

void SocketNetwork::drop_pending(Local& local, std::size_t slot) {
  PendingAccept& p = *local.pendings[slot];
  if (p.fd >= 0) ::close(p.fd);
  p.fd = -1;
  ++p.gen;
}

void SocketNetwork::pending_readable(Local& local, std::size_t slot) {
  PendingAccept& p = *local.pendings[slot];
  for (;;) {
    std::uint8_t* dst = p.reader.prepare(512);
    const ssize_t r = ::recv(p.fd, dst, 512, 0);
    if (r > 0) {
      p.reader.commit(r);
      if (static_cast<std::size_t>(r) < 512) break;
      continue;
    }
    p.reader.commit(0);
    if (r == 0 || errno != EAGAIN) {
      drop_pending(local, slot);
      return;
    }
    break;
  }
  auto frame = p.reader.next();
  if (p.reader.error()) {
    local.stats.bump(local.stats.handshake_rejects);
    drop_pending(local, slot);
    return;
  }
  if (!frame) return;  // handshake not complete yet
  Handshake hs;
  const auto result = Handshake::decode(*frame, hs);
  if (result != Handshake::Result::Ok || hs.sender >= total_size() ||
      hs.sender == local.id) {
    local.stats.bump(local.stats.handshake_rejects);
    drop_pending(local, slot);
    return;
  }
  adopt_pending(local, slot, hs);
}

void SocketNetwork::adopt_pending(Local& local, std::size_t slot,
                                  const Handshake& hs) {
  PendingAccept& p = *local.pendings[slot];
  Link& link = *local.links[hs.sender];
  if (link.fd >= 0) {
    // The peer reconnected before we noticed the old connection die (or
    // a rule-breaking double dial): newest wins.
    ::close(link.fd);
    link.fd = -1;
  }
  link.fd = p.fd;
  ++link.gen;
  // Transplant the reader: data frames may already sit behind the
  // handshake in the buffer.
  link.reader = std::move(p.reader);
  p.fd = -1;
  ++p.gen;
  p.reader = FrameReader(config_.max_frame_bytes);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = make_tag(kTagLink, link.gen, hs.sender);
  ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_MOD, link.fd, &ev);

  established(local, link, hs.sender);
  link.peer_identified = true;
  if (parse_frames(local, link, hs.sender)) {
    if (link.state == LinkState::Ready && !link.sendq.empty() &&
        !link.want_writable) {
      flush_link(local, link, hs.sender);
    }
  }
}

// --- Established I/O ---------------------------------------------------------

void SocketNetwork::link_readable(Local& local, Link& link, ProcessId peer) {
  const std::size_t chunk = config_.read_chunk_bytes;
  bool down = false;
  for (;;) {
    std::uint8_t* dst = link.reader.prepare(chunk);
    const ssize_t r = ::recv(link.fd, dst, chunk, 0);
    if (r > 0) {
      link.reader.commit(r);
      link.stats.bump(link.stats.bytes_in, static_cast<std::uint64_t>(r));
      if (static_cast<std::size_t>(r) < chunk) break;
      continue;
    }
    link.reader.commit(0);
    if (r == 0 || errno != EAGAIN) down = true;
    break;
  }
  if (!parse_frames(local, link, peer)) return;  // link went down in parse
  if (down) link_down(link);
}

bool SocketNetwork::parse_frames(Local& local, Link& link, ProcessId peer) {
  const TimePoint now = EventLoop::now();
  while (auto frame = link.reader.next()) {
    link.policy.on_rx(now);
    if (!link.peer_identified) {
      Handshake hs;
      const auto result = Handshake::decode(*frame, hs);
      if (result != Handshake::Result::Ok || hs.sender != peer) {
        link.stats.bump(link.stats.handshake_rejects);
        link_down(link);
        return false;
      }
      link.peer_identified = true;
      continue;
    }
    if (frame->empty()) {
      link.stats.bump(link.stats.heartbeats_in);
      continue;
    }
    link.stats.bump(link.stats.frames_in);
    deliver(local, link, peer, *frame);
    // FIFO contract (net/event_loop.hpp): a task the handler just posted
    // or a timer it deferred (e.g. SlotMux's deferred apply) runs before
    // the NEXT message is handled. Sockets batch many frames per readiness
    // round, so without this a deferred window-advance systematically
    // loses the race against the next slot's proposal sitting right
    // behind it in the read buffer — and the engine drops that proposal
    // as beyond-window, stalling the slot until its view-change timeout.
    local.loop.run_due();
    if (link.fd < 0) return false;  // handler-triggered teardown
  }
  if (link.reader.error()) {
    link.stats.bump(link.stats.decode_errors);
    link_down(link);
    return false;
  }
  return true;
}

void SocketNetwork::deliver(Local& local, Link& link, ProcessId from,
                            ByteView frame) {
  FASTBFT_DASSERT(local.loop.affinity_ok(),
                  "deliver: handlers run on the owning loop thread only");
  if (!handlers_[local.id]) return;
  // ReceiveHandler takes `const Bytes&`, so inbound frames cost exactly
  // one copy — into this connection's recycled delivery buffer, which is
  // alloc-free once its capacity has warmed up.
  if (frame.size() > link.delivery_buf.capacity()) {
    link.stats.bump(link.stats.delivery_allocs);
  } else {
    link.stats.bump(link.stats.delivery_reuses);
  }
  link.delivery_buf.assign(frame.begin(), frame.end());
  delivered_.fetch_add(1, std::memory_order_relaxed);
  handlers_[local.id](from, link.delivery_buf);
}

void SocketNetwork::update_epoll(Local& local, Link& link, ProcessId peer) {
  if (link.fd < 0) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (link.want_writable ? EPOLLOUT : 0u);
  ev.data.u64 = make_tag(kTagLink, link.gen, peer);
  ::epoll_ctl(local.loop.epoll_fd(), EPOLL_CTL_MOD, link.fd, &ev);
}

void SocketNetwork::flush_link(Local& local, Link& link, ProcessId peer) {
  // Under emulated link latency only frames past their ready_at may leave.
  // FIFO order is preserved: a not-yet-due frame blocks everything behind
  // it, and a partially written frame (offset > 0) is already on the wire
  // so it always completes.
  const TimePoint due_now = config_.tx_delay_us > 0 ? EventLoop::now() : 0;
  while (link.state == LinkState::Ready && link.fd >= 0 &&
         !link.sendq.empty()) {
    // Scatter-gather up to writev_batch_frames pending frames: one iovec
    // for each 4-byte header, one aliasing each SharedBytes payload — no
    // staging copies, syscalls amortized across everything queued.
    constexpr std::size_t kMaxIov = 128;
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t nframes = 0;
    for (const SendEntry& entry : link.sendq) {
      if (nframes >= config_.writev_batch_frames || niov + 2 > kMaxIov) break;
      if (entry.offset == 0 && entry.ready_at > due_now) break;
      std::size_t off = entry.offset;
      if (off < kFrameHeaderBytes) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(entry.header.data()) + off;
        iov[niov].iov_len = kFrameHeaderBytes - off;
        ++niov;
        off = 0;
      } else {
        off -= kFrameHeaderBytes;
      }
      if (entry.payload.size() > off) {
        iov[niov].iov_base =
            const_cast<std::uint8_t*>(entry.payload.get().data()) + off;
        iov[niov].iov_len = entry.payload.size() - off;
        ++niov;
      }
      ++nframes;
    }
    if (niov == 0) {
      // Fully written entries would have been popped; nothing sendable.
      break;
    }
    const ssize_t written = ::writev(link.fd, iov, static_cast<int>(niov));
    if (written < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!link.want_writable) {
          link.want_writable = true;
          update_epoll(local, link, peer);
        }
        return;
      }
      link_down(link);
      return;
    }
    link.stats.bump(link.stats.writev_calls);
    link.stats.bump(link.stats.bytes_out,
                    static_cast<std::uint64_t>(written));
    link.policy.on_tx(EventLoop::now());
    std::size_t remaining = static_cast<std::size_t>(written);
    std::uint64_t completed = 0;
    while (remaining > 0 && !link.sendq.empty()) {
      SendEntry& entry = link.sendq.front();
      const std::size_t total =
          kFrameHeaderBytes + entry.payload.size() - entry.offset;
      if (remaining >= total) {
        remaining -= total;
        link.sendq.pop_front();
        ++completed;
      } else {
        entry.offset += remaining;
        remaining = 0;
      }
    }
    link.stats.bump(link.stats.frames_out, completed);
  }
}

// --- Stats -------------------------------------------------------------------

SocketCounters SocketNetwork::link_stats(ProcessId id, ProcessId peer) const {
  SocketCounters out;
  if (id < locals_.size() && locals_[id] &&
      peer < locals_[id]->links.size()) {
    out = locals_[id]->links[peer]->stats.snapshot();
  }
  return out;
}

SocketCounters SocketNetwork::stats() const {
  SocketCounters out;
  for (const auto& local : locals_) {
    if (!local) continue;
    out.merge(local->stats.snapshot());
    for (const auto& link : local->links) {
      out.merge(link->stats.snapshot());
    }
  }
  return out;
}

std::string SocketNetwork::stats_summary() const {
  std::ostringstream out;
  std::uint64_t timers_fired = 0;
  for (const auto& local : locals_) {
    if (!local) continue;
    timers_fired += local->loop.timers_fired();
    out << "endpoint " << local->id << ":\n";
    for (ProcessId peer = 0; peer < local->links.size(); ++peer) {
      const SocketCounters c = local->links[peer]->stats.snapshot();
      if (c.connects_attempted == 0 && c.frames_in == 0 && c.frames_out == 0 &&
          c.connects_established == 0) {
        continue;
      }
      out << " link -> " << peer << ":\n" << c.summary("   ");
    }
    const SocketCounters lc = local->stats.snapshot();
    if (lc.handshake_rejects > 0) {
      out << " loop: " << lc.handshake_rejects << " handshake rejects\n";
    }
  }
  out << "delivered: " << delivered_count()
      << " messages, timers fired: " << timers_fired << "\n";
  return out.str();
}

}  // namespace fastbft::net
