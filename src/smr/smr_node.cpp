#include "smr/smr_node.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "net/tags.hpp"
#include "smr/reply.hpp"

namespace fastbft::smr {

SmrNode::SmrNode(engine::Host& host, engine::EngineContext ectx,
                 std::unique_ptr<net::Transport> endpoint, SmrOptions options,
                 std::uint32_t num_sessions)
    : ectx_(std::move(ectx)),
      options_(std::move(options)),
      num_sessions_(num_sessions),
      endpoint_(std::move(endpoint)) {
  init_groups(host);
}

void SmrNode::init_groups(engine::Host& host) {
  FASTBFT_ASSERT(options_.num_groups >= 1, "num_groups must be >= 1");

  // ONE verification memo for the whole node, shared by every group's
  // engine: a multi-group node must amortize signature verification
  // across groups, not duplicate the cache per group.
  if (!ectx_.verify_cache) {
    ectx_.verify_cache = std::make_shared<crypto::VerificationCache>();
  }

  engine::SlotMuxOptions mux_options;
  mux_options.pipeline_depth = options_.pipeline_depth;
  mux_options.max_batch = options_.max_batch;
  mux_options.rotate_leaders =
      options_.rotate_leaders.value_or(options_.num_groups > 1);
  mux_options.eager_windows = options_.eager_windows;
  mux_options.snapshot_interval = options_.snapshot_interval;
  mux_options.snapshot_chunk_bytes = options_.snapshot_chunk_bytes;
  mux_options.replica = options_.node.replica;
  mux_options.sync = options_.node.sync;

  groups_.reserve(options_.num_groups);
  for (GroupId g = 0; g < options_.num_groups; ++g) {
    auto group = std::make_unique<Group>();
    Group* grp = group.get();

    engine::EngineContext gctx = ectx_;
    gctx.group = g;

    engine::SnapshotHooks hooks;
    hooks.state = [grp]() -> std::function<Bytes()> {
      return [image = grp->store.freeze()] { return image.serialize(); };
    };
    hooks.install = [grp](const Snapshot& snap) {
      bool restored = grp->store.restore(snap.kv_state);
      // The body already passed digest verification against f + 1
      // vouchers; a malformed KV image here would mean a broken snapshot
      // encoder.
      FASTBFT_ASSERT(restored, "verified snapshot failed to restore");
    };

    group->mux = std::make_unique<engine::SlotMux>(
        host, std::move(gctx), *endpoint_, mux_options,
        [this, grp](Slot slot, std::vector<Command>& applied) {
          for (auto& cmd : applied) {
            // The store takes a put's value by move: nothing reads the
            // applied batch afterwards.
            ExecResult result = grp->store.apply(cmd, std::move(cmd.value));
            send_reply(slot, cmd, std::move(result));
          }
        },
        std::move(hooks));
    groups_.push_back(std::move(group));
  }
}

SmrNode::~SmrNode() = default;

void SmrNode::start() {
  for (auto& group : groups_) group->mux->start();
}

Bytes SmrNode::encode_request(const Command& cmd) {
  Encoder enc;
  enc.u8(net::tags::kSmrRequest);
  enc.bytes(cmd.to_value().bytes());
  return std::move(enc).take();
}

void SmrNode::submit(const Command& cmd) {
  endpoint_->broadcast(encode_request(cmd));
}

void SmrNode::on_message(ProcessId from, const Bytes& payload) {
  if (payload.empty()) return;
  std::uint8_t tag = payload[0];
  if (tag == net::tags::kSmrRequest) {
    handle_request(from, payload);
    return;
  }

  // Every group-scoped tag carries the GroupId right after the tag byte;
  // peek it here and route the full payload to the owning engine (which
  // re-checks it during its own decode).
  if (payload.size() < 5) return;
  Decoder peek(payload);
  peek.u8();
  GroupId group = peek.u32();
  if (!peek.ok() || group >= groups_.size()) return;
  engine::SlotMux& mux = *groups_[group]->mux;

  switch (tag) {
    case net::tags::kSmrWrapped:
      mux.on_wrapped(from, payload);
      return;
    case net::tags::kSmrDecided:
      mux.on_decided_claim(from, payload);
      return;
    case net::tags::kSmrSnapRequest:
      mux.on_snapshot_request(from, payload);
      return;
    case net::tags::kSmrSnapResponse:
      mux.on_snapshot_response(from, payload);
      return;
    case net::tags::kSmrDecidedPull:
      mux.on_decided_pull(from, payload);
      return;
    default:
      return;
  }
}

void SmrNode::handle_request(ProcessId from, const Bytes& payload) {
  Decoder dec(payload);
  dec.u8();
  ByteView raw = dec.bytes_view();
  if (!dec.ok() || !dec.at_end()) return;
  auto cmd = Command::from_wire(raw);
  if (!cmd) return;
  // A client endpoint speaks only for itself: a request under another
  // session's id would claim that session's (client_id, sequence) and
  // dedup would then discard the session's real command.
  if (from >= ectx_.cfg.n && cmd->client_id != from) return;
  // Admit into the group that owns the command's key — every replica
  // computes the same shard locally, so a command is only ever proposed
  // in its owning group's log.
  groups_[group_of(cmd->key)]->mux->submit(std::move(*cmd));
}

crypto::Digest SmrNode::state_digest() const {
  if (groups_.size() == 1) return groups_[0]->store.state_digest();
  crypto::Sha256 hasher;
  for (const auto& group : groups_) {
    crypto::Digest d = group->store.state_digest();
    hasher.update(d.data(), d.size());
  }
  return hasher.finalize();
}

std::uint64_t SmrNode::applied_commands() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->mux->applied_commands();
  return total;
}

std::uint64_t SmrNode::noop_slots() const {
  std::uint64_t total = 0;
  for (const auto& group : groups_) total += group->mux->noop_slots();
  return total;
}

SmrNode::EngineStats SmrNode::engine_stats() const {
  EngineStats stats;
  stats.effective_depth = options_.pipeline_depth;
  stats.effective_batch = options_.max_batch;
  for (const auto& group : groups_) {
    const auto& mux = *group->mux;
    stats.reorder_high_water = std::max(stats.reorder_high_water,
                                        mux.reorder_high_water());
    stats.parked_high_water = std::max(stats.parked_high_water,
                                       mux.parked_high_water());
    stats.snapshots_installed += mux.snapshots_installed();
    stats.apply_watermark = std::max(stats.apply_watermark,
                                     mux.apply_watermark());
    stats.slots_applied += mux.slots_applied();
    stats.decided_pulls += mux.decided_pulls();
    stats.view_changed_slots += mux.view_changed_slots();
    stats.suspected_wishes += mux.suspected_wishes();
  }
  return stats;
}

void SmrNode::send_reply(Slot slot, const Command& cmd, ExecResult result) {
  if (cmd.client_id < ectx_.cfg.n ||
      cmd.client_id >=
          static_cast<std::uint64_t>(ectx_.cfg.n) + num_sessions_) {
    return;  // not addressed from a session endpoint
  }
  if (options_.byzantine.lie_in_replies) {
    // Lying replica: the command DID execute honestly (consensus is
    // untouched), but the client is told a fabricated result — correctly
    // signed, so only the f + 1 matching-reply quorum defends against it.
    result.ok = !result.ok;
    result.found = true;
    result.value = "byzantine";
  }
  Reply reply{cmd.client_id, cmd.sequence, slot, cmd.kind,
              std::move(result)};
  endpoint_->send(
      static_cast<ProcessId>(cmd.client_id),
      encode_reply_payload(reply, crypto::Signer(ectx_.keys, ectx_.id)));
}

}  // namespace fastbft::smr
