#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/replica.hpp"  // DecisionRecord, SignatureEntry, LeaderFn
#include "net/transport.hpp"
#include "runtime/cluster.hpp"

/// \file pbft.hpp
/// PBFT-style baseline (Castro & Liskov, OSDI'99), single-shot, simplified:
/// the classic three-phase common case (pre-prepare / prepare / commit,
/// quorum 2f + 1 of n = 3f + 1) and a prepared-certificate view change.
/// This is the "three message delays with optimal resilience" comparison
/// point of the paper's introduction (experiments E2 and E8).
///
/// Simplifications relative to deployed PBFT:
///  * single-shot consensus (no sequence-number windows, no checkpoints);
///  * the new-view message is folded into a justified pre-prepare that
///    carries the 2f + 1 view-change records (same idea, fewer message
///    kinds);
///  * MACs are replaced by the library's simulation signatures everywhere.
/// None of these affect the measured common-case shape: 3 message delays
/// and O(n^2) traffic.

namespace fastbft::pbft {

using consensus::SignatureEntry;

/// 2f + 1 prepare signatures for (x, u): the value was *prepared* in u.
struct PreparedCert {
  Value x;
  View u = kNoView;
  std::vector<SignatureEntry> prepares;

  void encode(Encoder& enc) const;
  static std::optional<PreparedCert> decode(Decoder& dec);
  friend bool operator==(const PreparedCert&, const PreparedCert&) = default;
};

/// One process's view-change report: its latest prepared certificate (if
/// any), signed and bound to the destination view.
struct ViewChangeRecord {
  ProcessId voter = kNoProcess;
  std::optional<PreparedCert> prepared;
  crypto::Signature phi;

  void encode(Encoder& enc) const;
  static std::optional<ViewChangeRecord> decode(Decoder& dec);
  friend bool operator==(const ViewChangeRecord&,
                         const ViewChangeRecord&) = default;
};

struct PrePrepareMsg {
  View v = kNoView;
  Value x;
  crypto::Signature tau;  // leader's signature over (x, v)
  std::vector<ViewChangeRecord> justification;  // empty in view 1

  Bytes serialize() const;
  static std::optional<PrePrepareMsg> decode(Decoder& dec);
};

struct PrepareMsg {
  View v = kNoView;
  Value x;
  crypto::Signature phi;  // signed so prepares can form PreparedCerts

  Bytes serialize() const;
  static std::optional<PrepareMsg> decode(Decoder& dec);
};

struct PbftCommitMsg {
  View v = kNoView;
  Value x;

  Bytes serialize() const;
  static std::optional<PbftCommitMsg> decode(Decoder& dec);
};

struct ViewChangeMsg {
  View v = kNoView;
  ViewChangeRecord record;

  Bytes serialize() const;
  static std::optional<ViewChangeMsg> decode(Decoder& dec);
};

// --- Signing preimages -------------------------------------------------------

Bytes preprepare_preimage(const Value& x, View v);
Bytes prepare_preimage(const Value& x, View v);
Bytes viewchange_preimage(const std::optional<PreparedCert>& prepared, View v);

/// Validity of a prepared certificate: >= 2f+1 distinct signers over
/// prepare_preimage(x, u).
bool verify_prepared_cert(const crypto::Verifier& verifier, std::uint32_t n,
                          std::uint32_t f, const PreparedCert& cert);

/// The view-change selection rule: the value of the highest-view valid
/// prepared certificate among the records, or nullopt (leader free).
std::optional<Value> select_from_view_changes(
    const std::vector<ViewChangeRecord>& records);

/// Single-shot PBFT replica. Mirrors consensus::Replica's surface so the
/// same runtime::Cluster harness drives both protocols.
class PbftReplica {
 public:
  using DecideCallback = std::function<void(const consensus::DecisionRecord&)>;

  PbftReplica(std::uint32_t n, std::uint32_t f, ProcessId id, Value input,
              net::Transport& transport, crypto::Signer signer,
              crypto::Verifier verifier, consensus::LeaderFn leader_of,
              DecideCallback on_decide);

  void start();
  void on_message(ProcessId from, const Bytes& payload);
  void enter_view(View v);

  View view() const { return view_; }
  const std::optional<consensus::DecisionRecord>& decision() const {
    return decision_;
  }

 private:
  using ValueKey = std::pair<View, Bytes>;

  void handle_preprepare(ProcessId from, const PrePrepareMsg& msg);
  void handle_prepare(ProcessId from, const PrepareMsg& msg);
  void handle_commit(ProcessId from, const PbftCommitMsg& msg);
  void handle_viewchange(ProcessId from, const ViewChangeMsg& msg);
  void try_new_view();
  void send_preprepare(const Value& x,
                       std::vector<ViewChangeRecord> justification);
  void accept_and_prepare(const Value& x, View v);
  void maybe_prepared(const ValueKey& key);
  bool buffer_if_future(ProcessId from, const Bytes& payload, View v,
                        std::uint8_t tag);
  void replay_buffered();

  std::uint32_t quorum() const { return 2 * f_ + 1; }

  std::uint32_t n_;
  std::uint32_t f_;
  ProcessId id_;
  Value input_;
  net::Transport& transport_;
  crypto::Signer signer_;
  crypto::Verifier verifier_;
  consensus::LeaderFn leader_of_;
  DecideCallback on_decide_;

  View view_ = 1;
  std::set<View> preprepared_;  // views where a pre-prepare was accepted
  std::optional<PreparedCert> prepared_;  // latest prepared certificate
  std::optional<consensus::DecisionRecord> decision_;

  std::map<ValueKey, std::map<ProcessId, crypto::Signature>> prepares_;
  std::map<ValueKey, std::set<ProcessId>> commits_;
  std::set<ValueKey> commit_sent_;

  struct LeaderState {
    std::map<ProcessId, ViewChangeRecord> records;
    bool proposed = false;
  };
  std::optional<LeaderState> leader_state_;

  std::map<View, std::vector<std::pair<ProcessId, Bytes>>> future_buffer_;
};

/// Cluster integration: runs PBFT under runtime::Cluster. ctx.cfg supplies
/// n and f (t is ignored — PBFT has no fast path).
runtime::NodeFactory node_factory();

}  // namespace fastbft::pbft
