#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "chaos/schedule.hpp"
#include "common/codec.hpp"
#include "consensus/messages.hpp"
#include "crypto/sha256.hpp"
#include "engine/catchup.hpp"
#include "net/frame.hpp"
#include "net/tags.hpp"
#include "smr/batch.hpp"
#include "smr/snapshot.hpp"

/// \file corpus_gen.cpp
/// Regenerates the committed fuzz seed corpus (tests/data/fuzz/). Each
/// seed is produced by the REAL encoders, so the corpus starts on the
/// happy path of every decoder and a coverage-guided fuzzer mutates
/// outward from well-formed wire bytes instead of fishing for the frame
/// grammar from zero. Run manually after a wire-format change:
///
///   build/fuzz/corpus_gen tests/data/fuzz
///
/// and commit the result. The files are inputs to the fuzz_* harnesses
/// (see each harness header for how its bytes are interpreted) and are
/// replayed by ctest in every configuration.

namespace {

namespace fs = std::filesystem;
using namespace fastbft;

void write_seed(const fs::path& dir, const std::string& name,
                const Bytes& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  std::printf("  %s/%s (%zu bytes)\n", dir.c_str(), name.c_str(),
              bytes.size());
}

Bytes str_bytes(std::string_view s) { return to_bytes(s); }

crypto::Signature fake_sig(std::uint8_t fill) {
  return crypto::Signature{Bytes(crypto::kSignatureSize, fill)};
}

consensus::ProgressCert sample_cert() {
  consensus::ProgressCert cert;
  cert.acks.push_back(consensus::SignatureEntry{0, fake_sig(0xa0)});
  cert.acks.push_back(consensus::SignatureEntry{2, fake_sig(0xa2)});
  return cert;
}

Value sample_batch() {
  return smr::encode_batch({smr::Command::put("key", "value", 7, 1),
                            smr::Command::cas("key", "value", "next", 7, 2),
                            smr::Command::get("key", 8, 1)},
                           /*author=*/2);
}

void gen_message(const fs::path& root) {
  const fs::path dir = root / "fuzz_message";

  consensus::ProposeMsg propose;
  propose.v = 3;
  propose.x = sample_batch();
  propose.sigma = sample_cert();
  propose.tau = fake_sig(0x11);
  write_seed(dir, "propose", propose.serialize());

  consensus::AckMsg ack;
  ack.v = 3;
  ack.x = sample_batch();
  write_seed(dir, "ack", ack.serialize());

  consensus::AckSigMsg acksig;
  acksig.v = 4;
  acksig.x = Value::of_string("x");
  acksig.phi_ack = fake_sig(0x22);
  write_seed(dir, "acksig", acksig.serialize());

  consensus::CommitMsg commit;
  commit.v = 4;
  commit.x = Value::of_string("x");
  commit.cc.x = commit.x;
  commit.cc.v = 4;
  commit.cc.sigs.push_back(consensus::SignatureEntry{1, fake_sig(0x31)});
  commit.cc.sigs.push_back(consensus::SignatureEntry{3, fake_sig(0x33)});
  write_seed(dir, "commit", commit.serialize());

  consensus::VoteMsg vote;
  vote.v = 5;
  vote.record.voter = 2;
  vote.record.vote = consensus::Vote::of(Value::of_string("x"), 4,
                                         sample_cert(), fake_sig(0x44));
  vote.record.phi = fake_sig(0x55);
  write_seed(dir, "vote", vote.serialize());

  consensus::VoteMsg nil_vote;
  nil_vote.v = 5;
  nil_vote.record.voter = 1;
  nil_vote.record.vote = consensus::Vote::nil();
  nil_vote.record.phi = fake_sig(0x56);
  write_seed(dir, "vote_nil", nil_vote.serialize());

  consensus::CertReqMsg certreq;
  certreq.v = 5;
  certreq.x = Value::of_string("x");
  certreq.votes.push_back(vote.record);
  certreq.votes.push_back(nil_vote.record);
  write_seed(dir, "certreq", certreq.serialize());

  consensus::CertAckMsg certack;
  certack.v = 5;
  certack.x = Value::of_string("x");
  certack.phi_ca = fake_sig(0x66);
  write_seed(dir, "certack", certack.serialize());

  // SMR_WRAPPED envelope around the propose — the nested view-aliasing
  // decode path (fuzz_message exercise_wrapped).
  Encoder enc;
  enc.u8(net::tags::kSmrWrapped);
  enc.u32(0);   // group
  enc.u64(9);   // slot
  enc.u64(7);   // watermark
  enc.u64(1);   // snapshot floor
  enc.bytes(propose.serialize());
  write_seed(dir, "wrapped_propose", std::move(enc).take());

  // SMR_PULL for slot 9 of group 0 (fuzz_message exercise_pull).
  write_seed(dir, "pull", engine::encode_decided_pull(0, 9));

  // Truncated propose: a well-formed prefix that must decode to nullopt.
  Bytes trunc = propose.serialize();
  trunc.resize(trunc.size() / 2);
  write_seed(dir, "propose_truncated", trunc);
}

void gen_frame(const fs::path& root) {
  const fs::path dir = root / "fuzz_frame";
  net::FrameWriter writer;

  // Harness input = 1 selector byte + stream. Selector 0x03: 3-byte
  // chunks under the 4 KiB ceiling — torn reads everywhere.
  Bytes stream;
  stream.push_back(0x03);
  net::Handshake hs{1, 4};
  Bytes hs_frame = *writer.frame(hs.encode());
  stream.insert(stream.end(), hs_frame.begin(), hs_frame.end());
  consensus::AckMsg ack;
  ack.v = 2;
  ack.x = Value::of_string("x");
  Bytes msg_frame = *writer.frame(ack.serialize());
  stream.insert(stream.end(), msg_frame.begin(), msg_frame.end());
  Bytes heartbeat = *writer.frame(ByteView());
  stream.insert(stream.end(), heartbeat.begin(), heartbeat.end());
  write_seed(dir, "handshake_ack_heartbeat", stream);

  // Selector 0x10: 64-byte ceiling, whole-buffer feed; the 512-byte
  // length header must flip the reader into its sticky error state.
  Bytes oversize;
  oversize.push_back(0x10);
  net::FrameHeader header;
  net::encode_frame_header(512, header);
  oversize.insert(oversize.end(), header.begin(), header.end());
  oversize.insert(oversize.end(), 16, 0xee);
  write_seed(dir, "oversize_header", oversize);

  // Partial tail: a valid handshake frame followed by a torn header.
  Bytes partial;
  partial.push_back(0x05);
  partial.insert(partial.end(), hs_frame.begin(), hs_frame.end());
  partial.push_back(0x02);  // 2 of 4 header bytes, then EOF
  partial.push_back(0x00);
  write_seed(dir, "partial_tail", partial);
}

void gen_snapshot(const fs::path& root) {
  const fs::path dir = root / "fuzz_snapshot";

  smr::Snapshot snap;
  snap.applied_below = 5;
  snap.applied_commands = 12;
  snap.kv_state = str_bytes("serialized-kv-state-bytes");
  snap.applied_ids.push_back({{7, 1}, 3});
  snap.applied_ids.push_back({{7, 2}, 4});
  snap.recent_authors = {0, 1, 1, 3};  // slots 1-4
  Bytes body = snap.encode();
  write_seed(dir, "snapshot_encoded", body);

  // Reassembly script reaching the verified-install path: the real
  // digest, both chunk halves, from two distinct senders (threshold 2 in
  // the harness). Field order mirrors fuzz_snapshot's Decoder reads.
  crypto::Digest digest = crypto::sha256(body);
  Bytes digest_bytes(digest.begin(), digest.end());
  std::vector<Bytes> chunks = split_chunks(body, 64);
  Encoder enc;
  for (std::uint8_t sender = 0; sender < 2; ++sender) {
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      enc.u8(sender);
      enc.u8(4);  // applied_below - 1 (harness adds 1 after % 16)
      enc.bytes(digest_bytes);
      enc.u8(static_cast<std::uint8_t>(i));
      enc.u8(static_cast<std::uint8_t>(chunks.size()));
      enc.bytes(chunks[i]);
      enc.u8(0);  // next_apply 1
    }
  }
  write_seed(dir, "reassembly_quorum", std::move(enc).take());

  // Same script shape with a corrupted digest: must never verify.
  Encoder bad;
  bad.u8(0);
  bad.u8(4);
  Bytes wrong = digest_bytes;
  wrong[0] ^= 0xff;
  bad.bytes(wrong);
  bad.u8(0);
  bad.u8(1);
  bad.bytes(body);
  bad.u8(0);
  write_seed(dir, "reassembly_bad_digest", std::move(bad).take());
}

void gen_schedule(const fs::path& root) {
  const fs::path dir = root / "fuzz_schedule";

  chaos::Schedule sched = chaos::generate_schedule(42);
  write_seed(dir, "generated_42", str_bytes(sched.to_hex()));

  chaos::Schedule rich = chaos::generate_schedule(7);
  rich.faults.push_back({chaos::FaultEvent::Kind::Crash, 1000, 2, 0, 0, {}});
  rich.faults.push_back(
      {chaos::FaultEvent::Kind::PartitionStart, 2000, 0, 0, 0b0011, {}});
  rich.faults.push_back(
      {chaos::FaultEvent::Kind::PartitionHeal, 3000, 0, 0, 0, {}});
  write_seed(dir, "with_events", str_bytes(rich.to_hex()));

  // Truncated hex: decodes to nullopt, must not crash.
  std::string hex = sched.to_hex();
  write_seed(dir, "truncated",
             str_bytes(std::string_view(hex).substr(0, hex.size() / 3)));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: corpus_gen <corpus root dir>\n");
    return 2;
  }
  const fs::path root(argv[1]);
  gen_message(root);
  gen_frame(root);
  gen_snapshot(root);
  gen_schedule(root);
  return 0;
}
