#include "viewsync/synchronizer.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "net/tags.hpp"

namespace fastbft::viewsync {

Bytes WishMsg::serialize() const {
  Encoder enc;
  enc.u8(net::tags::kWish);
  enc.u64(w);
  return std::move(enc).take();
}

std::optional<WishMsg> WishMsg::decode(Decoder& dec) {
  WishMsg m;
  m.w = dec.u64();
  if (!dec.ok()) return std::nullopt;
  return m;
}

std::optional<WishMsg> parse_wish(ByteView payload) {
  if (payload.empty() || payload[0] != net::tags::kWish) return std::nullopt;
  Decoder dec(payload);
  dec.u8();
  auto m = WishMsg::decode(dec);
  if (!m || !dec.at_end()) return std::nullopt;
  return m;
}

Synchronizer::Synchronizer(SynchronizerConfig cfg, ProcessId id,
                           net::Transport& transport,
                           sim::TimerService& timers, EnterViewFn enter_view)
    : cfg_(cfg),
      id_(id),
      transport_(transport),
      timers_(timers),
      enter_view_(std::move(enter_view)) {}

void Synchronizer::start() { arm_timer(); }

void Synchronizer::stop() {
  stopped_ = true;
  timer_.cancel();
}

Duration Synchronizer::timeout_for(View v) const {
  std::uint32_t shift = static_cast<std::uint32_t>(
      std::min<View>(v - 1, cfg_.max_doublings));
  return cfg_.base_timeout << shift;
}

void Synchronizer::arm_timer() {
  timer_.cancel();
  if (stopped_) return;
  timer_ = timers_.schedule_after(timeout_for(view_), [this] { on_timeout(); });
}

void Synchronizer::on_timeout() {
  if (stopped_) return;
  ++timeouts_fired_;
  View target = std::max(view_ + 1, my_wish_ + 1);
  send_wish(target);
  arm_timer();  // keep escalating if still stuck
}

bool Synchronizer::suspect() {
  if (stopped_ || my_wish_ > view_) return false;
  send_wish(view_ + 1);
  arm_timer();
  return true;
}

void Synchronizer::send_wish(View w) {
  if (w <= my_wish_) return;
  my_wish_ = w;
  wish_of_[id_] = std::max(wish_of_[id_], w);
  transport_.broadcast_others(WishMsg{w}.serialize());
  process_wishes();
}

void Synchronizer::on_message(ProcessId from, ByteView payload) {
  if (stopped_) return;
  auto wish = parse_wish(payload);
  if (!wish || wish->w == kNoView) return;
  View& entry = wish_of_[from];
  if (wish->w <= entry) return;
  entry = wish->w;
  process_wishes();
}

View Synchronizer::kth_highest_wish(std::uint32_t k) const {
  if (wish_of_.size() < k) return kNoView;
  std::vector<View> wishes;
  wishes.reserve(wish_of_.size());
  for (const auto& [pid, w] : wish_of_) wishes.push_back(w);
  std::nth_element(wishes.begin(), wishes.begin() + (k - 1), wishes.end(),
                   std::greater<View>());
  return wishes[k - 1];
}

void Synchronizer::process_wishes() {
  // Amplification: f+1 distinct wishers for views >= w means at least one
  // correct process timed out up to w; adopt and relay so everyone
  // converges within one message delay.
  View relay = kth_highest_wish(cfg_.f + 1);
  if (relay != kNoView && relay > my_wish_) {
    send_wish(relay);
  }

  // Entering: 2f+1 distinct wishers for views >= w contain f+1 correct
  // ones, so every correct process will also see f+1 (via relays) and can
  // never be left behind.
  View enter = kth_highest_wish(2 * cfg_.f + 1);
  if (enter != kNoView && enter > view_) {
    view_ = enter;
    arm_timer();
    enter_view_(enter);
  }
}

}  // namespace fastbft::viewsync
