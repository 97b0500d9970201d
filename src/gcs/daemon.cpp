#include "gcs/daemon.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace wam::gcs {

namespace {
/// Dedup key for origin-based message identity.
std::pair<std::uint32_t, std::uint64_t> origin_key(const DataMessage& d) {
  return {d.sender.daemon.value(), d.origin_msg_id};
}

}  // namespace

template <class Fn>
bool Daemon::RecvStream::accept(const DataMessage& msg, Fn&& deliver) {
  if (msg.seq <= delivered) return false;  // duplicate
  if (msg.seq > delivered + 1) {
    buffer.emplace(msg.seq, msg);
    return true;
  }
  delivered = msg.seq;
  deliver(msg);
  // Delivery may reenter (a local client answering synchronously), so
  // re-read the buffer from its start.
  auto it = buffer.begin();
  while (it != buffer.end() && it->first <= delivered) it = buffer.erase(it);
  while (it != buffer.end() && it->first == delivered + 1) {
    delivered = it->first;
    deliver(it->second);
    it = buffer.erase(it);
  }
  return false;
}

void Daemon::RecvStream::gaps(std::uint64_t hi,
                              std::vector<std::uint64_t>& out) const {
  for (std::uint64_t s = delivered + 1; s < hi && out.size() < 64; ++s) {
    if (buffer.count(s) == 0) out.push_back(s);
  }
}

std::vector<std::uint64_t> Daemon::RecvStream::missing() const {
  std::uint64_t top = buffer.empty() ? 0 : buffer.rbegin()->first;
  std::vector<std::uint64_t> out;
  gaps(std::max(top, advertised + 1), out);
  return out;
}

Daemon::Daemon(net::Host& host, Config config, sim::Log* log, int ifindex)
    : host_(host),
      config_(config),
      ifindex_(ifindex),
      id_(host.primary_ip(ifindex)),
      log_(log, "gcs/" + host.name()) {
  config_.validate();
}

Daemon::~Daemon() {
  if (running_) stop();
}

void Daemon::bind_observability(obs::Observability& obs, std::string scope) {
  obs_ = &obs;
  obs_scope_ = obs.intern(scope);
  obs::bind_counters(obs.registry, counters_, obs_scope_);
}

void Daemon::start() {
  WAM_EXPECTS(!running_);
  running_ = true;
  bool bound = host_.open_udp(
      config_.port, [this](const net::Host::UdpContext& ctx,
                           const util::SharedBytes& payload) { on_udp(ctx, payload); });
  WAM_ASSERT(bound);
  if (!config_.multicast_group.is_any()) {
    host_.join_multicast(ifindex_, config_.multicast_group);
  }
  // Fresh incarnation: wipe every trace of a previous run (a restarted
  // daemon must not resurrect its old clients' group entries or messages),
  // install a singleton view at epoch 0, then flood discovery.
  group_table_ = GroupTable{};
  pending_out_.clear();
  preinstall_.clear();
  pv_ = PerView();
  accepts_.clear();
  accepted_proposal_.reset();
  coordinator_ = false;
  view_ = View{ViewId{0, id_}, {id_}};
  state_ = State::kOp;
  auditor_.record(view_);
  heartbeat_timer_ = host_.scheduler().schedule(
      config_.heartbeat_timeout, [this] { heartbeat_tick(); });
  arm_audit_timer();
  log_.info("daemon %s starting", id_);
  enter_discovery("startup");
}

void Daemon::stop() {
  if (!running_) return;
  running_ = false;
  host_.close_udp(config_.port);
  if (!config_.multicast_group.is_any()) {
    host_.leave_multicast(ifindex_, config_.multicast_group);
  }
  heartbeat_timer_.cancel();
  nack_timer_.cancel();
  fifo_nack_timer_.cancel();
  audit_timer_.cancel();
  token_pass_timer_.cancel();
  token_retry_timer_.cancel();
  discovery_rebroadcast_timer_.cancel();
  discovery_deadline_timer_.cancel();
  install_deadline_timer_.cancel();
  for (auto& [member, timer] : fault_timers_) timer.cancel();
  fault_timers_.clear();
  auto clients = std::move(clients_);
  clients_.clear();
  for (auto& [cid, client] : clients) {
    if (client.callbacks.on_disconnect) client.callbacks.on_disconnect();
  }
  log_.info("daemon %s stopped", id_);
}

// ------------------------------------------------------------------ I/O ----

void Daemon::broadcast(const Message& msg) {
  if (!config_.multicast_group.is_any()) {
    host_.send_udp_multicast(ifindex_, config_.multicast_group, config_.port,
                             config_.port, encode(msg));
    return;
  }
  host_.send_udp_broadcast(ifindex_, config_.port, config_.port, encode(msg));
}

void Daemon::unicast(DaemonId to, const Message& msg) {
  if (to == id_) return;  // local paths are invoked directly
  host_.send_udp(to, config_.port, config_.port, encode(msg));
}

void Daemon::on_udp(const net::Host::UdpContext& ctx,
                    const util::SharedBytes& payload) {
  if (!running_) return;
  Message msg;
  try {
    msg = decode(payload);
  } catch (const util::DecodeError&) {
    ++counters_.decode_errors;
    return;
  }
  DaemonId src(ctx.src_ip);
  if (src == id_) return;  // our own broadcast reflected; fabric shouldn't
  note_alive(src);
  // Hearing a daemon outside our view while operational means the network
  // has more connectivity than the view reflects: reconfigure.
  if (state_ == State::kOp && !view_.contains(src)) {
    enter_discovery("foreign daemon heard");
  }
  std::visit(
      [this](auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Heartbeat>) {
          on_heartbeat(m);
        } else if constexpr (std::is_same_v<T, Discovery>) {
          on_discovery(m);
        } else if constexpr (std::is_same_v<T, Propose>) {
          on_propose(m);
        } else if constexpr (std::is_same_v<T, Accept>) {
          on_accept(m);
        } else if constexpr (std::is_same_v<T, Install>) {
          on_install(m);
        } else if constexpr (std::is_same_v<T, Forward>) {
          on_forward(std::move(m.data));
        } else if constexpr (std::is_same_v<T, DataMessage>) {
          on_data(m);
        } else if constexpr (std::is_same_v<T, Nack>) {
          on_nack(m);
        } else if constexpr (std::is_same_v<T, Token>) {
          on_token(std::move(m));
        }
      },
      msg);
}

// ----------------------------------------------------- failure detection ----

void Daemon::note_alive(DaemonId member) {
  if (member == id_) return;
  if (state_ == State::kOp && view_.contains(member)) {
    arm_fault_timer(member);
  }
}

void Daemon::arm_fault_timer(DaemonId member) {
  auto& timer = fault_timers_[member];
  timer.cancel();
  timer = host_.scheduler().schedule(
      config_.fault_detection_timeout, [this, member] {
        if (state_ != State::kOp || !view_.contains(member)) return;
        log_.info("fault detected: %s silent for %s", member,
                  config_.fault_detection_timeout);
        enter_discovery("fault detected");
      });
}

void Daemon::heartbeat_tick() {
  if (!running_) return;
  std::uint64_t stable = pv_.stable;
  if (state_ == State::kOp && is_sequencer() && !token_mode()) {
    pv_.member_delivered[id_] = pv_.agreed.delivered;
    stable = pv_.agreed.delivered;
    for (DaemonId m : view_.members) {
      auto it = pv_.member_delivered.find(m);
      std::uint64_t d = it == pv_.member_delivered.end() ? 0 : it->second;
      stable = std::min(stable, d);
    }
    prune_stable(stable);
  }
  Heartbeat hb{id_, view_.id, state_ == State::kOp, pv_.agreed.delivered,
               stable, pv_.fifo_out_seq};
  broadcast(hb);
  if (state_ == State::kOp) reforward_pending();
  heartbeat_timer_ = host_.scheduler().schedule(config_.heartbeat_timeout,
                                                [this] { heartbeat_tick(); });
}

void Daemon::on_heartbeat(const Heartbeat& hb) {
  if (state_ != State::kOp) return;
  if (!view_.contains(hb.sender)) return;  // foreign case handled in on_udp
  if (hb.in_op && hb.view != view_.id) {
    // A member operates in a different view than ours. Before treating the
    // disagreement as churn, audit OUR side against the install-time shadow:
    // a locally bit-flipped view id looks exactly like this, and the heal
    // path (restore shadow + rediscover) must get credit for it — this is
    // the "protocol-message boundary" audit point.
    if (audit_and_heal()) return;
    enter_discovery("view mismatch in heartbeat");
    return;
  }
  if (is_sequencer()) {
    pv_.member_delivered[hb.sender] = hb.delivered_seq;
  } else if (hb.sender == sequencer() && hb.stable_seq > pv_.stable) {
    prune_stable(hb.stable_seq);
  }
  // Sequenced-stream tail recovery: a short connectivity glitch (below the
  // fault-detection threshold, so no view change repairs it) can drop the
  // LAST sequenced messages, and with nothing newer in flight there is no
  // gap to notice — we would diverge from the group silently and forever.
  // Peers advertise their delivered head in every heartbeat; falling behind
  // it is the missing gap signal.
  if (hb.in_op && !is_sequencer() && pv_.agreed.hear(hb.delivered_seq)) {
    schedule_nack();
  }
  // FIFO/causal tail recovery: a dropped message with no successor leaves
  // no gap to detect, so the heartbeat advertises the origin's stream head
  // and we NACK up to it.
  if (hb.in_op && hb.fifo_seq > 0 &&
      pv_.origins[hb.sender].recv.hear(hb.fifo_seq)) {
    schedule_fifo_nack();
  }
}

void Daemon::prune_stable(std::uint64_t stable) {
  pv_.stable = std::max(pv_.stable, stable);
  pv_.store.erase(pv_.store.begin(), pv_.store.upper_bound(pv_.stable));
  drain_dispatch();  // stability may release withheld SAFE messages
}

// ------------------------------------------------------------ total order ----

DaemonId Daemon::sequencer() const {
  WAM_ASSERT(!view_.members.empty());
  return view_.members.front();
}

void Daemon::submit(DataMessage data) {
  data.origin_msg_id = next_out_id_++;
  if (data.service == ServiceType::kFifo ||
      data.service == ServiceType::kCausal) {
    // FIFO/causal: origin-sequenced, broadcast directly, reliable within
    // the view only (no re-forward across view changes, no VS exchange).
    if (state_ != State::kOp) {
      ++counters_.fifo_dropped_reconfig;
      return;
    }
    data.view = view_.id;
    data.seq = ++pv_.fifo_out_seq;
    if (data.service == ServiceType::kCausal) {
      // Happened-before snapshot: the last stream position we dispatched
      // from every OTHER origin.
      for (const auto& [origin, o] : pv_.origins) {
        if (origin != id_ && o.dispatched > 0) {
          data.vclock.emplace_back(origin.value(), o.dispatched);
        }
      }
    }
    pv_.fifo_store.emplace(data.seq, data);
    if (pv_.fifo_store.size() > 1024) {
      pv_.fifo_store.erase(pv_.fifo_store.begin());
    }
    ++counters_.fifo_sent;
    broadcast(data);
    deliver_fifo(data);  // self-delivery
    return;
  }
  pending_out_.push_back(data);
  if (state_ != State::kOp) return;  // re-forwarded after the next install
  if (token_mode()) return;  // flushed when the token next visits us
  data.view = view_.id;
  if (is_sequencer()) {
    sequence_and_broadcast(std::move(data));
  } else {
    unicast(sequencer(), Forward{std::move(data)});
  }
}

void Daemon::reforward_pending() {
  if (state_ != State::kOp || token_mode()) return;
  // When we are the sequencer, on_forward() delivers synchronously and the
  // client callbacks it triggers may submit() (growing pending_out_) or ack
  // messages that deliver() then erases — either invalidates a live
  // iterator. Iterate a snapshot; new submissions forward themselves and
  // on_forward dedups anything already sequenced.
  const auto snapshot = pending_out_;
  for (auto data : snapshot) {
    data.view = view_.id;
    if (is_sequencer()) {
      // Dedup in on_forward path; call it directly for symmetry.
      on_forward(std::move(data));
    } else {
      unicast(sequencer(), Forward{std::move(data)});
    }
  }
}

void Daemon::on_forward(DataMessage data) {
  if (state_ != State::kOp || !is_sequencer()) return;
  if (data.view != view_.id) return;  // raced a view change; origin re-sends
  if (!pv_.sequenced.insert(origin_key(data)).second) return;  // duplicate
  sequence_and_broadcast(std::move(data));
}

void Daemon::sequence_and_broadcast(DataMessage data) {
  data.view = view_.id;
  data.seq = pv_.next_seq++;
  pv_.sequenced.insert(origin_key(data));
  ++counters_.data_sequenced;
  broadcast(data);
  on_data(data);  // the fabric does not loop broadcasts back to the sender
}

void Daemon::on_data(const DataMessage& data) {
  if (data.service == ServiceType::kFifo ||
      data.service == ServiceType::kCausal) {
    on_fifo_data(data);
    return;
  }
  if (state_ != State::kOp || data.view != view_.id) {
    // Data for a view we have not installed yet: stash and replay after the
    // install; data for old views is stale and dropped.
    if (data.view.epoch >= view_.id.epoch && data.view != view_.id &&
        preinstall_[data.view].size() < 4096) {
      preinstall_[data.view].push_back(data);
    }
    return;
  }
  if (pv_.agreed.accept(data, [this](const DataMessage& m) { deliver(m); })) {
    schedule_nack();
  }
}

void Daemon::deliver(const DataMessage& data) {
  WAM_ASSERT(data.seq == pv_.agreed.delivered);
  pv_.store.emplace(data.seq, data);
  ++counters_.data_delivered;

  // Our own message came back: it is now ordered, stop re-forwarding it.
  if (data.sender.daemon == id_) {
    for (auto it = pending_out_.begin(); it != pending_out_.end(); ++it) {
      if (it->origin_msg_id == data.origin_msg_id) {
        pending_out_.erase(it);
        break;
      }
    }
  }

  // Dispatch through a queue so that SAFE messages can hold the line (and
  // everything ordered after them) until stability reaches them.
  pv_.dispatch_queue.push_back(data);
  drain_dispatch();
}

void Daemon::drain_dispatch(bool force) {
  while (!pv_.dispatch_queue.empty()) {
    const auto& front = pv_.dispatch_queue.front();
    if (!force && front.service == ServiceType::kSafe &&
        front.seq > pv_.stable) {
      break;  // not yet known-received by everyone
    }
    // Copy out: dispatch may reenter deliver() via synchronous local sends.
    DataMessage msg = front;
    pv_.dispatch_queue.pop_front();
    dispatch(msg);
  }
}

void Daemon::dispatch(const DataMessage& data) {
  switch (data.kind) {
    case DataKind::kJoin:
    case DataKind::kLeave:
      apply_group_control(data);
      break;
    case DataKind::kClientPayload:
      dispatch_to_clients(data);
      break;
  }
}

void Daemon::schedule_nack() {
  if (token_mode()) return;  // the token's rtr list recovers gaps
  if (nack_timer_.pending()) return;
  nack_timer_ =
      host_.scheduler().schedule(config_.nack_delay, [this] { nack_tick(); });
}

void Daemon::nack_tick() {
  if (state_ != State::kOp || is_sequencer()) return;
  Nack nack{view_.id, id_, {}, pv_.agreed.missing()};
  if (!nack.missing.empty()) {
    ++counters_.nacks_sent;
    unicast(sequencer(), nack);
    nack_timer_ = host_.scheduler().schedule(config_.nack_delay * 2,
                                             [this] { nack_tick(); });
  }
}

void Daemon::on_nack(const Nack& nack) {
  if (state_ != State::kOp || nack.view != view_.id) return;
  // A receiver is missing part of OUR fifo stream, or (we sequence) of the
  // agreed stream.
  const auto* store = nack.fifo_origin == id_ ? &pv_.fifo_store
                      : nack.fifo_origin.is_any() && is_sequencer() ? &pv_.store
                                                                    : nullptr;
  if (store == nullptr) return;
  for (std::uint64_t seq : nack.missing) {
    auto it = store->find(seq);
    if (it != store->end()) {
      ++counters_.retransmissions;
      unicast(nack.sender, it->second);
    }
  }
}

void Daemon::dispatch_to_clients(const DataMessage& data) {
  GroupMessage gm{data.group, data.sender, data.payload};
  for (std::uint32_t cid : local_members_of(data.group)) {
    auto it = clients_.find(cid);
    if (it != clients_.end() && it->second.callbacks.on_message) {
      it->second.callbacks.on_message(gm);
    }
  }
}

// ---------------------------------------------------------- FIFO service ----

void Daemon::on_fifo_data(const DataMessage& data) {
  if (state_ != State::kOp || data.view != view_.id) return;  // stale
  auto& stream = pv_.origins[data.sender.daemon].recv;
  if (stream.accept(data, [this](const DataMessage& m) { deliver_fifo(m); })) {
    schedule_fifo_nack();
  }
}

void Daemon::deliver_fifo(const DataMessage& data) {
  pv_.origins[data.sender.daemon].held.push_back(data);
  drain_origin_streams();
}

bool Daemon::causally_ready(const DataMessage& data) const {
  for (const auto& [daemon_value, seq] : data.vclock) {
    DaemonId origin{daemon_value};
    if (origin == data.sender.daemon) continue;  // own-stream order covers it
    auto it = pv_.origins.find(origin);
    std::uint64_t dispatched =
        it == pv_.origins.end() ? 0 : it->second.dispatched;
    if (dispatched < seq) return false;
  }
  return true;
}

void Daemon::drain_origin_streams() {
  // Dispatch per-origin streams in order; a causal message blocks its
  // origin's stream until its cross-origin dependencies are dispatched.
  // Dispatching anything may unblock other streams, so loop to fixpoint.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [origin, o] : pv_.origins) {
      while (!o.held.empty()) {
        const auto& head = o.held.front();
        if (head.service == ServiceType::kCausal && !causally_ready(head)) {
          break;
        }
        DataMessage msg = head;
        o.held.pop_front();
        o.dispatched = msg.seq;
        ++counters_.fifo_delivered;
        // These services carry application payloads only; group control is
        // always agreed.
        if (msg.kind == DataKind::kClientPayload) dispatch_to_clients(msg);
        progress = true;
      }
    }
  }
}

void Daemon::schedule_fifo_nack() {
  if (fifo_nack_timer_.pending()) return;
  fifo_nack_timer_ = host_.scheduler().schedule(config_.nack_delay,
                                                [this] { fifo_nack_tick(); });
}

void Daemon::fifo_nack_tick() {
  if (state_ != State::kOp) return;
  bool gaps_remain = false;
  for (const auto& [origin, o] : pv_.origins) {
    if (origin == id_) continue;
    Nack nack{view_.id, id_, origin, o.recv.missing()};
    if (!nack.missing.empty()) {
      gaps_remain = true;
      ++counters_.nacks_sent;
      unicast(origin, nack);
    }
  }
  if (gaps_remain) {
    fifo_nack_timer_ = host_.scheduler().schedule(
        config_.nack_delay * 2, [this] { fifo_nack_tick(); });
  }
}

// ------------------------------------------------------- token ordering ----

DaemonId Daemon::ring_successor() const {
  int rank = view_.rank_of(id_);
  WAM_ASSERT(rank >= 0);
  auto next = static_cast<std::size_t>(rank + 1) % view_.members.size();
  return view_.members[next];
}

void Daemon::on_token(Token token) {
  if (!token_mode() || state_ != State::kOp || token.view != view_.id) return;
  if (token.rotation <= pv_.last_rotation_seen) return;  // duplicate/stale
  pv_.last_rotation_seen = token.rotation;
  token_retry_timer_.cancel();  // the ring made progress past our last send
  ++counters_.token_rotations;

  // 1. Retransmit what others asked for and we have.
  std::vector<std::uint64_t> still_missing;
  for (auto seq : token.rtr) {
    const DataMessage* have = nullptr;
    if (auto it = pv_.store.find(seq); it != pv_.store.end()) {
      have = &it->second;
    }
    if (auto it = pv_.agreed.buffer.find(seq); it != pv_.agreed.buffer.end()) {
      have = &it->second;
    }
    if (have) {
      ++counters_.retransmissions;
      broadcast(*have);
    } else {
      still_missing.push_back(seq);
    }
  }
  token.rtr = std::move(still_missing);

  // 2. Broadcast our pending messages, stamping sequence numbers from the
  //    token (flow-controlled by the per-hold window).
  // Two phases: stamp and copy first, then send — local delivery erases
  // entries from pending_out_, which must not happen while iterating it.
  std::vector<DataMessage> outgoing;
  int sent = 0;
  for (auto& data : pending_out_) {
    if (sent >= config_.token_window) break;
    if (data.seq != 0) continue;  // already stamped on an earlier hold
    data.view = view_.id;
    data.seq = ++token.seq;
    outgoing.push_back(data);
    ++sent;
  }
  for (auto& data : outgoing) {
    ++counters_.data_sequenced;
    broadcast(data);
    // Deliver locally: on_data copes with any ordering.
    on_data(data);
  }

  // 3. Ask for our own gaps.
  pv_.agreed.gaps(token.seq + 1, token.rtr);

  // 4. Totem aru rule: lower it to our all-received-up-to if we are
  //    behind; raise it only if we set it last.
  const std::uint64_t delivered = pv_.agreed.delivered;
  if (delivered < token.aru) {
    token.aru = delivered;
    token.aru_setter = id_;
  } else if (token.aru_setter == id_) {
    token.aru = delivered;
  }

  // 5. Stability: everything at or below the aru of the PREVIOUS rotation
  //    has been received by all members for a full rotation.
  auto stable = std::min(pv_.prev_token_aru, token.aru);
  pv_.prev_token_aru = token.aru;
  prune_stable(stable);

  // 6. Pass it on after the hold time (paces the rotation).
  token.rotation += 1;
  token_pass_timer_.cancel();
  token_pass_timer_ = host_.scheduler().schedule(
      config_.token_hold,
      [this, token = std::move(token)] { pass_token(token); });
}

void Daemon::pass_token(Token token) {
  if (!token_mode() || state_ != State::kOp || token.view != view_.id) return;
  pv_.last_sent_token = token;
  auto successor = ring_successor();
  if (successor == id_) {
    // Singleton ring: loop the token to ourselves through the scheduler.
    host_.scheduler().schedule(config_.token_hold,
                               [this, token = std::move(token)] {
                                 on_token(token);
                               });
    return;
  }
  unicast(successor, token);
  token_retry_timer_.cancel();
  token_retry_timer_ = host_.scheduler().schedule(
      config_.token_retry, [this] { token_retry_tick(); });
}

void Daemon::token_retry_tick() {
  const auto& last = pv_.last_sent_token;
  if (!token_mode() || state_ != State::kOp || !last) return;
  if (last->view != view_.id) return;
  // No token has come back since we sent ours: assume the unicast was lost
  // and resend the same copy (receivers dedup on the rotation counter).
  ++counters_.token_retries;
  unicast(ring_successor(), *last);
  token_retry_timer_ = host_.scheduler().schedule(
      config_.token_retry, [this] { token_retry_tick(); });
}

// --------------------------------------------------- membership protocol ----

void Daemon::enter_discovery(const char* reason) {
  if (!running_) return;
  ++counters_.discoveries_started;
  state_ = State::kDiscovery;
  coordinator_ = false;
  accepted_proposal_.reset();
  accepts_.clear();
  proposed_members_.clear();
  for (auto& [member, timer] : fault_timers_) timer.cancel();
  fault_timers_.clear();
  nack_timer_.cancel();
  fifo_nack_timer_.cancel();
  token_pass_timer_.cancel();
  token_retry_timer_.cancel();
  install_deadline_timer_.cancel();
  discovery_epoch_ = std::max(discovery_epoch_, view_.id.epoch) + 1;
  known_ = {id_};
  log_.info("entering discovery (epoch %llu): %s",
            static_cast<unsigned long long>(discovery_epoch_), reason);
  discovery_broadcast();
  discovery_rebroadcast_timer_.cancel();
  discovery_rebroadcast_timer_ = host_.scheduler().schedule(
      config_.heartbeat_timeout, [this] {
        if (state_ != State::kDiscovery) return;
        discovery_broadcast();
        discovery_rebroadcast_timer_ = host_.scheduler().schedule(
            config_.heartbeat_timeout, [this] {
              if (state_ == State::kDiscovery) discovery_broadcast();
            });
      });
  discovery_deadline_timer_.cancel();
  discovery_deadline_timer_ = host_.scheduler().schedule(
      config_.discovery_timeout, [this] { discovery_deadline(); });
}

void Daemon::discovery_broadcast() {
  broadcast(Discovery{id_, discovery_epoch_, known_});
}

bool Daemon::learn(DaemonId id) {
  auto it = std::lower_bound(known_.begin(), known_.end(), id);
  if (it != known_.end() && *it == id) return false;
  known_.insert(it, id);
  return true;
}

void Daemon::on_discovery(const Discovery& d) {
  if (state_ == State::kOp) {
    enter_discovery("peer in discovery");
    // Fall through with the freshly reset discovery state.
  } else if (state_ == State::kAwaitInstall) {
    // proposed_members_ is sorted (it is the coordinator's known_), so
    // the membership check binary-searches. A peer's d.known is never
    // assumed sorted: learn() checks each id against our own known_.
    bool cascades = !accepted_proposal_ ||
                    d.epoch >= accepted_proposal_->epoch ||
                    !std::binary_search(proposed_members_.begin(),
                                        proposed_members_.end(), d.sender);
    if (!cascades) return;  // stale flood from before the proposal
    enter_discovery("cascading view change");
  }
  WAM_ASSERT(state_ == State::kDiscovery);
  bool changed = false;
  if (d.epoch > discovery_epoch_) {
    discovery_epoch_ = d.epoch;
    changed = true;
  }
  if (learn(d.sender)) changed = true;
  for (DaemonId k : d.known) {
    if (learn(k)) changed = true;
  }
  // Rebroadcast only what taught us something. A flood that does not list
  // us yet gets no reply: our own broadcast naming us is already in
  // flight, and the rebroadcast timer and other daemons' relays cover its
  // loss. Replying to every such message would cost O(N^3) frames.
  if (changed) {
    discovery_broadcast();
    // Extend the window so the flood can converge everywhere.
    discovery_deadline_timer_.cancel();
    discovery_deadline_timer_ = host_.scheduler().schedule(
        config_.discovery_timeout, [this] { discovery_deadline(); });
  }
}

void Daemon::discovery_deadline() {
  if (state_ != State::kDiscovery) return;
  discovery_rebroadcast_timer_.cancel();
  if (known_.front() == id_) {
    // We coordinate the install.
    coordinator_ = true;
    proposed_members_ = known_;
    ViewId proposal{discovery_epoch_, id_};
    accepted_proposal_ = proposal;
    accepts_.clear();
    state_ = State::kAwaitInstall;
    log_.info("proposing view %s with %zu members",
              proposal, known_.size());
    if (known_.size() > 1) {
      broadcast(Propose{proposal, known_});
      install_deadline_timer_.cancel();
      install_deadline_timer_ = host_.scheduler().schedule(
          config_.effective_install_timeout(), [this] { install_deadline(); });
    }
    on_accept(make_own_accept(proposal));
  } else {
    state_ = State::kAwaitInstall;
    coordinator_ = false;
    install_deadline_timer_.cancel();
    install_deadline_timer_ = host_.scheduler().schedule(
        config_.effective_install_timeout(), [this] { install_deadline(); });
  }
}

Accept Daemon::make_own_accept(const ViewId& proposal) const {
  Accept a;
  a.view = proposal;
  a.sender = id_;
  a.old_view = view_.id;
  a.retained.reserve(pv_.store.size());
  for (const auto& [seq, msg] : pv_.store) a.retained.push_back(msg);
  a.groups = group_table_.entries();
  a.group_seqs = group_table_.seqs();
  return a;
}

void Daemon::on_propose(const Propose& p) {
  bool includes_us =
      std::binary_search(p.members.begin(), p.members.end(), id_);
  if (!includes_us) {
    // They formed a view without us; our flood will trigger another change.
    enter_discovery("proposed view excludes us");
    return;
  }
  switch (state_) {
    case State::kOp:
      if (p.view.epoch <= view_.id.epoch) return;  // stale
      discovery_epoch_ = std::max(discovery_epoch_, p.view.epoch);
      send_accept(p.view, p.view.coordinator);
      break;
    case State::kDiscovery:
      if (p.view.epoch < discovery_epoch_) return;  // stale
      discovery_epoch_ = p.view.epoch;
      discovery_rebroadcast_timer_.cancel();
      discovery_deadline_timer_.cancel();
      send_accept(p.view, p.view.coordinator);
      break;
    case State::kAwaitInstall:
      if (accepted_proposal_ && p.view <= *accepted_proposal_) return;
      coordinator_ = false;
      accepts_.clear();
      send_accept(p.view, p.view.coordinator);
      break;
  }
}

void Daemon::send_accept(const ViewId& proposal, DaemonId coordinator) {
  accepted_proposal_ = proposal;
  state_ = State::kAwaitInstall;
  install_deadline_timer_.cancel();
  install_deadline_timer_ = host_.scheduler().schedule(
      config_.effective_install_timeout(), [this] { install_deadline(); });
  Accept a = make_own_accept(proposal);
  log_.debug("accepting proposal %s", proposal);
  unicast(coordinator, a);
}

void Daemon::on_accept(const Accept& a) {
  if (!coordinator_ || !accepted_proposal_ || a.view != *accepted_proposal_) {
    return;
  }
  accepts_[a.sender] = a;
  maybe_finish_collect();
}

void Daemon::maybe_finish_collect() {
  for (DaemonId m : proposed_members_) {
    if (accepts_.count(m) == 0) return;
  }
  // Build the install: per-old-view union of retained messages, merged group
  // table restricted to surviving daemons, per-group max sequence counters.
  Install inst;
  inst.view = View{*accepted_proposal_, proposed_members_};
  std::sort(inst.view.members.begin(), inst.view.members.end());

  std::map<std::pair<ViewId, std::uint64_t>, DataMessage> sync;
  std::map<std::pair<std::string, std::pair<std::uint32_t, std::uint32_t>>,
           GroupEntry>
      groups;
  std::map<std::string, std::uint64_t> seqs;
  for (const auto& [sender, accept] : accepts_) {
    for (const auto& msg : accept.retained) {
      sync.emplace(std::make_pair(msg.view, msg.seq), msg);
    }
    for (const auto& entry : accept.groups) {
      if (!inst.view.contains(entry.member.daemon)) continue;
      // Each daemon is authoritative for the clients IT hosts: accepting a
      // peer's stale record for another daemon's client would resurrect
      // ghost members after that daemon restarted (its new incarnation has
      // no such client, and a group view containing one deadlocks any
      // client protocol that waits to hear from every member).
      if (entry.member.daemon != sender) continue;
      groups.emplace(
          std::make_pair(entry.group,
                         std::make_pair(entry.member.daemon.value(),
                                        entry.member.client)),
          entry);
    }
    for (const auto& [group, seq] : accept.group_seqs) {
      auto& s = seqs[group];
      s = std::max(s, seq);
    }
  }
  inst.sync.reserve(sync.size());
  for (auto& [key, msg] : sync) inst.sync.push_back(std::move(msg));
  inst.groups.reserve(groups.size());
  for (auto& [key, entry] : groups) inst.groups.push_back(std::move(entry));
  inst.group_seqs.assign(seqs.begin(), seqs.end());

  log_.info("installing view %s (%zu members, %zu sync msgs)",
            inst.view.id, inst.view.members.size(),
            inst.sync.size());
  broadcast(inst);
  install_view(inst);
}

void Daemon::on_install(const Install& inst) {
  if (!inst.view.contains(id_)) {
    enter_discovery("installed view excludes us");
    return;
  }
  if (state_ != State::kAwaitInstall || !accepted_proposal_ ||
      inst.view.id != *accepted_proposal_) {
    // We did not contribute our state to this view; joining it could break
    // Virtual Synchrony, so force another round instead.
    if (state_ == State::kOp && inst.view.id.epoch <= view_.id.epoch) return;
    enter_discovery("unexpected install");
    return;
  }
  install_view(inst);
}

void Daemon::install_view(const Install& inst) {
  // Extended-Virtual-Synchrony transitional signal: before replaying the
  // old view's tail, tell local group members which of their peers are
  // transitioning together (the only ones guaranteed to have delivered the
  // same set). Clients that do not care (Wackamole) skip transitional
  // views.
  for (const auto& name : group_table_.group_names()) {
    auto locals = local_members_of(name);
    if (locals.empty()) continue;
    GroupView tv;
    tv.group = name;
    tv.daemon_view = view_.id;  // the OLD view
    tv.group_seq = group_table_.seq(name);
    tv.reason = GroupChangeReason::kNetwork;
    tv.transitional = true;
    for (const auto& m : group_table_.members_of(name, view_)) {
      if (inst.view.contains(m.daemon)) tv.members.push_back(m);
    }
    for (std::uint32_t cid : locals) {
      auto it = clients_.find(cid);
      if (it != clients_.end() && it->second.callbacks.on_membership) {
        it->second.callbacks.on_membership(tv);
      }
    }
  }

  // Virtual-Synchrony exchange: deliver the sync messages belonging to OUR
  // previous view that we have not delivered yet, in order and without
  // gaps. All daemons transitioning from that view compute the same cut.
  auto& agreed = pv_.agreed;
  for (const auto& msg : inst.sync) {
    if (msg.view != view_.id) continue;
    if (msg.seq <= agreed.delivered) continue;
    if (msg.seq != agreed.delivered + 1) break;  // gap: discard the tail
    agreed.delivered = msg.seq;
    deliver(msg);
    ++counters_.sync_messages_delivered;
  }
  // Release anything still withheld (SAFE): all members that transitioned
  // with us flush the identical set here, preserving agreement.
  drain_dispatch(true);

  view_ = inst.view;
  state_ = State::kOp;
  auditor_.record(view_);
  discovery_epoch_ = std::max(discovery_epoch_, view_.id.epoch);
  pv_ = PerView();
  fifo_nack_timer_.cancel();
  token_pass_timer_.cancel();
  token_retry_timer_.cancel();
  coordinator_ = false;
  accepts_.clear();
  accepted_proposal_.reset();
  discovery_rebroadcast_timer_.cancel();
  discovery_deadline_timer_.cancel();
  install_deadline_timer_.cancel();
  ++counters_.views_installed;
  if (obs_ != nullptr) {
    obs_->emit(host_.scheduler().now(), obs::EventType::kViewInstalled,
               obs_scope_,
               {{"view", view_.id.to_string()},
                {"members", view_.members.size()}});
  }

  group_table_.replace(inst.groups, inst.group_seqs);
  // Each accept's entries reflect that daemon's own position in the agreed
  // stream at collect time. A daemon that had not yet delivered a sequenced
  // leave/join for one of ITS OWN clients contributes a stale entry which
  // the authoritativeness filter in maybe_finish_collect() then prefers
  // over every peer's fresher copy — resurrecting a ghost member (and
  // dropping a re-join) that wedges any client protocol waiting to hear
  // from all group members. The sync cut carries exactly the controls such
  // a daemon missed, it is identical in every Install, and join/leave are
  // idempotent on the table, so re-applying it here converges all daemons
  // on the same ghost-free table. Notifications are NOT fired per control:
  // refresh_groups_after_install() below announces the final membership
  // once, with identical group sequence numbers everywhere.
  for (const auto& msg : inst.sync) {
    if (msg.kind != DataKind::kJoin && msg.kind != DataKind::kLeave) continue;
    if (!inst.view.contains(msg.sender.daemon)) continue;
    if (msg.kind == DataKind::kJoin) {
      group_table_.join(msg.group, msg.sender);
    } else {
      group_table_.leave(msg.group, msg.sender);
    }
  }
  // The merged table is authoritative for which groups our clients are in.
  for (auto& [cid, client] : clients_) {
    client.groups.clear();
  }
  for (const auto& entry : group_table_.entries()) {
    if (entry.member.daemon != id_) continue;
    auto it = clients_.find(entry.member.client);
    if (it != clients_.end()) it->second.groups.insert(entry.group);
  }

  for (DaemonId m : view_.members) {
    if (m != id_) arm_fault_timer(m);
  }

  log_.info("installed %s", view_);
  refresh_groups_after_install();

  // Replay data already received for this view, then resubmit whatever of
  // ours is still unordered.
  auto stashed = preinstall_.find(view_.id);
  if (stashed != preinstall_.end()) {
    auto msgs = std::move(stashed->second);
    preinstall_.clear();
    std::sort(msgs.begin(), msgs.end(),
              [](const DataMessage& a, const DataMessage& b) {
                return a.seq < b.seq;
              });
    for (const auto& msg : msgs) on_data(msg);
  } else {
    preinstall_.clear();
  }
  for (auto& pending : pending_out_) pending.seq = 0;  // restamp in new view
  reforward_pending();
  if (token_mode() && view_.members.front() == id_) {
    // The lowest member injects a fresh token into the new ring.
    Token token;
    token.view = view_.id;
    token.rotation = 1;
    token.aru_setter = id_;
    on_token(std::move(token));
  }
  // Kick stability/liveness gossip without waiting a full heartbeat.
  Heartbeat hb{id_, view_.id, true, pv_.agreed.delivered, pv_.stable};
  broadcast(hb);
}

void Daemon::install_deadline() {
  if (state_ != State::kAwaitInstall) return;
  enter_discovery("install timeout");
}

// ------------------------------------------------------- group handling ----

void Daemon::apply_group_control(const DataMessage& data) {
  const MemberId& member = data.sender;
  if (data.kind == DataKind::kJoin) {
    if (!group_table_.join(data.group, member)) return;
    if (member.daemon == id_) {
      auto it = clients_.find(member.client);
      if (it != clients_.end()) it->second.groups.insert(data.group);
    }
    notify_group(data.group, GroupChangeReason::kJoin);
  } else {
    if (!group_table_.leave(data.group, member)) return;
    if (member.daemon == id_) {
      auto it = clients_.find(member.client);
      if (it != clients_.end()) it->second.groups.erase(data.group);
    }
    notify_group(data.group, GroupChangeReason::kLeave);
  }
}

void Daemon::notify_group(const std::string& group, GroupChangeReason reason) {
  // CRITICAL: this function must run under exactly the same conditions at
  // every daemon (it advances the group's view sequence number, which
  // clients embed in their own protocols as the view identity). Callers
  // guarantee determinism: join/leave notifications fire only when the
  // totally-ordered control message actually changed the synced table, and
  // install-time notifications fire unconditionally for every group in the
  // merged table.
  auto members = group_table_.members_of(group, view_);
  GroupView gv;
  gv.group = group;
  gv.daemon_view = view_.id;
  gv.group_seq = group_table_.bump_seq(group);
  gv.reason = reason;
  gv.members = std::move(members);
  for (std::uint32_t cid : local_members_of(group)) {
    auto cit = clients_.find(cid);
    if (cit != clients_.end() && cit->second.callbacks.on_membership) {
      cit->second.callbacks.on_membership(gv);
    }
  }
}

void Daemon::refresh_groups_after_install() {
  // Deliver a fresh group view for EVERY group after a daemon membership
  // change, even if the member set happens to be unchanged: the decision
  // must not depend on per-daemon history (a daemon that just merged in
  // has no history), or the per-group sequence numbers would diverge.
  for (const auto& name : group_table_.group_names()) {
    notify_group(name, GroupChangeReason::kNetwork);
  }
}

std::vector<std::uint32_t> Daemon::local_members_of(
    const std::string& group) const {
  std::vector<std::uint32_t> out;
  for (const auto& [cid, client] : clients_) {
    if (client.groups.count(group) > 0) out.push_back(cid);
  }
  return out;
}

// ------------------------------------------------------- client sessions ----

std::uint32_t Daemon::register_client(std::string name,
                                      ClientCallbacks callbacks) {
  WAM_EXPECTS(running_);
  auto cid = next_client_id_++;
  clients_[cid] = LocalClient{std::move(name), std::move(callbacks), {}};
  return cid;
}

void Daemon::unregister_client(std::uint32_t client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  // Graceful departure: leave every group first so no ghost members linger.
  auto groups = it->second.groups;
  for (const auto& group : groups) client_leave(client, group);
  clients_.erase(client);
}

void Daemon::client_join(std::uint32_t client, const std::string& group) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  DataMessage d;
  d.sender = member_id(client);
  d.kind = DataKind::kJoin;
  d.group = group;
  submit(std::move(d));
}

void Daemon::client_leave(std::uint32_t client, const std::string& group) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  DataMessage d;
  d.sender = member_id(client);
  d.kind = DataKind::kLeave;
  d.group = group;
  submit(std::move(d));
}

void Daemon::client_multicast(std::uint32_t client, const std::string& group,
                              util::Bytes payload, ServiceType service) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  DataMessage d;
  d.sender = member_id(client);
  d.service = service;
  d.kind = DataKind::kClientPayload;
  d.group = group;
  d.payload = std::move(payload);
  submit(std::move(d));
}

MemberId Daemon::member_id(std::uint32_t client) const {
  auto it = clients_.find(client);
  std::string name = it == clients_.end() ? "?" : it->second.name;
  return MemberId{id_, client, std::move(name)};
}

// --------------------------------- self-stabilization: view audit / heal ----

void Daemon::arm_audit_timer() {
  if (config_.audit_interval == sim::kZero) return;
  audit_timer_.cancel();
  audit_timer_ = host_.scheduler().schedule(config_.audit_interval,
                                            [this] { audit_tick(); });
}

bool Daemon::audit_and_heal() {
  // Only the operational state carries an installed view worth checking;
  // mid-discovery the view is about to be replaced anyway.
  if (!running_ || state_ != State::kOp) return false;
  auto f = auditor_.audit(view_, id_);
  if (!f) return false;
  ++counters_.corruptions_detected;
  log_.warn("view audit: %s (%s) — restoring shadow and rediscovering",
            view_check_name(f->check), f->detail);
  if (obs_ != nullptr) {
    obs_->emit(host_.scheduler().now(), obs::EventType::kCorruptionDetected,
               obs_scope_,
               {{"checks", view_check_name(f->check)}, {"detail", f->detail}});
  }
  // Heal: the shadow recorded at install is the trusted copy. Restore
  // it, fold the epoch high-water mark into the discovery epoch (the
  // rejoin must be a strictly fresh incarnation even if the corrupt
  // epoch had jumped ahead), and re-run the membership protocol so
  // every derived table is rebuilt by the install exchange.
  view_ = auditor_.shadow();
  discovery_epoch_ = std::max(discovery_epoch_, auditor_.shadow_epoch());
  ++counters_.self_heals;
  if (obs_ != nullptr) {
    obs_->emit(host_.scheduler().now(), obs::EventType::kSelfHeal, obs_scope_,
               {{"action", "rediscovery"}});
  }
  enter_discovery("view audit");
  return true;
}

void Daemon::audit_tick() {
  if (!running_) return;
  audit_and_heal();
  arm_audit_timer();
}

bool Daemon::force_rediscovery(const char* reason) {
  if (!running_ || state_ != State::kOp) return false;
  enter_discovery(reason);
  return true;
}

bool Daemon::chaos_flip_view_epoch() {
  if (!running_ || state_ != State::kOp) return false;
  view_.id.epoch ^= 0x40;  // single bit flip: the classic soft error
  log_.warn("chaos: flipped view epoch to %llu",
            static_cast<unsigned long long>(view_.id.epoch));
  // A flip landing on a still-unhealed earlier flip cancels it: the view
  // matches the shadow again and no audit could ever find anything.
  // Report not-applied so the oracle records no detection obligation.
  if (!auditor_.audit(view_, id_).has_value()) {
    log_.warn("chaos: double flip restored the view id — no corruption");
    return false;
  }
  return true;
}

}  // namespace wam::gcs
