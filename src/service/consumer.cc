#include "service/consumer.h"

#include <algorithm>

#include "proxy/proxy.h"
#include "util/check.h"

namespace tamp::service {

const char* failure_cause_name(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone:
      return "ok";
    case FailureCause::kStaleDirectory:
      return "stale_directory";
    case FailureCause::kProviderDead:
      return "provider_dead";
    case FailureCause::kOverloaded:
      return "overloaded";
    case FailureCause::kNoProvider:
      return "no_provider";
    case FailureCause::kTimeout:
      return "timeout";
    case FailureCause::kProxyRelay:
      return "proxy_relay";
    case FailureCause::kCount:
      break;
  }
  return "?";
}

ResponseStatus to_response_status(FailureCause cause) {
  switch (cause) {
    case FailureCause::kNone:
      return ResponseStatus::kOk;
    case FailureCause::kStaleDirectory:
      return ResponseStatus::kNotHosted;
    case FailureCause::kOverloaded:
      return ResponseStatus::kOverloaded;
    default:
      return ResponseStatus::kUnavailable;
  }
}

ServiceConsumer::ServiceConsumer(sim::Simulation& sim, net::Network& net,
                                 protocols::MembershipDaemon& membership,
                                 ConsumerConfig config)
    : sim_(sim), net_(net), membership_(membership), config_(config) {
  // A colliding reply port would make the consumer answer itself.
  TAMP_CHECK_MSG(config_.reply_port != protocols::kServicePort &&
                     config_.reply_port != kProxyRelayPort,
                 "consumer reply_port %u collides with a request port",
                 static_cast<unsigned>(config_.reply_port));
}

ServiceConsumer::~ServiceConsumer() { stop(); }

void ServiceConsumer::start() {
  if (running_) return;
  running_ = true;
  net_.bind(self(), config_.reply_port,
            [this](const net::Packet& p) { on_packet(p); });
}

void ServiceConsumer::stop() {
  if (!running_) return;
  for (auto& [id, pending] : pending_) {
    sim_.cancel(pending.poll_timer);
    sim_.cancel(pending.request_timer);
  }
  pending_.clear();
  poll_to_request_.clear();
  net_.unbind(self(), config_.reply_port);
  running_ = false;
}

uint64_t ServiceConsumer::next_id() {
  // Globally unique across consumers: high bits carry the node id, so a
  // proxy relaying many consumers' requests never sees a collision.
  return (static_cast<uint64_t>(self()) << 32) | ++next_id_counter_;
}

void ServiceConsumer::invoke(const std::string& service, int partition,
                             uint32_t request_bytes, uint32_t response_bytes,
                             Callback callback) {
  Pending pending;
  pending.id = next_id();
  pending.service = service;
  pending.partition = partition;
  pending.request_bytes = request_bytes;
  pending.response_bytes = response_bytes;
  pending.callback = std::move(callback);
  pending.started = sim_.now();
  uint64_t id = pending.id;
  pending_.emplace(id, std::move(pending));
  attempt(id);
}

namespace {

void node_ids_of(const std::vector<const membership::MembershipEntry*>& rows,
                 std::vector<net::HostId>& hosts) {
  hosts.clear();
  for (const auto* entry : rows) hosts.push_back(entry->data().node);
}

}  // namespace

void ServiceConsumer::ProviderMemo::sync(
    const membership::MembershipTable& table) {
  if (table.generation() == generation_) return;
  generation_ = table.generation();
  used_ = 0;
  next_evict_ = 0;
  proxies_held_ = false;
}

const std::vector<net::HostId>& ServiceConsumer::ProviderMemo::providers(
    const membership::MembershipTable& table, const std::string& service,
    int partition) {
  sync(table);
  for (size_t i = 0; i < used_; ++i) {
    if (slots_[i].partition == partition && slots_[i].service == service) {
      return slots_[i].hosts;
    }
  }
  size_t index = used_;
  if (used_ < kSlots) {
    ++used_;
  } else {
    index = next_evict_;
    next_evict_ = (next_evict_ + 1) % kSlots;
  }
  Slot& slot = slots_[index];
  slot.service = service;
  slot.partition = partition;
  node_ids_of(table.lookup(service, std::to_string(partition)), slot.hosts);
  return slot.hosts;
}

const std::vector<net::HostId>& ServiceConsumer::ProviderMemo::proxies(
    const membership::MembershipTable& table) {
  sync(table);
  if (!proxies_held_) {
    node_ids_of(table.lookup(proxy::kProxyServiceName, "*"), proxies_);
    proxies_held_ = true;
  }
  return proxies_;
}

std::vector<net::HostId> ServiceConsumer::live_candidates(
    const Pending& pending) {
  std::vector<net::HostId> candidates;
  for (net::HostId host : memo_.providers(membership_.table(),
                                          pending.service,
                                          pending.partition)) {
    if (host == self()) continue;  // self-dispatch is not modeled
    if (std::find(pending.tried.begin(), pending.tried.end(), host) !=
        pending.tried.end()) {
      continue;
    }
    candidates.push_back(host);
  }
  return candidates;
}

void ServiceConsumer::attempt(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;

  if (pending.attempts >= kMaxAttempts) {
    attempt_proxy(pending);
    return;
  }
  ++pending.attempts;

  auto candidates = live_candidates(pending);
  if (candidates.empty()) {
    attempt_proxy(pending);
    return;
  }
  pending.saw_candidates = true;
  if (candidates.size() == 1) {
    dispatch(pending, candidates[0]);
    return;
  }
  sim_.rng().shuffle(candidates);
  candidates.resize(std::min<size_t>(
      candidates.size(), static_cast<size_t>(kPollCandidates)));
  start_poll(pending, std::move(candidates));
}

void ServiceConsumer::start_poll(Pending& pending,
                                 std::vector<net::HostId> candidates) {
  pending.poll_id = next_id();
  pending.poll_replies.clear();
  pending.polls_outstanding = static_cast<int>(candidates.size());
  poll_to_request_[pending.poll_id] = pending.id;

  LoadPollMsg poll;
  poll.poll_id = pending.poll_id;
  poll.from = self();
  poll.reply_port = config_.reply_port;
  auto payload = encode_service_message(poll);
  for (net::HostId host : candidates) {
    net_.send_unicast(self(), net::Address{host, protocols::kServicePort},
                      payload);
  }
  uint64_t id = pending.id;
  pending.poll_timer =
      sim_.schedule_after(kPollTimeout, [this, id] {
        poll_deadline(id);
      });
}

void ServiceConsumer::poll_deadline(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending& pending = it->second;
  pending.poll_timer = sim::kInvalidEventId;
  poll_to_request_.erase(pending.poll_id);

  // Every silent probe target is a directory row that pointed at a replica
  // no longer answering — the misroute cost of a stale view.
  pending.misroutes += pending.polls_outstanding -
                       static_cast<int>(pending.poll_replies.size());
  if (pending.poll_replies.empty()) {
    // Every probed replica is silent — likely dead. Retry with others.
    attempt(id);
    return;
  }
  dispatch(pending, lightest_reply(pending));
}

net::HostId ServiceConsumer::lightest_reply(const Pending& pending) {
  return std::min_element(
             pending.poll_replies.begin(), pending.poll_replies.end(),
             [](const auto& a, const auto& b) { return a.second < b.second; })
      ->first;
}

RequestMsg ServiceConsumer::request_for(const Pending& pending) const {
  RequestMsg request;
  request.request_id = pending.id;
  request.reply_host = self();
  request.reply_port = config_.reply_port;
  request.service = pending.service;
  request.partition = pending.partition;
  request.request_bytes = pending.request_bytes;
  request.response_bytes = pending.response_bytes;
  return request;
}

void ServiceConsumer::dispatch(Pending& pending, net::HostId target) {
  pending.target = target;
  pending.tried.push_back(target);

  net_.send_unicast(self(), net::Address{target, protocols::kServicePort},
                    encode_service_message(request_for(pending)));

  uint64_t id = pending.id;
  sim_.cancel(pending.request_timer);
  pending.request_timer =
      sim_.schedule_after(kRequestTimeout, [this, id] {
        request_deadline(id);
      });
}

void ServiceConsumer::request_deadline(uint64_t id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  it->second.request_timer = sim::kInvalidEventId;
  ++it->second.misroutes;  // dispatched to a silent (dead) target
  attempt(id);  // target silent: try the next replica
}

FailureCause ServiceConsumer::classify_failure(const Pending& pending) {
  // Explicit protocol evidence first, then inference from silence.
  if (pending.saw_not_hosted) return FailureCause::kStaleDirectory;
  if (pending.misroutes > 0) return FailureCause::kProviderDead;
  if (pending.saw_overload) return FailureCause::kOverloaded;
  if (!pending.saw_candidates) return FailureCause::kNoProvider;
  return FailureCause::kTimeout;
}

void ServiceConsumer::attempt_proxy(Pending& pending) {
  if (!config_.proxy_fallback || pending.via_proxy) {
    finish(pending.id, pending.via_proxy ? FailureCause::kProxyRelay
                                         : classify_failure(pending));
    return;
  }
  std::vector<net::HostId> hosts;
  for (net::HostId host : memo_.proxies(membership_.table())) {
    if (host != self()) hosts.push_back(host);
  }
  if (hosts.empty()) {
    finish(pending.id, classify_failure(pending));
    return;
  }
  pending.via_proxy = true;
  net::HostId proxy_host = sim_.rng().pick(hosts);

  net_.send_unicast(self(), net::Address{proxy_host, kProxyRelayPort},
                    encode_service_message(request_for(pending)));

  uint64_t id = pending.id;
  sim_.cancel(pending.request_timer);
  pending.request_timer =
      sim_.schedule_after(kRelayTimeout, [this, id] {
        finish(id, FailureCause::kProxyRelay);
      });
}

void ServiceConsumer::finish(uint64_t id, FailureCause cause,
                             net::HostId server) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Pending pending = std::move(it->second);
  sim_.cancel(pending.poll_timer);
  sim_.cancel(pending.request_timer);
  poll_to_request_.erase(pending.poll_id);
  pending_.erase(it);

  InvokeResult result;
  result.cause = cause;
  result.latency = sim_.now() - pending.started;
  result.server = server;
  result.via_proxy = pending.via_proxy;
  result.attempts = pending.attempts;
  result.misroutes = pending.misroutes;
  pending.callback(result);
}

void ServiceConsumer::on_packet(const net::Packet& packet) {
  auto message = decode_service_message(packet);
  if (!message) return;

  if (auto* reply = std::get_if<LoadReplyMsg>(&*message)) {
    auto mapping = poll_to_request_.find(reply->poll_id);
    if (mapping == poll_to_request_.end()) return;
    auto it = pending_.find(mapping->second);
    if (it == pending_.end()) return;
    Pending& pending = it->second;
    pending.poll_replies.emplace_back(reply->from, reply->load);
    if (static_cast<int>(pending.poll_replies.size()) >=
        pending.polls_outstanding) {
      sim_.cancel(pending.poll_timer);
      pending.poll_timer = sim::kInvalidEventId;
      poll_to_request_.erase(pending.poll_id);
      dispatch(pending, lightest_reply(pending));
    }
    return;
  }

  if (auto* response = std::get_if<ResponseMsg>(&*message)) {
    auto it = pending_.find(response->request_id);
    if (it == pending_.end()) return;
    Pending& pending = it->second;
    switch (response->status) {
      case ResponseStatus::kOk:
        finish(response->request_id, FailureCause::kNone, response->from);
        return;
      case ResponseStatus::kNotHosted:
      case ResponseStatus::kOverloaded: {
        if (response->status == ResponseStatus::kNotHosted) {
          // The provider is alive but never (or no longer) hosts this
          // partition: the directory row that routed us here was stale.
          pending.saw_not_hosted = true;
          ++pending.misroutes;
        } else {
          pending.saw_overload = true;
        }
        if (pending.via_proxy) {
          finish(response->request_id, FailureCause::kProxyRelay);
          return;
        }
        sim_.cancel(pending.request_timer);
        pending.request_timer = sim::kInvalidEventId;
        attempt(response->request_id);
        return;
      }
      case ResponseStatus::kUnavailable:
        finish(response->request_id, pending.via_proxy
                                         ? FailureCause::kProxyRelay
                                         : FailureCause::kProviderDead);
        return;
    }
  }
}

}  // namespace tamp::service
