#include "service/provider.h"

#include <algorithm>

namespace tamp::service {

ServiceProvider::ServiceProvider(sim::Simulation& sim, net::Network& net,
                                 protocols::MembershipDaemon& membership,
                                 ProviderConfig config)
    : sim_(sim),
      net_(net),
      membership_(membership),
      self_(membership.self()),
      config_(config) {}

ServiceProvider::~ServiceProvider() { stop(); }

void ServiceProvider::host_service(const std::string& name,
                                   const std::vector<int>& partitions,
                                   std::map<std::string, std::string> params) {
  hosted_[name] = partitions;
  membership_.register_service(name, partitions, std::move(params));
}

void ServiceProvider::start() {
  if (running_) return;
  running_ = true;
  alive_ = std::make_shared<bool>(true);
  net_.bind(self(), config_.port,
            [this](const net::Packet& p) { on_packet(p); });
}

void ServiceProvider::stop() {
  if (!running_) return;
  net_.unbind(self(), config_.port);
  alive_.reset();  // orphans in-service finish() events
  queue_.clear();
  active_ = 0;
  running_ = false;
}

bool ServiceProvider::hosts(const std::string& service, int partition) const {
  auto it = hosted_.find(service);
  if (it == hosted_.end()) return false;
  return std::find(it->second.begin(), it->second.end(), partition) !=
         it->second.end();
}

void ServiceProvider::on_packet(const net::Packet& packet) {
  auto message = decode_service_message(packet);
  if (!message) return;

  if (auto* poll = std::get_if<LoadPollMsg>(&*message)) {
    LoadReplyMsg reply;
    reply.poll_id = poll->poll_id;
    reply.from = self();
    reply.load = current_load();
    net_.send_unicast(self(), net::Address{poll->from, poll->reply_port},
                      encode_service_message(reply));
    return;
  }

  auto* request = std::get_if<RequestMsg>(&*message);
  if (request == nullptr) return;

  if (!hosts(request->service, request->partition)) {
    ResponseMsg response;
    response.request_id = request->request_id;
    response.from = self();
    response.status = ResponseStatus::kNotHosted;
    net_.send_unicast(self(),
                      net::Address{request->reply_host, request->reply_port},
                      encode_service_message(response));
    return;
  }
  if (queue_.size() >= config_.max_queue) {
    ++rejected_;
    ResponseMsg response;
    response.request_id = request->request_id;
    response.from = self();
    response.status = ResponseStatus::kOverloaded;
    net_.send_unicast(self(),
                      net::Address{request->reply_host, request->reply_port},
                      encode_service_message(response));
    return;
  }
  queue_.push_back(*request);
  maybe_dispatch();
}

void ServiceProvider::maybe_dispatch() {
  while (active_ < config_.concurrency && !queue_.empty()) {
    RequestMsg request = queue_.front();
    queue_.pop_front();
    ++active_;
    sim::Duration service_time = static_cast<sim::Duration>(
        sim_.rng().exponential(
            static_cast<double>(config_.mean_service_time)));
    sim_.schedule_after(service_time,
                        [this, request,
                         alive = std::weak_ptr<bool>(alive_)] {
                          if (alive.expired()) return;
                          finish(request);
                        });
  }
}

void ServiceProvider::finish(const RequestMsg& request) {
  --active_;
  if (running_) {
    ++served_;
    ResponseMsg response;
    response.request_id = request.request_id;
    response.from = self();
    response.status = ResponseStatus::kOk;
    response.payload_bytes = request.response_bytes;
    net_.send_unicast(self(),
                      net::Address{request.reply_host, request.reply_port},
                      encode_service_message(response));
  }
  maybe_dispatch();
}

}  // namespace tamp::service
