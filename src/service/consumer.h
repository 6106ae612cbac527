// Service consumer (the Neptune consumer module).
//
// Location-transparent invocation: the caller names (service, partition);
// the consumer resolves live providers through the local membership
// directory, balances load with the paper's random-polling scheme (probe d
// random replicas for their queue length, dispatch to the lightest), and
// fails over — first to other local replicas, then, when the service has no
// local provider at all, through the membership proxy to a remote
// datacenter (paper Fig. 6).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "protocols/daemon.h"
#include "protocols/ports.h"
#include "service/messages.h"
#include "sim/simulation.h"

namespace tamp::service {

inline constexpr net::Port kProxyRelayPort = 10072;

// Invocation tuning. The paper's random polling probes d = 2 replicas.
inline constexpr int kPollCandidates = 2;
inline constexpr sim::Duration kPollTimeout = 20 * sim::kMillisecond;
inline constexpr sim::Duration kRequestTimeout = 400 * sim::kMillisecond;
inline constexpr sim::Duration kRelayTimeout = 2 * sim::kSecond;  // WAN path
inline constexpr int kMaxAttempts = 3;

// The two values a caller varies: the proxy relay's consumer shares its
// node with gateway consumers, so it takes its own reply port, and it must
// never fall back to the proxy itself. Requests go to providers on
// protocols::kServicePort and to the relay on kProxyRelayPort, so the reply
// port must differ from both (checked at construction).
struct ConsumerConfig {
  net::Port reply_port = protocols::kServiceReplyPort;
  bool proxy_fallback = true;
};

// Why an invocation ended the way it did. Replaces the lossy
// `ok` + ResponseStatus pair: a false `ok` used to collapse "the directory
// pointed us at dead replicas", "a provider said it never hosted this", and
// "the WAN relay went dark" into one kUnavailable — exactly the distinctions
// churn-time SLO grading needs.
enum class FailureCause : uint8_t {
  kNone = 0,         // success
  kStaleDirectory,   // a provider answered kNotHosted: the directory row
                     //   outlived the registration it described
  kProviderDead,     // the attempt budget was consumed by silent targets the
                     //   directory still advertised (misroutes to dead
                     //   replicas)
  kOverloaded,       // every reachable replica pushed back kOverloaded
  kNoProvider,       // the directory never produced a candidate (and no
                     //   proxy path was available)
  kTimeout,          // budget exhausted without a classifiable reply
  kProxyRelay,       // the WAN relay path failed or timed out
  kCount,
};
inline constexpr int kFailureCauseCount =
    static_cast<int>(FailureCause::kCount);

const char* failure_cause_name(FailureCause cause);

// The wire-level status a cause collapses to — the relay answers remote
// consumers over the v1 service wire format, which only speaks
// ResponseStatus.
ResponseStatus to_response_status(FailureCause cause);

struct InvokeResult {
  FailureCause cause = FailureCause::kTimeout;
  sim::Duration latency = 0;
  net::HostId server = net::kInvalidHost;
  bool via_proxy = false;
  int attempts = 0;
  // Directory rows acted on that pointed at a non-serving replica: silent
  // probed/dispatched targets plus kNotHosted replies. Nonzero on success
  // too — a misroute the retry path absorbed still cost the user latency.
  int misroutes = 0;

  bool ok() const { return cause == FailureCause::kNone; }
};

class ServiceConsumer {
 public:
  using Callback = std::function<void(const InvokeResult&)>;

  ServiceConsumer(sim::Simulation& sim, net::Network& net,
                  protocols::MembershipDaemon& membership,
                  ConsumerConfig config = {});
  ~ServiceConsumer();

  ServiceConsumer(const ServiceConsumer&) = delete;
  ServiceConsumer& operator=(const ServiceConsumer&) = delete;

  void start();
  void stop();

  // Asynchronously invoke (service, partition); `service` is an exact
  // service name. The callback fires exactly once, on completion or final
  // failure.
  void invoke(const std::string& service, int partition,
              uint32_t request_bytes, uint32_t response_bytes,
              Callback callback);

  net::HostId self() const { return membership_.self(); }
  const ConsumerConfig& config() const { return config_; }

 private:
  struct Pending {
    uint64_t id = 0;
    std::string service;
    int partition = 0;
    uint32_t request_bytes = 0;
    uint32_t response_bytes = 0;
    Callback callback;
    sim::Time started = 0;
    int attempts = 0;
    bool via_proxy = false;
    std::vector<net::HostId> tried;
    // Failure-attribution evidence, accumulated across attempts.
    int misroutes = 0;
    bool saw_not_hosted = false;
    bool saw_overload = false;
    bool saw_candidates = false;
    // Poll phase.
    uint64_t poll_id = 0;
    int polls_outstanding = 0;
    std::vector<std::pair<net::HostId, uint32_t>> poll_replies;
    sim::EventId poll_timer = sim::kInvalidEventId;
    // Request phase.
    net::HostId target = net::kInvalidHost;
    sim::EventId request_timer = sim::kInvalidEventId;
  };

  uint64_t next_id();
  static FailureCause classify_failure(const Pending& pending);
  void attempt(uint64_t id);
  void start_poll(Pending& pending, std::vector<net::HostId> candidates);
  void poll_deadline(uint64_t id);
  void dispatch(Pending& pending, net::HostId target);
  void request_deadline(uint64_t id);
  void attempt_proxy(Pending& pending);
  RequestMsg request_for(const Pending& pending) const;
  static net::HostId lightest_reply(const Pending& pending);
  // Ends invocation `id` with `cause`, reporting the evidence its attempts
  // gathered.
  void finish(uint64_t id, FailureCause cause,
              net::HostId server = net::kInvalidHost);
  void on_packet(const net::Packet& packet);
  std::vector<net::HostId> live_candidates(const Pending& pending) const;

  sim::Simulation& sim_;
  net::Network& net_;
  protocols::MembershipDaemon& membership_;
  ConsumerConfig config_;
  bool running_ = false;
  uint64_t next_id_counter_ = 0;
  std::map<uint64_t, Pending> pending_;
  std::map<uint64_t, uint64_t> poll_to_request_;
};

}  // namespace tamp::service
