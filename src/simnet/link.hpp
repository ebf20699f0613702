#pragma once

#include <coroutine>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "simnet/fair_share.hpp"
#include "simnet/link_fault.hpp"

namespace qadist::simnet {

/// A network link: fixed per-message latency (connection setup, RPC
/// framing) followed by fair-share bandwidth across all concurrent
/// transfers — the fluid-flow model of a shared Ethernet segment.
///
///   Link lan(sim, "lan", Bandwidth::from_mbps(100), 2e-3);
///   co_await lan.transfer(bytes);   // from any SimProcess
class Link {
 public:
  Link(Simulation& sim, std::string name, Bandwidth bandwidth,
       Seconds per_message_latency)
      : sim_(&sim),
        per_message_latency_(per_message_latency),
        channel_(std::make_unique<FairShareServer>(
            sim, std::move(name), bandwidth.bytes_per_second,
            bandwidth.bytes_per_second)) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Chained awaiter: suspends for the per-message latency, then joins the
  /// shared channel for the payload bytes. The awaiter object lives in the
  /// awaiting coroutine's frame for the whole transfer, so capturing
  /// `this` across the two phases is safe.
  class [[nodiscard]] TransferAwaiter {
   public:
    TransferAwaiter(Link& link, double bytes) : link_(link), bytes_(bytes) {}

    bool await_ready() const noexcept {
      return link_.per_message_latency_ <= 0.0 && bytes_ <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++link_.messages_;
      link_.sim_->schedule(link_.per_message_latency_, [this, h] {
        link_.channel_->enqueue(bytes_, h);
      });
    }
    void await_resume() const noexcept {}

   private:
    Link& link_;
    double bytes_;
  };

  /// Awaitable: completes when `bytes` have crossed the link.
  TransferAwaiter transfer(double bytes) { return TransferAwaiter(*this, bytes); }

  /// Like TransferAwaiter, but consults the link's fault injector (if any)
  /// for the fate of the message. A dropped message still costs the sender
  /// the per-message latency (the frame left the NIC) but never touches the
  /// shared channel; a duplicated one pays bandwidth twice. With no injector
  /// installed this produces exactly the same event sequence as transfer().
  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(Link& link, double bytes, std::uint32_t src, std::uint32_t dst)
        : link_(link), bytes_(bytes), src_(src), dst_(dst) {}

    bool await_ready() const noexcept {
      if (link_.injector_ != nullptr) return false;
      return link_.per_message_latency_ <= 0.0 && bytes_ <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ++link_.messages_;
      if (link_.injector_ != nullptr) {
        verdict_ = link_.injector_->decide(src_, dst_, link_.sim_->now());
      }
      const Seconds lead = link_.per_message_latency_ + verdict_.jitter;
      if (!verdict_.delivered) {
        link_.sim_->schedule(lead, h);
        return;
      }
      const double wire_bytes = verdict_.duplicated ? 2.0 * bytes_ : bytes_;
      link_.sim_->schedule(lead, [this, h, wire_bytes] {
        link_.channel_->enqueue(wire_bytes, h);
      });
    }
    LinkVerdict await_resume() const noexcept { return verdict_; }

   private:
    Link& link_;
    double bytes_;
    std::uint32_t src_;
    std::uint32_t dst_;
    LinkVerdict verdict_;
  };

  /// Awaitable: attempts to move `bytes` from `src` to `dst` and resumes
  /// with the LinkVerdict (use dst == kBroadcastNode for broadcasts).
  SendAwaiter send(double bytes, std::uint32_t src, std::uint32_t dst) {
    return SendAwaiter(*this, bytes, src, dst);
  }

  /// Installs (or clears, with nullptr) the fault oracle consulted by
  /// send(). Not owned; must outlive the link's traffic.
  void set_fault_injector(LinkFaultInjector* injector) { injector_ = injector; }

  [[nodiscard]] Seconds per_message_latency() const {
    return per_message_latency_;
  }
  [[nodiscard]] FairShareServer& channel() { return *channel_; }

  /// Messages transferred so far (latency legs counted).
  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  /// Total payload bytes completed.
  [[nodiscard]] double bytes_served() const { return channel_->work_served(); }

 private:
  friend class TransferAwaiter;
  friend class SendAwaiter;

  Simulation* sim_;
  Seconds per_message_latency_;
  std::unique_ptr<FairShareServer> channel_;
  LinkFaultInjector* injector_ = nullptr;
  std::uint64_t messages_ = 0;
};

}  // namespace qadist::simnet
