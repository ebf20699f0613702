#pragma once

#include <coroutine>
#include <deque>

#include "common/check.hpp"
#include "simnet/simulation.hpp"

namespace qadist::simnet {

class ResourceLease;

/// Counted FIFO resource (a simulated semaphore). Used for slot-like
/// resources where holders occupy capacity for an arbitrary span rather
/// than consuming a work amount — e.g. the per-node memory slots that cap
/// how many Q/A tasks a node can host before thrashing.
///
///   ResourceLease lease = co_await node.memory_slots.acquire();
///   ... // slot held across any number of awaits
///   // released when `lease` goes out of scope
class Resource {
 public:
  Resource(Simulation& sim, int capacity)
      : sim_(sim), capacity_(capacity), available_(capacity) {
    QADIST_CHECK(capacity >= 1);
  }
  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  [[nodiscard]] int capacity() const { return capacity_; }
  [[nodiscard]] int available() const { return available_; }
  [[nodiscard]] int queued() const { return static_cast<int>(waiters_.size()); }
  /// Holders plus queued waiters — the resource's contribution to node load.
  [[nodiscard]] int pressure() const {
    return (capacity_ - available_) + queued();
  }

  class [[nodiscard]] AcquireAwaiter {
   public:
    explicit AcquireAwaiter(Resource& r) : resource_(r) {}
    bool await_ready() {
      if (resource_.available_ > 0) {
        --resource_.available_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      resource_.waiters_.push_back(h);
    }
    ResourceLease await_resume();

   private:
    Resource& resource_;
  };

  /// Awaitable yielding an RAII lease on one capacity unit (FIFO order).
  AcquireAwaiter acquire() { return AcquireAwaiter(*this); }

 private:
  friend class ResourceLease;

  void release() {
    if (!waiters_.empty()) {
      // Hand the unit directly to the oldest waiter; available_ stays as-is.
      auto h = waiters_.front();
      waiters_.pop_front();
      sim_.schedule(0.0, h);
    } else {
      ++available_;
      QADIST_CHECK(available_ <= capacity_);
    }
  }

  Simulation& sim_;
  int capacity_;
  int available_;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Move-only RAII holder for one unit of a Resource.
class ResourceLease {
 public:
  ResourceLease() = default;
  explicit ResourceLease(Resource* r) : resource_(r) {}
  ResourceLease(ResourceLease&& other) noexcept : resource_(other.resource_) {
    other.resource_ = nullptr;
  }
  ResourceLease& operator=(ResourceLease&& other) noexcept {
    if (this != &other) {
      reset();
      resource_ = other.resource_;
      other.resource_ = nullptr;
    }
    return *this;
  }
  ResourceLease(const ResourceLease&) = delete;
  ResourceLease& operator=(const ResourceLease&) = delete;
  ~ResourceLease() { reset(); }

  /// Releases early (idempotent).
  void reset() {
    if (resource_ != nullptr) {
      resource_->release();
      resource_ = nullptr;
    }
  }

  [[nodiscard]] bool holds() const { return resource_ != nullptr; }

 private:
  Resource* resource_ = nullptr;
};

inline ResourceLease Resource::AcquireAwaiter::await_resume() {
  return ResourceLease(&resource_);
}

}  // namespace qadist::simnet
