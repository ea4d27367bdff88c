#include "serve/request_queue.hpp"

#include <stdexcept>
#include <utility>

namespace bitflow::serve {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity < 1) throw std::invalid_argument("RequestQueue: capacity must be >= 1");
}

bool RequestQueue::try_push(Request& r) {
  {
    core::MutexLock lock(mu_);
    std::deque<Request>& lane = r.priority == Priority::kHigh ? hq_ : q_;
    if (closed_ || lane.size() >= capacity_) return false;
    lane.push_back(std::move(r));
  }
  ready_.notify_one();
  return true;
}

Request RequestQueue::pop_front_locked() {
  std::deque<Request>& lane = hq_.empty() ? q_ : hq_;
  Request r = std::move(lane.front());
  lane.pop_front();
  return r;
}

std::optional<Request> RequestQueue::pop() {
  core::MutexLock lock(mu_);
  while (!closed_ && hq_.empty() && q_.empty()) ready_.wait(lock);
  if (hq_.empty() && q_.empty()) return std::nullopt;  // closed and drained
  return pop_front_locked();
}

std::optional<Request> RequestQueue::pop_until(std::chrono::steady_clock::time_point tp) {
  core::MutexLock lock(mu_);
  while (!closed_ && hq_.empty() && q_.empty()) {
    if (ready_.wait_until(lock, tp) == std::cv_status::timeout) break;
  }
  // Timeout with nothing queued, or closed and drained.
  if (hq_.empty() && q_.empty()) return std::nullopt;
  return pop_front_locked();
}

std::optional<Request> RequestQueue::try_pop() {
  core::MutexLock lock(mu_);
  if (hq_.empty() && q_.empty()) return std::nullopt;
  return pop_front_locked();
}

void RequestQueue::close() {
  {
    core::MutexLock lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

bool RequestQueue::closed() const {
  core::MutexLock lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  core::MutexLock lock(mu_);
  return hq_.size() + q_.size();
}

}  // namespace bitflow::serve
