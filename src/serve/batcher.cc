#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ads::serve {

MicroBatcher::MicroBatcher(BatcherOptions options) : options_(options) {
  ADS_CHECK(options_.max_batch_size >= 1) << "batches hold at least one";
  ADS_CHECK(options_.max_linger_seconds >= 0.0) << "negative linger";
}

void MicroBatcher::Add(Request request) {
  min_deadline_ = std::min(min_deadline_, request.deadline);
  queue_.push_back(std::move(request));
}

bool MicroBatcher::Ready(double now) const {
  if (pending() == 0) return false;
  if (pending() >= options_.max_batch_size) return true;
  return now >= queue_[head_].arrival + options_.max_linger_seconds;
}

double MicroBatcher::NextDeadline() const {
  if (pending() == 0) return std::numeric_limits<double>::infinity();
  return queue_[head_].arrival + options_.max_linger_seconds;
}

void MicroBatcher::Reclaim() {
  if (head_ == queue_.size()) {
    queue_.clear();
    head_ = 0;
    min_deadline_ = std::numeric_limits<double>::infinity();
  } else if (head_ > pending()) {
    // Fewer requests move than were taken since the last reclaim.
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void MicroBatcher::TakeBatch(std::vector<Request>* batch) {
  batch->clear();
  const size_t n = std::min(pending(), options_.max_batch_size);
  batch->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch->push_back(std::move(queue_[head_ + i]));
  }
  head_ += n;
  Reclaim();
}

void MicroBatcher::DropExpired(double now, std::vector<Request>* expired) {
  if (now < min_deadline_) return;
  double min_deadline = std::numeric_limits<double>::infinity();
  size_t kept = head_;
  for (size_t i = head_; i < queue_.size(); ++i) {
    Request& request = queue_[i];
    if (request.deadline <= now) {
      expired->push_back(std::move(request));
      continue;
    }
    min_deadline = std::min(min_deadline, request.deadline);
    if (kept != i) queue_[kept] = std::move(request);
    ++kept;
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.end());
  min_deadline_ = min_deadline;
  Reclaim();
}

bool MicroBatcher::WorseThan(const Request& a, const Request& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  if (a.deadline != b.deadline) return a.deadline > b.deadline;
  if (a.arrival != b.arrival) return a.arrival > b.arrival;
  return a.id > b.id;
}

const Request* MicroBatcher::PeekWorst() const {
  const Request* worst = nullptr;
  for (size_t i = head_; i < queue_.size(); ++i) {
    if (worst == nullptr || WorseThan(queue_[i], *worst)) worst = &queue_[i];
  }
  return worst;
}

Request MicroBatcher::EvictWorst() {
  ADS_CHECK(pending() > 0) << "EvictWorst on an empty batcher";
  auto worst = queue_.begin() + static_cast<std::ptrdiff_t>(head_);
  for (auto it = worst; it != queue_.end(); ++it) {
    if (WorseThan(*it, *worst)) worst = it;
  }
  Request victim = std::move(*worst);
  queue_.erase(worst);
  Reclaim();
  return victim;
}

}  // namespace ads::serve
