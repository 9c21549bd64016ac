#include "common/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ads::common {

void EventQueue::ScheduleAt(SimTime when, Callback cb) {
  ADS_CHECK(when >= now_) << "event scheduled in the past: " << when
                          << " < " << now_;
  size_t slot = slots_.size();
  if (free_slots_.empty()) {
    slots_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
  }
  heap_.push_back(Entry{when, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later());
}

void EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  ADS_CHECK(delay >= 0.0) << "negative delay";
  ScheduleAt(now_ + delay, std::move(cb));
}

bool EventQueue::Step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  const Entry top = heap_.back();
  heap_.pop_back();
  // Move the callback out and free its slot before running it: the
  // callback may schedule events, which can reuse the slot or grow slots_.
  Callback cb = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  cb(now_);
  return true;
}

void EventQueue::RunUntil(SimTime horizon) {
  while (!heap_.empty() && heap_.front().when <= horizon) {
    Step();
  }
  if (now_ < horizon) now_ = horizon;
}

void EventQueue::RunAll() {
  while (Step()) {
  }
}

}  // namespace ads::common
