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
  const Entry entry{when, next_seq_++, slot};
  // Sequence numbers only grow, so an event no earlier than the run's last
  // entry sorts after it. An empty run has run every entry it was given,
  // none of them later than now_ <= when.
  if (run_head_ == run_.size() || when >= run_.back().when) {
    run_.push_back(entry);
  } else {
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), Later());
  }
}

void EventQueue::ScheduleAfter(SimTime delay, Callback cb) {
  ADS_CHECK(delay >= 0.0) << "negative delay";
  ScheduleAt(now_ + delay, std::move(cb));
}

bool EventQueue::RunIsNext() const {
  if (run_head_ == run_.size()) return false;
  return heap_.empty() || Later()(heap_.front(), run_[run_head_]);
}

bool EventQueue::Step() {
  if (empty()) return false;
  Entry top{};
  if (RunIsNext()) {
    top = run_[run_head_++];
    const size_t live = run_.size() - run_head_;
    if (live == 0) {
      run_.clear();
      run_head_ = 0;
    } else if (run_head_ > live) {
      // Fewer entries move than were popped since the last reclaim, so
      // reclaiming costs O(1) amortized per event.
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later());
    top = heap_.back();
    heap_.pop_back();
  }
  // Move the callback out and free its slot before running it: the
  // callback may schedule events, which can reuse the slot or grow slots_.
  Callback cb = std::move(slots_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  cb(now_);
  return true;
}

void EventQueue::RunUntil(SimTime horizon) {
  while (!empty() && Next().when <= horizon) {
    Step();
  }
  if (now_ < horizon) now_ = horizon;
}

void EventQueue::RunAll() {
  while (Step()) {
  }
}

}  // namespace ads::common
