#ifndef ADS_COMMON_EVENT_QUEUE_H_
#define ADS_COMMON_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace ads::common {

/// Simulated time, in seconds since the start of the simulation.
using SimTime = double;

/// Discrete-event simulation kernel shared by the infrastructure, engine,
/// serving and fleet simulators. Events are (time, sequence, callback)
/// tuples; ties on time break by insertion order so simulations are
/// deterministic.
///
/// Pending events live in two places, both holding small {when, seq, slot}
/// entries: an append-only run sorted by (when, seq), which takes every
/// event scheduled no earlier than the last one appended to it (a stream
/// of pre-scheduled arrivals, say), and a binary heap for the rest. Each
/// pop takes whichever front is earlier by (when, seq), so events run in
/// exactly the order one heap would give, and popping from the run is
/// O(1). Each callback sits in a slab slot until its event pops, when it
/// is moved out (never copied) and its slot freed before it runs. A
/// callback that captures a request or a whole batch is therefore built
/// once and moved, and the running callback may schedule new events —
/// reusing its own slot — without invalidating itself.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedules `cb` at absolute time `when`. Requires when >= now().
  void ScheduleAt(SimTime when, Callback cb);
  /// Schedules `cb` after `delay` seconds from now.
  void ScheduleAfter(SimTime delay, Callback cb);

  /// Runs events until the queue drains or now() would exceed `horizon`.
  /// Events scheduled exactly at the horizon still run.
  void RunUntil(SimTime horizon);
  /// Runs until the queue is empty.
  void RunAll();
  /// Runs a single event; returns false if the queue is empty.
  bool Step();

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty() && run_head_ == run_.size(); }
  size_t pending() const { return heap_.size() + run_.size() - run_head_; }

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    size_t slot;  // index into slots_
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Whether the next event to run is the run's front rather than the
  /// heap's. Requires !empty().
  bool RunIsNext() const;
  const Entry& Next() const {
    return RunIsNext() ? run_[run_head_] : heap_.front();
  }

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  /// Min-heap on (when, seq) under Later.
  std::vector<Entry> heap_;
  /// Sorted run: live entries are run_[run_head_, end), ascending in
  /// (when, seq). Popped entries are reclaimed once they outnumber the
  /// live ones, so the run never holds more than twice its live entries.
  std::vector<Entry> run_;
  size_t run_head_ = 0;
  std::vector<Callback> slots_;
  std::vector<size_t> free_slots_;
};

/// Converts hours to simulation seconds.
constexpr SimTime Hours(double h) { return h * 3600.0; }
/// Converts minutes to simulation seconds.
constexpr SimTime Minutes(double m) { return m * 60.0; }
/// Converts days to simulation seconds.
constexpr SimTime Days(double d) { return d * 86400.0; }

}  // namespace ads::common

#endif  // ADS_COMMON_EVENT_QUEUE_H_
