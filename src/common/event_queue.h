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
/// The heap holds only small {when, seq, slot} entries; each callback sits
/// in a slab slot until its event pops, when it is moved out (never
/// copied) and its slot freed before it runs. A callback that captures a
/// request or a whole batch is therefore built once and moved, and the
/// running callback may schedule new events — reusing its own slot —
/// without invalidating itself.
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
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }

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

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  /// Min-heap on (when, seq) under Later.
  std::vector<Entry> heap_;
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
