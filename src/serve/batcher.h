#ifndef ADS_SERVE_BATCHER_H_
#define ADS_SERVE_BATCHER_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "serve/types.h"

namespace ads::serve {

/// Micro-batching policy knobs.
struct BatcherOptions {
  /// A batch dispatches as soon as this many requests are pending.
  size_t max_batch_size = 16;
  /// ... or once the oldest pending request has waited this long, so a
  /// trickle of traffic is never stuck waiting for a full batch.
  double max_linger_seconds = 0.005;
};

/// Per-model micro-batcher: coalesces pending requests into dispatch
/// batches under a max-size / max-linger policy (the classic
/// serving-system throughput lever: batches amortize per-call overhead at
/// a bounded latency cost).
///
/// FIFO within a model. Not internally synchronized — the owning runtime
/// serializes access. Time is caller-provided seconds. Steady-state use
/// allocates nothing: the queue reuses its storage, and TakeBatch fills a
/// caller-owned vector.
class MicroBatcher {
 public:
  explicit MicroBatcher(BatcherOptions options = BatcherOptions());

  void Add(Request request);

  /// True when a batch should dispatch now: the queue holds a full batch,
  /// or the oldest request's linger window has expired.
  bool Ready(double now) const;

  /// Time at which the oldest pending request's linger expires (+inf when
  /// empty) — the event-loop / dispatcher wake-up deadline.
  double NextDeadline() const;

  /// Replaces *batch with up to max_batch_size requests popped in FIFO
  /// order (empty when nothing is pending), reusing its capacity.
  void TakeBatch(std::vector<Request>* batch);

  /// Appends every pending request whose deadline has passed to *expired,
  /// in FIFO order. Scans the queue only once `now` reaches the earliest
  /// pending deadline.
  void DropExpired(double now, std::vector<Request>* expired);

  /// Pointer to the worst-ranked pending request — lowest priority, then
  /// latest deadline, then latest arrival — the load-shedding victim
  /// candidate. Null when empty.
  const Request* PeekWorst() const;

  /// Removes and returns the PeekWorst() request. Requires pending() > 0.
  Request EvictWorst();

  size_t pending() const { return queue_.size() - head_; }

  /// True if `a` ranks strictly worse than `b` for shedding purposes.
  static bool WorseThan(const Request& a, const Request& b);

 private:
  /// Drops the moved-from slots before head_ once they outnumber the
  /// pending requests (all of them when nothing is pending).
  void Reclaim();

  BatcherOptions options_;
  /// Pending requests, FIFO, are queue_[head_, end). TakeBatch moves them
  /// out by advancing head_; the emptied slots are reclaimed once they
  /// outnumber the pending ones, and the capacity stays for reuse.
  std::vector<Request> queue_;
  size_t head_ = 0;
  /// A lower bound on every pending deadline (+inf when none). Adding a
  /// request lowers it; removing one leaves it a valid bound; a full scan
  /// recomputes it exactly. While now < min_deadline_ nothing can expire.
  double min_deadline_ = std::numeric_limits<double>::infinity();
};

}  // namespace ads::serve

#endif  // ADS_SERVE_BATCHER_H_
