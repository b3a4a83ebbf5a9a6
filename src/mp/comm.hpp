// Two-sided message passing on top of the PGAS engines.
//
// The paper's baseline (§3.2, Dinan et al. [2]) is an MPI work-stealing
// implementation: thieves send steal *requests*, victims poll for requests
// and send work (or a rejection) back, and global quiescence is detected
// with Dijkstra's token algorithm. This module supplies the substrate that
// algorithm needs: per-rank mailboxes with tagged, nonblocking, eagerly
// buffered messages whose delivery time respects the NetModel (a message
// becomes visible to the receiver one network latency after it was sent).
//
// The same Comm object works under both engines because delivery gating is
// expressed in Ctx::now_ns() time (virtual in sim, wall in threads).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mp/small_buf.hpp"
#include "pgas/engine.hpp"

namespace upcws::mp {

/// Wildcard for probe/recv matching.
inline constexpr int kAny = -1;

struct Message {
  int src = 0;
  int tag = 0;
  SmallBuf payload;
  /// Ctx-time at which the message is visible to the receiver.
  std::uint64_t arrival_ns = 0;
  /// Virtual time of the sending scheduling slice (Ctx::slice_now_ns at
  /// send). Together with (src, seq) this is the message's deterministic
  /// delivery-order key: the min-vt order executes sending slices in
  /// (vt, rank) order, so its mailbox append order *is* ascending
  /// (send_vt, src, seq) — probe/recv select by that key instead of by
  /// physical append order, which makes delivery order independent of
  /// which rank ran ahead (SimEngine) or which OS worker enqueued first
  /// (the parallel engine).
  std::uint64_t send_vt = 0;
  /// Per-sender monotone sequence (breaks ties within one sending slice;
  /// a duplicated copy is ordered before its original, matching the
  /// sequential enqueue order).
  std::uint64_t seq = 0;
  /// Which of the sender's copies of one control message this is (0 = the
  /// first; see send()). Delivery metadata, not payload: it costs no wire
  /// time, and a wire duplicate carries its original's index.
  std::uint32_t copy = 0;

  /// Deterministic delivery-order comparison.
  bool before(const Message& o) const {
    if (send_vt != o.send_vt) return send_vt < o.send_vt;
    if (src != o.src) return src < o.src;
    return seq < o.seq;
  }
};

/// What a loop that waits for messages carries from one pass to the next
/// for Comm::idle_wait: the rank's clock and tallies right after the last
/// pass ended. Declare one per wait, just before its loop.
struct IdleWait {
  bool armed = false;  ///< a pass has ended since the wait began
  std::uint64_t at_ns = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};

/// A communicator over a fixed set of ranks. Construct once per run, outside
/// the SPMD body; every rank then calls the member functions with its Ctx.
class Comm {
 public:
  /// No instant: an empty mailbox's earliest arrival, or no deadline.
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();

  explicit Comm(int nranks);

  int nranks() const { return static_cast<int>(boxes_.size()); }

  /// Nonblocking eager send. Charges the sender its injection overhead; the
  /// message is delivered (visible to probe/recv at `dst`) one modeled
  /// latency + bandwidth delay later. When the sender's fault injector is
  /// active the message may be silently dropped (never enqueued) or
  /// duplicated (a second copy arrives up to two wire-times later) —
  /// deterministically per (seed, rank). A sender that sends one message
  /// in several copies numbers them with `copy` (Message::copy).
  void send(pgas::Ctx& c, int dst, int tag, const void* data,
            std::size_t bytes, std::uint32_t copy = 0);

  /// Zero-payload convenience.
  void send(pgas::Ctx& c, int dst, int tag) { send(c, dst, tag, nullptr, 0); }

  /// Nonblocking probe: does a delivered message matching (src, tag) exist?
  /// Charges one poll. On match fills *src_out / *tag_out when non-null.
  bool iprobe(pgas::Ctx& c, int src, int tag, int* src_out = nullptr,
              int* tag_out = nullptr);

  /// Nonblocking receive of the oldest delivered message matching
  /// (src, tag). Returns false if none is available.
  bool try_recv(pgas::Ctx& c, int src, int tag, Message& out);

  /// Blocking receive: polls (with yield) until a match arrives.
  Message recv(pgas::Ctx& c, int src, int tag);

  /// Call right after the yield that ends each pass of a loop that waits
  /// for messages: a pass is the loop body from one such yield to the
  /// next, and `w` is the wait's own state. When the pass just ended began
  /// right after the previous one, took and sent nothing, and the mailbox
  /// still shows nothing arrived, every pass the loop would run next is
  /// the same pass until a message can arrive: no earlier than the earliest
  /// queued arrival, nor than the cheapest wire time after the least key
  /// another rank can still send from. The rank's Ctx accounts those
  /// passes in closed form (Ctx::skip_idle_passes), each ending by
  /// `until_ns` as well: the caller's own deadline, from which its passes
  /// may differ.
  void idle_wait(pgas::Ctx& c, IdleWait& w, std::uint64_t until_ns = kNever);

  /// Messages `rank` has sent (dropped ones included) and taken.
  std::uint64_t sent(int rank) const { return boxes_[rank]->tally.sent; }
  std::uint64_t received(int rank) const {
    return boxes_[rank]->tally.received;
  }

  /// Total messages ever sent through this communicator (diagnostic). Like
  /// the per-rank tallies, read it after the run or while ranks are parked.
  std::uint64_t total_sends() const;

  /// Snapshot of queued (undelivered or unconsumed) messages per rank, for
  /// hang reports. Not a synchronization point — call when ranks are parked.
  std::string debug_report() const;

 private:
  struct Box {
    std::mutex mu;
    std::deque<Message> q;
    /// Earliest arrival_ns in `q` (kNever when empty). Written under `mu`;
    /// the receiver reads it without the lock to skip a poll that cannot
    /// match: a message another thread is sending concurrently always
    /// arrives after the receiver's current instant on sim and psim, and
    /// on the thread engine a stale read equals polling a moment earlier.
    std::atomic<std::uint64_t> earliest{kNever};
    /// The owner's own send/receive tallies, written and read by the owner
    /// only, on a cache line of their own: senders write the fields above.
    struct alignas(64) Tally {
      std::uint64_t sent = 0;
      std::uint64_t received = 0;
    } tally;
  };

  /// Nothing queued for the caller has arrived by its current instant.
  static bool nothing_arrived(const Box& box, std::uint64_t now) {
    return box.earliest.load(std::memory_order_relaxed) > now;
  }

  static bool matches(const Message& m, int src, int tag) {
    return (src == kAny || m.src == src) && (tag == kAny || m.tag == tag);
  }

  std::vector<std::unique_ptr<Box>> boxes_;
};

}  // namespace upcws::mp
