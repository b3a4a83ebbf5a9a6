#include "mp/comm.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace upcws::mp {

Comm::Comm(int nranks) {
  boxes_.reserve(nranks);
  for (int i = 0; i < nranks; ++i) boxes_.push_back(std::make_unique<Box>());
}

void Comm::send(pgas::Ctx& c, int dst, int tag, const void* data,
                std::size_t bytes, std::uint32_t copy) {
  if (c.crashed()) return;  // a fail-stopped rank injects nothing
  const auto& net = c.net();
  // Sender-side CPU cost (message injection).
  c.charge(net.mp_send_overhead_ns);
  Message m;
  m.src = c.rank();
  m.tag = tag;
  m.send_vt = c.slice_now_ns();
  m.copy = copy;
  if (bytes > 0) m.payload.assign(data, bytes);
  // Wire time: latency plus payload serialization (with modeled jitter).
  const std::uint64_t wire = c.jittered(net.bulk_ns(c.rank(), dst, bytes));
  m.arrival_ns = c.now_ns() + wire;
  ++boxes_[c.rank()]->tally.sent;
  pgas::FaultInjector* fi = c.faults();
  // A network partition delays (never drops) cross-cut messages: delivery
  // is deferred until the heal instant, as if the fabric buffered them.
  if (fi != nullptr)
    m.arrival_ns += fi->partition_extra_ns(dst, c.now_ns());
  if (fi != nullptr && fi->drop_message(c.now_ns()))
    return;  // lost on the wire; the sender already paid injection cost
  std::uint64_t dup_delay =
      fi != nullptr ? fi->duplicate_delay(wire, c.now_ns()) : 0;
  Box& box = *boxes_[dst];
  std::lock_guard<std::mutex> g(box.mu);
  std::uint64_t earliest = box.earliest.load(std::memory_order_relaxed);
  if (dup_delay > 0) {
    Message d = m;
    d.seq = c.next_msg_seq();  // the duplicate enqueues (and orders) first
    d.arrival_ns += dup_delay;
    earliest = std::min(earliest, d.arrival_ns);
    box.q.push_back(std::move(d));
  }
  m.seq = c.next_msg_seq();
  earliest = std::min(earliest, m.arrival_ns);
  box.q.push_back(std::move(m));
  box.earliest.store(earliest, std::memory_order_relaxed);
}

bool Comm::iprobe(pgas::Ctx& c, int src, int tag, int* src_out, int* tag_out) {
  c.charge_poll();
  const std::uint64_t now = c.now_ns();
  Box& box = *boxes_[c.rank()];
  if (nothing_arrived(box, now)) return false;
  std::lock_guard<std::mutex> g(box.mu);
  // Select the delivered match that is first in deterministic delivery
  // order (send_vt, src, seq) — not first in physical append order. In
  // the min-vt order the two coincide (sending slices execute, and
  // therefore append, in ascending key order); with SimEngine's run-ahead
  // or the parallel engine append order depends on which rank ran first,
  // the key does not.
  const Message* best = nullptr;
  for (const Message& m : box.q) {
    if (m.arrival_ns <= now && matches(m, src, tag) &&
        (best == nullptr || m.before(*best)))
      best = &m;
  }
  if (best == nullptr) return false;
  if (src_out != nullptr) *src_out = best->src;
  if (tag_out != nullptr) *tag_out = best->tag;
  return true;
}

bool Comm::try_recv(pgas::Ctx& c, int src, int tag, Message& out) {
  c.charge_poll();
  const std::uint64_t now = c.now_ns();
  Box& box = *boxes_[c.rank()];
  if (nothing_arrived(box, now)) return false;
  std::lock_guard<std::mutex> g(box.mu);
  auto best = box.q.end();
  for (auto it = box.q.begin(); it != box.q.end(); ++it) {
    if (it->arrival_ns <= now && matches(*it, src, tag) &&
        (best == box.q.end() || it->before(*best)))
      best = it;
  }
  if (best == box.q.end()) return false;
  out = std::move(*best);
  box.q.erase(best);
  ++box.tally.received;
  std::uint64_t earliest = kNever;
  for (const Message& m : box.q) earliest = std::min(earliest, m.arrival_ns);
  box.earliest.store(earliest, std::memory_order_relaxed);
  return true;
}

Message Comm::recv(pgas::Ctx& c, int src, int tag) {
  Message m;
  while (!try_recv(c, src, tag, m)) c.yield();
  return m;
}

void Comm::idle_wait(pgas::Ctx& c, IdleWait& w, std::uint64_t until_ns) {
  Box& box = *boxes_[c.rank()];
  if (w.armed && box.tally.sent == w.sent &&
      box.tally.received == w.received) {
    // Re-read after the yield: others may have sent while this rank was
    // yielded. A message not yet sent is sent at or after the least key M
    // another rank can still run at, and arrives at least one wire time
    // later: a latency from a node-mate, or from across the network.
    const pgas::NetModel& net = c.net();
    const std::uint64_t wire =
        net.threads_per_node > 1
            ? std::min(net.on_node_ref_ns, net.remote_ref_ns)
            : net.remote_ref_ns;
    c.skip_idle_passes(
        c.now_ns() - w.at_ns,
        std::min(until_ns, box.earliest.load(std::memory_order_relaxed)),
        wire);
  }
  w = {true, c.now_ns(), box.tally.sent, box.tally.received};
}

std::uint64_t Comm::total_sends() const {
  std::uint64_t n = 0;
  for (const auto& box : boxes_) n += box->tally.sent;
  return n;
}

std::string Comm::debug_report() const {
  std::ostringstream os;
  os << "mailboxes (total sends " << total_sends() << "):\n";
  for (std::size_t r = 0; r < boxes_.size(); ++r) {
    Box& box = *boxes_[r];
    std::lock_guard<std::mutex> g(box.mu);
    os << "  rank " << r << ": " << box.q.size() << " queued";
    std::size_t shown = 0;
    for (const Message& m : box.q) {
      if (shown++ == 8) {
        os << " ...";
        break;
      }
      os << (shown == 1 ? " [" : ", ") << "src=" << m.src << " tag=" << m.tag
         << " arr=" << m.arrival_ns;
    }
    if (shown > 0 && shown <= 8) os << "]";
    os << "\n";
  }
  return os.str();
}

}  // namespace upcws::mp
