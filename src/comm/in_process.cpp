// In-process Communicator: every rank is a std::thread, channels are
// lock-guarded queues. Semantically identical to the TCP transport —
// same liveness model, same heartbeat bookkeeping — but deterministic and
// sanitizer-friendly, so the `sanitize` ctest label exercises the full
// distributed energy path on it. kill() emulates node death by closing the
// rank's queues: the worker may still be mid-task, but nothing it sends
// afterwards reaches the controller, exactly like a partitioned node.

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "comm/communicator.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"

namespace wlsms::comm {

namespace {

using Clock = std::chrono::steady_clock;

class InProcessCommunicator final : public Communicator {
 public:
  InProcessCommunicator(std::size_t n_ranks, WorkerMain worker_main);
  ~InProcessCommunicator() override { shutdown(); }

  std::size_t n_ranks() const override { return ranks_.size(); }
  bool alive(std::size_t rank) const override;
  bool send(std::size_t rank, const Message& message) override;
  std::optional<Incoming> recv(std::chrono::milliseconds timeout) override;
  std::uint64_t millis_since_heard(std::size_t rank) const override;
  void kill(std::size_t rank) override;
  void shutdown() override;

 private:
  struct Rank {
    std::mutex mutex;
    std::condition_variable inbox_cv;
    std::deque<Message> inbox;
    bool closed = false;           ///< no further inbound; recv -> nullopt
    std::atomic<bool> alive{true}; ///< controller-visible liveness
    std::thread thread;
  };

  class Channel final : public WorkerChannel {
   public:
    Channel(InProcessCommunicator& owner, std::size_t rank)
        : owner_(owner), rank_(rank) {}
    std::size_t rank() const override { return rank_; }
    void send(const Message& message) override {
      owner_.worker_send(rank_, message);
    }
    std::optional<Message> recv() override { return owner_.worker_recv(rank_); }

   private:
    InProcessCommunicator& owner_;
    std::size_t rank_;
  };

  void worker_send(std::size_t rank, const Message& message);
  std::optional<Message> worker_recv(std::size_t rank);
  void heard(std::size_t rank);

  // Controller-inbound state. `last_heard_` is indexed by rank and only
  // ever written under `in_mutex_`.
  mutable std::mutex in_mutex_;
  std::condition_variable in_cv_;
  std::deque<Incoming> inbound_;
  std::vector<Clock::time_point> last_heard_;

  std::vector<std::unique_ptr<Rank>> ranks_;
  bool shut_down_ = false;
};

InProcessCommunicator::InProcessCommunicator(std::size_t n_ranks,
                                             WorkerMain worker_main) {
  WLSMS_EXPECTS(n_ranks >= 1);
  WLSMS_EXPECTS(worker_main != nullptr);
  last_heard_.assign(n_ranks, Clock::now());
  ranks_.reserve(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r)
    ranks_.push_back(std::make_unique<Rank>());
  // Threads start only after every Rank exists: a worker may send to the
  // controller (touching in_mutex_/inbound_) immediately.
  for (std::size_t r = 0; r < n_ranks; ++r) {
    ranks_[r]->thread = std::thread([this, r, worker_main] {
      try {
        Channel channel(*this, r);
        worker_main(channel);
      } catch (...) {
        // A throwing worker is a dying worker (matching the process
        // transport, where it would _exit(1)), not a terminating driver.
      }
      // Worker exit is rank death: flip liveness and wake a controller
      // that may be blocked in recv() waiting for this rank.
      ranks_[r]->alive.store(false);
      in_cv_.notify_all();
    });
  }
}

bool InProcessCommunicator::alive(std::size_t rank) const {
  WLSMS_EXPECTS(rank < ranks_.size());
  return ranks_[rank]->alive.load();
}

void InProcessCommunicator::heard(std::size_t rank) {
  const std::scoped_lock lock(in_mutex_);
  last_heard_[rank] = Clock::now();
}

bool InProcessCommunicator::send(std::size_t rank, const Message& message) {
  WLSMS_EXPECTS(rank < ranks_.size());
  Rank& target = *ranks_[rank];
  if (!target.alive.load()) return false;
  {
    const std::scoped_lock lock(target.mutex);
    if (target.closed) return false;
    target.inbox.push_back(message);
  }
  target.inbox_cv.notify_one();
  return true;
}

std::optional<Incoming> InProcessCommunicator::recv(
    std::chrono::milliseconds timeout) {
  std::unique_lock lock(in_mutex_);
  in_cv_.wait_for(lock, timeout, [this] { return !inbound_.empty(); });
  if (inbound_.empty()) return std::nullopt;
  Incoming incoming = std::move(inbound_.front());
  inbound_.pop_front();
  return incoming;
}

std::uint64_t InProcessCommunicator::millis_since_heard(
    std::size_t rank) const {
  WLSMS_EXPECTS(rank < ranks_.size());
  if (!ranks_[rank]->alive.load()) return ~std::uint64_t{0};
  const std::scoped_lock lock(in_mutex_);
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            last_heard_[rank])
          .count());
}

void InProcessCommunicator::kill(std::size_t rank) {
  WLSMS_EXPECTS(rank < ranks_.size());
  Rank& target = *ranks_[rank];
  if (target.alive.load())
    log_debug("comm: closing in-process rank ", rank, "'s queues (kill)");
  {
    const std::scoped_lock lock(target.mutex);
    target.closed = true;
    target.inbox.clear();
  }
  target.inbox_cv.notify_all();
  // Liveness flips immediately; anything the worker thread still sends is
  // dropped in worker_send. The thread itself is reaped in shutdown().
  target.alive.store(false);
  in_cv_.notify_all();
}

void InProcessCommunicator::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (std::unique_ptr<Rank>& rank : ranks_) {
    {
      const std::scoped_lock lock(rank->mutex);
      rank->closed = true;
    }
    rank->inbox_cv.notify_all();
  }
  for (std::unique_ptr<Rank>& rank : ranks_)
    if (rank->thread.joinable()) rank->thread.join();
  for (std::unique_ptr<Rank>& rank : ranks_) rank->alive.store(false);
}

void InProcessCommunicator::worker_send(std::size_t rank,
                                        const Message& message) {
  Rank& self = *ranks_[rank];
  // A killed rank is dead to the controller: drop, like a partitioned node.
  if (!self.alive.load()) return;
  {
    const std::scoped_lock lock(in_mutex_);
    inbound_.push_back({rank, message});
    last_heard_[rank] = Clock::now();
  }
  in_cv_.notify_one();
}

std::optional<Message> InProcessCommunicator::worker_recv(std::size_t rank) {
  Rank& self = *ranks_[rank];
  std::unique_lock lock(self.mutex);
  while (true) {
    if (!self.inbox.empty()) {
      Message message = std::move(self.inbox.front());
      self.inbox.pop_front();
      return message;
    }
    if (self.closed) return std::nullopt;
    if (self.inbox_cv.wait_for(lock, kHeartbeatInterval) ==
        std::cv_status::timeout) {
      // Idle heartbeat so the controller can distinguish "busy elsewhere"
      // from "wedged": refresh last_heard without surfacing a message.
      lock.unlock();
      heard(rank);
      lock.lock();
    }
  }
}

}  // namespace

std::unique_ptr<Communicator> make_in_process_communicator(
    std::size_t n_ranks, WorkerMain worker_main) {
  return std::make_unique<InProcessCommunicator>(n_ranks,
                                                 std::move(worker_main));
}

}  // namespace wlsms::comm
