#ifndef FASTHIST_NET_EVENT_LOOP_H_
#define FASTHIST_NET_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace fasthist {

// Readiness backend.  kPoll is the portable poll(2) baseline that builds
// anywhere POSIX poll exists; kEpoll is the Linux epoll(7) fast path (O(1)
// dispatch instead of rebuilding an O(fds) pollfd array every iteration —
// what makes a many-connection loop cheap).  kDefault resolves at configure
// time: epoll on Linux unless FASTHIST_FORCE_POLL was set, poll everywhere
// else.  Both backends compile on Linux so one process can run both — the
// epoll-vs-poll equivalence test drives the same fixture through each.
enum class EventLoopBackend {
  kDefault,
  kPoll,
  kEpoll,
};

// A portable event loop: nonblocking fds, level-triggered readiness
// callbacks, monotonic one-shot timers, and a thread-safe Post queue — no
// external dependencies.  One loop is one thread: every callback runs on
// the thread inside Run(), so loop-owned state (the ingest server's
// connections, queues, store, and latency recorders) needs no locks at all.
// The only cross-thread surfaces are Post() and Quit(), which funnel
// through a mutex-guarded task queue plus a self-pipe wakeup.
//
// Readiness semantics are level-triggered on both backends: a Watch(read)
// callback keeps firing while the fd stays readable, so handlers must drain
// (or Unwatch) before returning to avoid a hot loop.  Error/hangup
// conditions (POLLERR/POLLHUP equivalents) are reported to the same
// callback as `error = true`, even while the fd's interest set is empty;
// the handler decides whether to tear the fd down.
class EventLoop {
 public:
  struct IoEvent {
    bool readable = false;
    bool writable = false;
    bool error = false;
  };
  using IoCallback = std::function<void(IoEvent)>;

  // Creation opens the self-pipe (and the epoll instance, when that backend
  // is selected); the only failure mode is fd exhaustion.  Requesting
  // kEpoll on a platform without it is an Invalid status — callers probe
  // with EpollSupported() first.
  static StatusOr<std::unique_ptr<EventLoop>> Create(
      EventLoopBackend backend = EventLoopBackend::kDefault);
  ~EventLoop();

  // True when this build can construct a kEpoll loop (Linux).
  static bool EpollSupported();

  // The backend this loop actually runs (kDefault is resolved at Create).
  EventLoopBackend backend() const { return backend_; }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers (or re-registers) `fd` with the given interest set.  The
  // callback is invoked on the loop thread whenever the backend reports
  // matching readiness.  Loop-thread only.
  Status Watch(int fd, bool want_read, bool want_write, IoCallback callback);

  // Adjusts the interest set of an already-watched fd, keeping its
  // callback; a call that leaves the set unchanged is free (no syscall).
  // Loop-thread only.
  Status SetInterest(int fd, bool want_read, bool want_write);

  // Stops watching `fd` (the caller still owns and closes it).  Safe to
  // call from inside the fd's own callback.  Loop-thread only.
  void Unwatch(int fd);

  // One-shot timer: runs `fn` on the loop thread once MonotonicNanos()
  // reaches `deadline_nanos`.  Returns an id for Cancel.  Loop-thread only.
  uint64_t ScheduleAt(uint64_t deadline_nanos, std::function<void()> fn);
  void Cancel(uint64_t timer_id);

  // Enqueues `fn` to run on the loop thread and wakes the loop.  The one
  // entry point other threads may call (besides Quit) — everything a
  // foreign thread wants done to loop state goes through here.
  void Post(std::function<void()> fn);

  // Runs until Quit: wait for readiness, dispatch io callbacks, run due
  // timers, drain posted tasks.  Returns after a Quit posted from any
  // thread.
  void Run();

  // Thread-safe: asks Run() to return after the current iteration.
  void Quit();

 private:
  EventLoop(int wake_read_fd, int wake_write_fd, int epoll_fd,
            EventLoopBackend backend);

  void DrainWakePipe();
  void RunPostedTasks();
  // Milliseconds until the nearest timer (clamped for poll/epoll), or -1.
  int NextTimerTimeoutMillis() const;
  void RunDueTimers();
  void RunPoll();
  void RunEpoll();
  void DispatchReady(int fd, IoEvent event);
  // epoll_ctl wrapper; no-op under the poll backend.
  Status EpollControl(int op, int fd, bool want_read, bool want_write);

  int wake_read_fd_;
  int wake_write_fd_;
  int epoll_fd_;  // -1 under the poll backend
  EventLoopBackend backend_;

  struct Watched {
    bool want_read = false;
    bool want_write = false;
    IoCallback callback;
  };
  std::map<int, Watched> watched_;
  // Timers keyed by (deadline, id): multimap order is fire order.
  std::map<std::pair<uint64_t, uint64_t>, std::function<void()>> timers_;
  uint64_t next_timer_id_ = 1;
  bool quit_ = false;

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  bool wake_pending_ = false;  // guarded by post_mutex_; dedupes pipe writes
};

}  // namespace fasthist

#endif  // FASTHIST_NET_EVENT_LOOP_H_
