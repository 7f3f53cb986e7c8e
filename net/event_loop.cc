#include "net/event_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <utility>

#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include "util/clock.h"

namespace fasthist {
namespace {

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Invalid("EventLoop: cannot set O_NONBLOCK");
  }
  return Status::Ok();
}

EventLoopBackend ResolveBackend(EventLoopBackend requested) {
  if (requested != EventLoopBackend::kDefault) return requested;
#if defined(__linux__)
  return EventLoopBackend::kEpoll;
#else
  return EventLoopBackend::kPoll;
#endif
}

}  // namespace

EventLoop::EventLoop(int wake_read_fd, int wake_write_fd, int epoll_fd,
                     EventLoopBackend backend)
    : wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd),
      epoll_fd_(epoll_fd),
      backend_(backend) {}

bool EventLoop::EpollSupported() {
#if defined(__linux__)
  return true;
#else
  return false;
#endif
}

StatusOr<std::unique_ptr<EventLoop>> EventLoop::Create(
    EventLoopBackend backend) {
  const EventLoopBackend resolved = ResolveBackend(backend);
  if (resolved == EventLoopBackend::kEpoll && !EpollSupported()) {
    return Status::Invalid("EventLoop: epoll is not available on this platform");
  }
  int fds[2];
  if (pipe(fds) != 0) {
    return Status::Invalid("EventLoop: cannot create wake pipe");
  }
  for (const int fd : fds) {
    if (Status s = SetNonBlocking(fd); !s.ok()) {
      close(fds[0]);
      close(fds[1]);
      return s;
    }
  }
  int epoll_fd = -1;
#if defined(__linux__)
  if (resolved == EventLoopBackend::kEpoll) {
    epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd < 0) {
      close(fds[0]);
      close(fds[1]);
      return Status::Invalid("EventLoop: epoll_create1 failed");
    }
    struct epoll_event event;
    event.events = EPOLLIN;
    event.data.fd = fds[0];
    if (epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fds[0], &event) != 0) {
      close(epoll_fd);
      close(fds[0]);
      close(fds[1]);
      return Status::Invalid("EventLoop: cannot register the wake pipe");
    }
  }
#endif
  return std::unique_ptr<EventLoop>(
      new EventLoop(fds[0], fds[1], epoll_fd, resolved));
}

EventLoop::~EventLoop() {
  if (epoll_fd_ >= 0) close(epoll_fd_);
  close(wake_read_fd_);
  close(wake_write_fd_);
}

Status EventLoop::EpollControl(int op, int fd, bool want_read,
                               bool want_write) {
#if defined(__linux__)
  if (epoll_fd_ < 0) return Status::Ok();
  struct epoll_event event;
  event.events = 0;
  if (want_read) event.events |= EPOLLIN;
  if (want_write) event.events |= EPOLLOUT;
  event.data.fd = fd;
  if (epoll_ctl(epoll_fd_, op, fd, &event) != 0) {
    return Status::Invalid("EventLoop: epoll_ctl failed");
  }
  return Status::Ok();
#else
  (void)op;
  (void)fd;
  (void)want_read;
  (void)want_write;
  return Status::Ok();
#endif
}

Status EventLoop::Watch(int fd, bool want_read, bool want_write,
                        IoCallback callback) {
  if (fd < 0 || !callback) {
    return Status::Invalid("EventLoop::Watch: bad fd or empty callback");
  }
#if defined(__linux__)
  const bool rearm = watched_.count(fd) != 0;
  if (Status s = EpollControl(rearm ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd,
                              want_read, want_write);
      !s.ok()) {
    return s;
  }
#endif
  watched_[fd] = Watched{want_read, want_write, std::move(callback)};
  return Status::Ok();
}

Status EventLoop::SetInterest(int fd, bool want_read, bool want_write) {
  auto it = watched_.find(fd);
  if (it == watched_.end()) {
    return Status::Invalid("EventLoop::SetInterest: fd is not watched");
  }
  // Registrations are level-triggered, so re-arming an unchanged interest
  // set changes nothing; skip the syscall (the servers ask for read-only
  // interest again after every fully flushed reply).
  if (it->second.want_read == want_read &&
      it->second.want_write == want_write) {
    return Status::Ok();
  }
#if defined(__linux__)
  if (Status s = EpollControl(EPOLL_CTL_MOD, fd, want_read, want_write);
      !s.ok()) {
    return s;
  }
#endif
  it->second.want_read = want_read;
  it->second.want_write = want_write;
  return Status::Ok();
}

void EventLoop::Unwatch(int fd) {
#if defined(__linux__)
  if (watched_.count(fd) != 0) {
    (void)EpollControl(EPOLL_CTL_DEL, fd, false, false);
  }
#endif
  watched_.erase(fd);
}

uint64_t EventLoop::ScheduleAt(uint64_t deadline_nanos,
                               std::function<void()> fn) {
  const uint64_t id = next_timer_id_++;
  timers_.emplace(std::make_pair(deadline_nanos, id), std::move(fn));
  return id;
}

void EventLoop::Cancel(uint64_t timer_id) {
  for (auto it = timers_.begin(); it != timers_.end(); ++it) {
    if (it->first.second == timer_id) {
      timers_.erase(it);
      return;
    }
  }
}

void EventLoop::Post(std::function<void()> fn) {
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
    if (!wake_pending_) {
      wake_pending_ = true;
      need_wake = true;
    }
  }
  if (need_wake) {
    const char byte = 1;
    // A full pipe still wakes the loop (earlier bytes are unread), so a
    // short write here is benign.
    (void)!write(wake_write_fd_, &byte, 1);
  }
}

void EventLoop::Quit() {
  // Routed through Post so quit_ is only ever touched on the loop thread.
  Post([this] { quit_ = true; });
}

void EventLoop::DrainWakePipe() {
  char buffer[64];
  while (read(wake_read_fd_, buffer, sizeof(buffer)) > 0) {
  }
}

void EventLoop::RunPostedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    tasks.swap(posted_);
    wake_pending_ = false;
  }
  for (auto& task : tasks) task();
}

int EventLoop::NextTimerTimeoutMillis() const {
  if (timers_.empty()) return -1;
  const uint64_t now = MonotonicNanos();
  const uint64_t deadline = timers_.begin()->first.first;
  if (deadline <= now) return 0;
  const uint64_t millis = (deadline - now + 999999) / 1000000;
  // Clamp: poll/epoll take int millis, and re-polling once a minute costs
  // nothing against a far-future timer.
  return millis > 60000 ? 60000 : static_cast<int>(millis);
}

void EventLoop::RunDueTimers() {
  const uint64_t now = MonotonicNanos();
  // Timers may schedule new timers; re-examine the front each round so a
  // callback-scheduled past-due timer still runs this iteration.
  while (!timers_.empty() && timers_.begin()->first.first <= now) {
    auto fn = std::move(timers_.begin()->second);
    timers_.erase(timers_.begin());
    fn();
  }
}

void EventLoop::DispatchReady(int fd, IoEvent event) {
  auto it = watched_.find(fd);
  if (it == watched_.end()) return;  // unwatched by an earlier callback
  // Copy the callback: it may Unwatch(fd) (destroying the stored
  // std::function mid-call) and the copy keeps `this` alive through the
  // invocation.
  IoCallback callback = it->second.callback;
  callback(event);
}

void EventLoop::RunPoll() {
  std::vector<struct pollfd> pollfds;
  std::vector<int> ready;
  while (!quit_) {
    pollfds.clear();
    pollfds.push_back({wake_read_fd_, POLLIN, 0});
    for (const auto& [fd, watched] : watched_) {
      short events = 0;
      if (watched.want_read) events |= POLLIN;
      if (watched.want_write) events |= POLLOUT;
      // Listed even with no interest: poll reports POLLERR/POLLHUP/POLLNVAL
      // regardless, as epoll does EPOLLERR/EPOLLHUP.
      pollfds.push_back({fd, events, 0});
    }

    const int timeout = NextTimerTimeoutMillis();
    const int rc = poll(pollfds.data(), pollfds.size(), timeout);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure

    RunDueTimers();
    if (rc > 0) {
      if ((pollfds[0].revents & POLLIN) != 0) DrainWakePipe();
      // Snapshot the ready fds before dispatching: callbacks may Watch or
      // Unwatch (invalidating watched_ iterators), so dispatch re-checks
      // membership per fd instead of holding an iterator across calls.
      ready.clear();
      for (size_t i = 1; i < pollfds.size(); ++i) {
        if (pollfds[i].revents != 0) ready.push_back(i);
      }
      for (const int idx : ready) {
        const struct pollfd& pfd = pollfds[static_cast<size_t>(idx)];
        IoEvent event;
        event.readable = (pfd.revents & POLLIN) != 0;
        event.writable = (pfd.revents & POLLOUT) != 0;
        event.error = (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        DispatchReady(pfd.fd, event);
      }
    }
    RunPostedTasks();
  }
}

void EventLoop::RunEpoll() {
#if defined(__linux__)
  constexpr int kMaxEvents = 64;
  struct epoll_event events[kMaxEvents];
  std::vector<std::pair<int, IoEvent>> ready;
  while (!quit_) {
    const int timeout = NextTimerTimeoutMillis();
    const int rc = epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable epoll failure

    RunDueTimers();
    if (rc > 0) {
      // Same snapshot-then-dispatch discipline as the poll backend:
      // callbacks may Unwatch any fd in this batch, so membership is
      // re-checked per dispatch instead of trusting the kernel's batch.
      ready.clear();
      for (int i = 0; i < rc; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_read_fd_) {
          DrainWakePipe();
          continue;
        }
        IoEvent event;
        event.readable = (events[i].events & (EPOLLIN | EPOLLPRI)) != 0;
        event.writable = (events[i].events & EPOLLOUT) != 0;
        event.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
        ready.push_back({fd, event});
      }
      for (const auto& [fd, event] : ready) DispatchReady(fd, event);
    }
    RunPostedTasks();
  }
#endif
}

void EventLoop::Run() {
  if (backend_ == EventLoopBackend::kEpoll) {
    RunEpoll();
  } else {
    RunPoll();
  }
  // A final drain so tasks posted just before Quit still run.
  RunPostedTasks();
  quit_ = false;  // the loop is reusable (tests run it more than once)
}

}  // namespace fasthist
