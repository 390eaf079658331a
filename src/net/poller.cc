/**
 * @file
 * Implementation of the epoll poller.
 */

#include "net/poller.h"

#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "base/logging.h"
#include "ostrace/syscalls.h"

namespace musuite {

Poller::Poller()
{
    epollFd = epoll_create1(0);
    MUSUITE_CHECK(epollFd >= 0) << "epoll_create1: "
                                << std::strerror(errno);
    wakeFd = eventfd(0, EFD_NONBLOCK);
    MUSUITE_CHECK(wakeFd >= 0) << "eventfd: " << std::strerror(errno);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr; // nullptr handler marks the wakeup fd.
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeFd, &ev) == 0)
        << "epoll_ctl(wakeFd): " << std::strerror(errno);
}

Poller::~Poller()
{
    if (wakeFd >= 0)
        ::close(wakeFd);
    if (epollFd >= 0)
        ::close(epollFd);
}

void
Poller::add(int fd, PollHandler *handler, bool want_write)
{
    MUSUITE_CHECK(handler != nullptr) << "null poller handler is reserved";
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? uint32_t(EPOLLOUT) : 0u);
    ev.data.ptr = handler;
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) == 0)
        << "epoll_ctl(ADD): " << std::strerror(errno);
}

void
Poller::modify(int fd, PollHandler *handler, bool want_write)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? uint32_t(EPOLLOUT) : 0u);
    ev.data.ptr = handler;
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev) == 0)
        << "epoll_ctl(MOD): " << std::strerror(errno);
}

void
Poller::remove(int fd)
{
    epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
}

std::vector<PollEvent>
Poller::wait(int timeout_ms)
{
    epoll_event raw[64];
    countSyscall(Sys::EpollPwait);
    const int n = epoll_pwait(epollFd, raw, 64, timeout_ms, nullptr);

    std::vector<PollEvent> events;
    if (n <= 0)
        return events;
    events.reserve(size_t(n));
    for (int i = 0; i < n; ++i) {
        PollEvent event;
        if (raw[i].data.ptr == nullptr) {
            // Drain the wakeup eventfd.
            uint64_t value;
            countSyscall(Sys::Read);
            while (::read(wakeFd, &value, sizeof(value)) > 0) {
            }
            event.isWakeup = true;
        } else {
            event.handler = static_cast<PollHandler *>(raw[i].data.ptr);
            event.readable = raw[i].events & EPOLLIN;
            event.writable = raw[i].events & EPOLLOUT;
            event.error = raw[i].events & (EPOLLERR | EPOLLHUP);
        }
        events.push_back(event);
    }
    return events;
}

void
Poller::wake()
{
    const uint64_t one = 1;
    countSyscall(Sys::Write);
    [[maybe_unused]] ssize_t n = ::write(wakeFd, &one, sizeof(one));
}

void
Poller::dispatch(const std::vector<PollEvent> &events)
{
    for (const PollEvent &event : events) {
        if (!event.isWakeup)
            event.handler->onPollEvent(event);
    }
}

void
EventLoop::enter()
{
    MutexLock guard(mutex);
    running = true;
    runner = std::this_thread::get_id();
}

void
EventLoop::leave()
{
    {
        MutexLock guard(mutex);
        running = false;
        runner = std::thread::id();
    }
    releaseWaiters();
}

void
EventLoop::releaseWaiters()
{
    std::vector<CountdownLatch *> released;
    {
        MutexLock guard(mutex);
        released.swap(waiters);
        hasWaiters.store(false, std::memory_order_relaxed);
    }
    for (CountdownLatch *waiter : released)
        waiter->countDown();
}

void
EventLoop::awaitPass()
{
    CountdownLatch passed(1);
    {
        MutexLock guard(mutex);
        MUSUITE_CHECK(runner != std::this_thread::get_id())
            << "EventLoop::awaitPass from its own loop thread";
        if (!running)
            return; // No pass is in progress.
        waiters.push_back(&passed);
        hasWaiters.store(true, std::memory_order_release);
    }
    pollSet.wake();
    passed.wait();
}

} // namespace musuite
