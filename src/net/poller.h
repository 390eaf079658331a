/**
 * @file
 * Epoll-based readiness poller.
 *
 * Each network thread in the µSuite server/client runs one Poller and
 * parks in epoll_pwait (the paper's blocking design; a zero-timeout
 * mode implements the §VII polling alternative). A wakeup eventfd lets
 * other threads (workers completing responses) kick the poller to
 * flush pending writes.
 *
 * Every registered descriptor names a PollHandler: the listener, a
 * server connection and a client connection each handle their own
 * events, so a loop just dispatches and the same loop can serve all
 * three kinds at once. An EventLoop is a Poller shared by the thread
 * that runs it and by whoever registers connections on it from
 * outside (a mid-tier's leaf channels ride its server's pollers).
 */

#ifndef MUSUITE_NET_POLLER_H
#define MUSUITE_NET_POLLER_H

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "base/threading.h"
#include "net/socket.h"

namespace musuite {

class PollHandler;

/** One readiness event delivered by Poller::wait. */
struct PollEvent
{
    PollHandler *handler = nullptr; //!< Registered with add().
    bool readable = false;
    bool writable = false;
    bool error = false;
    bool isWakeup = false; //!< The wakeup eventfd fired.
};

/** The object a registered descriptor's events are delivered to. */
class PollHandler
{
  public:
    /** Handle one readiness event, on the thread running the poller. */
    virtual void onPollEvent(const PollEvent &event) = 0;

  protected:
    ~PollHandler() = default;
};

class Poller
{
  public:
    Poller();
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /**
     * Register a descriptor.
     * @param handler Returned in PollEvent::handler; must stay valid
     *        until remove() and the end of any pass that may still
     *        deliver an event fetched before it.
     * @param want_write Also watch for write-readiness.
     */
    void add(int fd, PollHandler *handler, bool want_write = false);

    /** Change write-readiness interest for a registered descriptor. */
    void modify(int fd, PollHandler *handler, bool want_write);

    void remove(int fd);

    /**
     * Wait for events.
     * @param timeout_ms -1 blocks indefinitely (blocking design), 0
     *        returns immediately (polling design).
     */
    std::vector<PollEvent> wait(int timeout_ms);

    /** Wake a blocked wait() from another thread. */
    void wake();

    /** Deliver each event of one wait() to its handler (wakeups are
     *  skipped). */
    static void dispatch(const std::vector<PollEvent> &events);

  private:
    int epollFd = -1;
    int wakeFd = -1;
};

/**
 * A Poller shared between the thread that runs it and the objects
 * registered on it from other threads. Held by shared_ptr: whoever
 * registers a connection holds the loop too, so the epoll set outlives
 * every handler on it regardless of teardown order.
 *
 * The running thread brackets its loop with enter()/leave() and calls
 * endPass() after each pass. awaitPass() is the one way in from
 * outside: an owner that deregistered its handlers calls it to learn
 * when no pass can still be delivering to them.
 */
class EventLoop
{
  public:
    Poller &poller() { return pollSet; }

    /** The running thread claims the loop: awaitPass() now waits. */
    void enter();

    /** The running thread finished a pass: release its waiters. */
    void
    endPass()
    {
        if (hasWaiters.load(std::memory_order_acquire))
            releaseWaiters();
    }

    /** The running thread leaves: release every waiter. */
    void leave();

    /**
     * Return once the pass in progress, if any, has ended; at once
     * when no thread runs the loop. Must not be called from the loop
     * thread.
     */
    void awaitPass();

  private:
    void releaseWaiters();

    Poller pollSet;
    Mutex mutex{LockRank::eventLoop, "net.loop.waiters"};
    bool running GUARDED_BY(mutex) = false;
    std::thread::id runner GUARDED_BY(mutex);
    std::vector<CountdownLatch *> waiters GUARDED_BY(mutex);
    std::atomic<bool> hasWaiters{false};
};

} // namespace musuite

#endif // MUSUITE_NET_POLLER_H
