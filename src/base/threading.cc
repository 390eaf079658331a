/**
 * @file
 * Implementation of thread utilities.
 */

#include "base/threading.h"

#include <pthread.h>

namespace musuite {

namespace {

void
nameThread(pthread_t thread, const std::string &name)
{
    // The kernel limits names to 15 chars + NUL.
    pthread_setname_np(thread, name.substr(0, 15).c_str());
}

} // namespace

void
setCurrentThreadName(const std::string &name)
{
    nameThread(pthread_self(), name);
}

ScopedThread::ScopedThread(std::string name, std::function<void()> body)
    : thread(std::move(body))
{
    // Named from here, not from inside the thread: the name is then
    // visible (e.g. in /proc/self/task/*/comm) once the constructor
    // returns, instead of whenever the new thread first runs.
    nameThread(thread.native_handle(), name);
}

ScopedThread &
ScopedThread::operator=(ScopedThread &&other)
{
    if (this != &other) {
        join();
        thread = std::move(other.thread);
    }
    return *this;
}

void
ScopedThread::join()
{
    if (thread.joinable())
        thread.join();
}

} // namespace musuite
