/**
 * @file
 * Implementation of length-prefixed framing.
 */

#include "net/frame.h"

#include <algorithm>
#include <cstring>
#include <sys/uio.h>

#include "base/logging.h"
#include "serde/wire.h"

namespace musuite {

namespace {

/** Frames rejected on the send side for exceeding maxFrameBytes. */
std::atomic<uint64_t> oversizedSends{0};

/** The calling thread's open drain batch, if any. */
thread_local DrainWriteBatch *activeDrainBatch = nullptr;

} // namespace

uint64_t
FramedConnection::oversizedSendCount()
{
    return oversizedSends.load(std::memory_order_relaxed);
}

FramedConnection::FramedConnection(TcpSocket socket, Poller *poller,
                                   PollHandler *handler)
    : sock(std::move(socket)), poller(poller), handler(handler)
{}

FramedConnection::~FramedConnection()
{
    shutdown();
    // No concurrent users remain at destruction; recycle what never
    // reached the kernel.
    MutexLock lock(outMutex);
    while (!outQueue.empty()) {
        releaseWireBuffer(std::move(outQueue.front().payload));
        outQueue.pop_front();
    }
}

void
FramedConnection::registerWithPoller()
{
    if (poller && sock.valid())
        poller->add(sock.fd(), handler, false);
}

bool
FramedConnection::onReadable(
    const std::function<void(std::string_view)> &sink)
{
    assertOnFrameReaderThread();
    if (isDead())
        return false;

    constexpr size_t readChunk = 64 * 1024;
    while (true) {
        // Ensure readChunk bytes of tail space: slide unparsed bytes
        // to the front (cursor compaction, no erase-shuffle per event)
        // and grow geometrically only when a frame outsizes the
        // buffer. Capacity is kept across events, so steady-state
        // reads allocate nothing.
        if (inbound.size() - inEnd < readChunk) {
            if (inCursor > 0) {
                std::memmove(&inbound[0], inbound.data() + inCursor,
                             inEnd - inCursor);
                inEnd -= inCursor;
                inCursor = 0;
            }
            if (inbound.size() - inEnd < readChunk)
                inbound.resize(
                    std::max(inEnd + readChunk, 2 * inbound.size()));
        }
        const size_t want = inbound.size() - inEnd;
        size_t received = 0;
        const IoStatus status =
            sock.receive(&inbound[inEnd], want, received);
        if (status == IoStatus::Ok) {
            inEnd += received;
            // A short read means the kernel buffer is drained: go
            // parse instead of paying a guaranteed-EAGAIN recv. Only
            // a full read hints at more pending bytes.
            if (received < want)
                break;
            continue;
        }
        if (status == IoStatus::WouldBlock)
            break;
        shutdown();
        return false;
    }

    // Parse complete frames in [inCursor, inEnd).
    while (inEnd - inCursor >= 4) {
        uint32_t length;
        std::memcpy(&length, inbound.data() + inCursor, 4);
        if (length > maxFrameBytes) {
            MUSUITE_WARN() << "oversized frame (" << length
                           << " bytes); dropping connection";
            shutdown();
            return false;
        }
        if (inEnd - inCursor - 4 < length)
            break;
        sink(std::string_view(inbound.data() + inCursor + 4, length));
        inCursor += 4 + size_t(length);
    }
    if (inCursor == inEnd)
        inCursor = inEnd = 0; // All consumed: rewind, keep capacity.
    return !isDead();
}

void
FramedConnection::onWritable()
{
    assertOnFrameReaderThread();
    bool ok;
    {
        MutexLock lock(outMutex);
        ok = flushLocked(lock);
    }
    if (!ok)
        shutdown();
}

bool
FramedConnection::sendFrame(std::string_view payload)
{
    if (isDead())
        return false;
    if (payload.size() > maxFrameBytes) {
        oversizedSends.fetch_add(1, std::memory_order_relaxed);
        MUSUITE_WARN() << "oversized outbound frame (" << payload.size()
                       << " bytes) rejected";
        return false;
    }
    std::string owned = acquireWireBuffer(payload.size());
    if (!payload.empty())
        owned.assign(payload.data(), payload.size());
    return sendFrameOwned(std::move(owned));
}

bool
FramedConnection::sendFrameOwned(std::string payload)
{
    if (isDead())
        return false;
    if (payload.size() > maxFrameBytes) {
        oversizedSends.fetch_add(1, std::memory_order_relaxed);
        MUSUITE_WARN() << "oversized outbound frame (" << payload.size()
                       << " bytes) rejected";
        return false;
    }

    bool ok;
    {
        MutexLock lock(outMutex);
        queueLocked(std::move(payload));
        ok = flushLocked(lock);
    }
    if (!ok)
        shutdown();
    return !isDead();
}

void
FramedConnection::cork()
{
    MutexLock lock(outMutex);
    ++corkDepth;
}

bool
FramedConnection::uncork()
{
    return release(false);
}

bool
FramedConnection::uncorkAndFlush()
{
    return release(true);
}

bool
FramedConnection::release(bool flush_all)
{
    bool ok;
    {
        MutexLock lock(outMutex);
        MUSUITE_CHECK(corkDepth > 0) << "uncork without matching cork";
        --corkDepth;
        flushAll = flushAll || flush_all;
        ok = flushLocked(lock);
    }
    if (!ok)
        shutdown();
    return !isDead();
}

void
FramedConnection::queueLocked(std::string &&payload)
{
    OutFrame frame;
    const uint32_t length = uint32_t(payload.size());
    std::memcpy(frame.header, &length, sizeof(frame.header));
    frame.payload = std::move(payload);
    outQueue.push_back(std::move(frame));
}

bool
FramedConnection::flushLocked(MutexLock &lock)
{
    if (flushing || (corkDepth > 0 && !flushAll))
        return true; // The active flusher / uncork will drain us.
    flushing = true;

    bool ok = true;
    while (!outQueue.empty() && (corkDepth == 0 || flushAll)) {
        // Build the scatter list: {header, payload} per frame, the
        // front frame offset by outCursor.
        struct iovec iov[2 * maxFramesPerFlush];
        int iovcnt = 0;
        size_t skip = outCursor;
        for (OutFrame &frame : outQueue) {
            if (iovcnt + 2 > int(2 * maxFramesPerFlush))
                break;
            if (skip < sizeof(frame.header)) {
                iov[iovcnt].iov_base = frame.header + skip;
                iov[iovcnt].iov_len = sizeof(frame.header) - skip;
                ++iovcnt;
                skip = 0;
            } else {
                skip -= sizeof(frame.header);
            }
            if (skip < frame.payload.size()) {
                iov[iovcnt].iov_base =
                    const_cast<char *>(frame.payload.data()) + skip;
                iov[iovcnt].iov_len = frame.payload.size() - skip;
                ++iovcnt;
            }
            skip = 0; // Only the front frame is partially sent.
        }

        // Drop the lock across the syscall: senders keep appending
        // (deque growth never invalidates existing element
        // references, and only the flusher pops), so concurrent load
        // coalesces into the next iteration instead of convoying.
        size_t sent = 0;
        IoStatus status;
        {
            MutexUnlock relock(lock);
            status = sock.sendv(iov, iovcnt, sent);
        }

        if (status == IoStatus::Ok) {
            outCursor += sent;
            while (!outQueue.empty()) {
                OutFrame &front = outQueue.front();
                const size_t frame_bytes =
                    sizeof(front.header) + front.payload.size();
                if (outCursor < frame_bytes)
                    break;
                outCursor -= frame_bytes;
                releaseWireBuffer(std::move(front.payload));
                outQueue.pop_front();
            }
            continue;
        }
        if (status == IoStatus::WouldBlock) {
            if (!writeArmed && poller && !isDead()) {
                writeArmed = true;
                poller->modify(sock.fd(), handler, true);
                poller->wake();
            }
            break;
        }
        ok = false;
        break;
    }

    flushing = false;
    if (outQueue.empty()) {
        outCursor = 0;
        flushAll = false;
        if (writeArmed && poller && !isDead()) {
            writeArmed = false;
            poller->modify(sock.fd(), handler, false);
        }
    }
    return ok;
}

void
FramedConnection::shutdown()
{
    bool expected = false;
    if (!dead.compare_exchange_strong(expected, true))
        return;
    if (poller && sock.valid())
        poller->remove(sock.fd());
    // Unblock any peer and concurrent sender, but keep the fd alive:
    // closing here would let the kernel recycle the descriptor while a
    // sender on another thread is still inside sendv().
    sock.shutdownRw();
}

DrainWriteBatch::DrainWriteBatch(Holds holds_in) : holds(holds_in)
{
    MUSUITE_CHECK(activeDrainBatch == nullptr)
        << "drain write batches do not nest";
    activeDrainBatch = this;
}

DrainWriteBatch::~DrainWriteBatch()
{
    activeDrainBatch = nullptr;
    for (const auto &fc : corked)
        fc->uncorkAndFlush();
}

bool
DrainWriteBatch::send(const std::shared_ptr<FramedConnection> &fc,
                      std::string payload, FrameKind kind)
{
    DrainWriteBatch *batch = activeDrainBatch;
    if (batch &&
        (kind == FrameKind::response ||
         batch->holds == Holds::requestsAndResponses) &&
        std::find(batch->corked.begin(), batch->corked.end(), fc) ==
            batch->corked.end()) {
        // A drain touches few connections: a linear scan beats a set.
        fc->cork();
        batch->corked.push_back(fc);
    }
    return fc->sendFrameOwned(std::move(payload));
}

} // namespace musuite
