/**
 * @file
 * Length-prefixed message framing over a non-blocking TCP socket.
 *
 * Frames are a 4-byte little-endian payload length followed by the
 * payload. A FramedConnection is read only by its owning poller
 * thread, but frames may be sent from any thread (µSuite workers and
 * response threads complete RPCs from the worker pool).
 *
 * The byte path is built around batching and reuse (the paper's
 * syscall findings, Figs. 11–14: sendmsg/recvmsg dominate mid-tier OS
 * time):
 *
 *  - Outbound frames queue as {header, payload} pairs and flush many
 *    frames per sendmsg via scatter-gather (TcpSocket::sendv). A
 *    single flusher drains the queue with the lock *dropped* across
 *    the syscall; concurrent senders just append and return, so load
 *    coalesces naturally instead of convoying on the kernel.
 *  - cork()/uncork() let callers batch explicitly: a caller issuing a
 *    burst corks, queues everything, and uncorks into one syscall.
 *  - DrainWriteBatch does that for a whole drain: a server poller pass
 *    or worker drain round corks each connection the first time the
 *    thread queues a frame on it and uncorks each once at the end, so
 *    every connection gets one sendmsg per drain — a pass's responses
 *    and, on a poller, the leaf requests its handlers issued.
 *  - Inbound bytes land directly in a cursor-compacted buffer (no
 *    erase(0, cursor) shuffle), and a short read ends the recv loop —
 *    a short read means the kernel buffer is drained, so the old
 *    "one more recv" was a guaranteed-EAGAIN syscall per event.
 *  - Payload buffers are recycled through the serde wire-buffer pool
 *    (acquireWireBuffer/releaseWireBuffer), so steady-state sends
 *    allocate nothing.
 */

#ifndef MUSUITE_NET_FRAME_H
#define MUSUITE_NET_FRAME_H

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/threading.h"
#include "net/poller.h"
#include "net/socket.h"

namespace musuite {

class FramedConnection
{
  public:
    /** Frames larger than this indicate a corrupt stream. */
    static constexpr uint32_t maxFrameBytes = 64u << 20;

    /** Most frames packed into one sendv (two iovecs per frame). */
    static constexpr size_t maxFramesPerFlush = 32;

    /**
     * @param socket Connected non-blocking socket (takes ownership).
     * @param poller Poller whose thread reads this connection; used to
     *        manage EPOLLOUT interest. May be null for lock-step tests
     *        (then callers drive flush() manually).
     * @param handler The handler this connection is registered under.
     */
    FramedConnection(TcpSocket socket, Poller *poller,
                     PollHandler *handler);
    ~FramedConnection();

    /** Register with the poller for read interest. */
    void registerWithPoller();

    /**
     * Drain readable bytes and deliver every complete frame. Must be
     * called on the poller thread.
     *
     * @param sink Called once per frame with a view valid only during
     *        the call.
     * @return false if the peer closed or the stream broke; the
     *         connection is dead afterwards.
     */
    bool onReadable(const std::function<void(std::string_view)> &sink);

    /** Flush pending output after EPOLLOUT. Poller thread only. */
    void onWritable();

    /**
     * Queue one frame and flush as much as the kernel accepts.
     * Callable from any thread. Oversized payloads are rejected
     * (counted under net.frame.oversized_send) without harming the
     * connection.
     * @return false if the frame was rejected or the connection is
     *         dead.
     */
    bool sendFrame(std::string_view payload);

    /**
     * sendFrame() taking ownership of the payload buffer: no copy on
     * the send path, and the buffer is recycled through the wire pool
     * once the kernel has it.
     */
    bool sendFrameOwned(std::string payload);

    /**
     * Write-combining: while corked, sendFrame() only queues; the
     * matching uncork() flushes everything queued since — ideally as
     * one scatter-gather syscall. Nests; callable from any thread.
     */
    void cork();

    /** @return false if the connection died flushing. */
    bool uncork();

    /**
     * uncork() that flushes everything queued even while other corks
     * are still held (DrainWriteBatch's end). Drains on several threads
     * (worker rounds, passes of several pollers) may keep one
     * connection corked between them for as long as they keep
     * overlapping; this bounds the wait of every frame to the end of
     * the first drain that ends after it was queued.
     * @return false if the connection died flushing.
     */
    bool uncorkAndFlush();

    bool isDead() const { return dead.load(std::memory_order_acquire); }
    int fd() const { return sock.fd(); }

    /** Frames rejected for exceeding maxFrameBytes (process-wide). */
    static uint64_t oversizedSendCount();

    /**
     * Mark dead, deregister from the poller, and shut the socket down.
     * The fd itself stays open until destruction so that a concurrent
     * sender in the flush path can never race against fd reuse.
     */
    void shutdown();

  private:
    /** One queued outbound frame: length prefix + payload. */
    struct OutFrame
    {
        char header[4];
        std::string payload;
    };

    /** Append one frame to the outbound queue. */
    void queueLocked(std::string &&payload) REQUIRES(outMutex);

    /** Release one cork; `flush_all` as in uncorkAndFlush(). */
    bool release(bool flush_all);

    /**
     * Drain the outbound queue through sendv, releasing `lock` across
     * each syscall (appenders keep making progress; deque references
     * stay valid). Only one thread flushes at a time — later callers
     * see `flushing` and return, leaving their frames to the active
     * flusher. Corks stop it unless `flushAll` is set. Updates
     * EPOLLOUT interest.
     * @return false on a hard I/O error: the caller must release
     *         outMutex and then call shutdown().
     */
    bool flushLocked(MutexLock &lock) REQUIRES(outMutex);

    TcpSocket sock;
    Poller *poller;
    PollHandler *handler;

    // Inbound state: poller thread only. Unparsed bytes live at
    // [inCursor, inEnd) of `inbound`; compaction slides them to the
    // front (memmove) only when tail space runs out, and the buffer's
    // capacity is kept across events so steady-state reads allocate
    // nothing.
    std::string inbound;
    size_t inCursor = 0;
    size_t inEnd = 0;

    // Outbound state: shared.
    Mutex outMutex{LockRank::frameOut, "net.frame.out"};
    std::deque<OutFrame> outQueue GUARDED_BY(outMutex);
    /** Bytes of the front frame already handed to the kernel. */
    size_t outCursor GUARDED_BY(outMutex) = 0;
    bool flushing GUARDED_BY(outMutex) = false;
    int corkDepth GUARDED_BY(outMutex) = 0;
    /** Set by uncorkAndFlush(): flush despite corks until empty. */
    bool flushAll GUARDED_BY(outMutex) = false;
    bool writeArmed GUARDED_BY(outMutex) = false;

    std::atomic<bool> dead{false};
};

/** What a frame carries, as far as a DrainWriteBatch is concerned. */
enum class FrameKind { request, response };

/**
 * One write batch per drain. While a thread holds one open, every
 * frame it sends through send() that the batch holds corks its
 * connection (once per connection) and queues; the destructor uncorks
 * each of those connections once (uncorkAndFlush), so each gets one
 * flush — ideally one sendmsg — per drain instead of one per frame. A
 * frame another thread queues on such a connection meanwhile waits for
 * the same flush, so it leaves no later than the end of the drain.
 *
 * Responses always join. Requests join only a batch that holds them:
 * a request held back until the drain ends gets no reply before then,
 * so only a thread that never waits inside its drain may hold them.
 * A server poller pass holds both (pollers never block; the role
 * checks and mulint enforce it); a worker drain round holds responses
 * only, because its handlers may block on client calls.
 *
 * Thread-local and not nestable: one batch per thread at a time.
 */
class DrainWriteBatch
{
  public:
    /** Which frames the batch holds back (see above). */
    enum class Holds { responses, requestsAndResponses };

    /** Open the calling thread's batch. */
    explicit DrainWriteBatch(Holds holds);

    /** Uncork every joined connection once. */
    ~DrainWriteBatch();

    DrainWriteBatch(const DrainWriteBatch &) = delete;
    DrainWriteBatch &operator=(const DrainWriteBatch &) = delete;

    /**
     * FramedConnection::sendFrameOwned(), held back until the end of
     * the calling thread's batch when one is open and holds `kind`.
     */
    static bool send(const std::shared_ptr<FramedConnection> &fc,
                     std::string payload, FrameKind kind);

  private:
    Holds holds;
    std::vector<std::shared_ptr<FramedConnection>> corked;
};

} // namespace musuite

#endif // MUSUITE_NET_FRAME_H
