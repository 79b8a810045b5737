#include "net/server.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "support/counters.h"
#include "support/logging.h"

namespace nomap {

namespace {

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
        fatal("fcntl(O_NONBLOCK) failed: %s", std::strerror(errno));
}

void
setCloexec(int fd)
{
    fcntl(fd, F_SETFD, FD_CLOEXEC);
}

} // namespace

NoMapServer::NoMapServer(ServerConfig config)
    : cfg(std::move(config))
{
    if (cfg.loops == 0)
        cfg.loops = 1;
    const FaultPlan *plan = cfg.faultPlan;
    if (!plan) {
        if (std::optional<FaultPlan> env = FaultPlan::fromEnv()) {
            envPlan = std::make_unique<FaultPlan>(std::move(*env));
            plan = envPlan.get();
        }
    }
    if (plan && !plan->empty())
        injector = std::make_unique<FaultInjector>(*plan);

    // One resolved plan drives the whole stack: the net.* sites here,
    // service.shardfull at the router, service.* inside each shard.
    ShardedServiceConfig serviceCfg = cfg.service;
    if (!serviceCfg.faultPlan)
        serviceCfg.faultPlan = plan;
    serviceCfg.loops = cfg.loops;
    sharded = std::make_unique<ShardedService>(std::move(serviceCfg));
}

NoMapServer::~NoMapServer()
{
    stop();
}

int
NoMapServer::makeListener(uint16_t port, bool wantReuseport,
                          bool *reuseportOk, bool mustSucceed)
{
    if (reuseportOk)
        *reuseportOk = false;
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (mustSucceed)
            fatal("socket() failed: %s", std::strerror(errno));
        return -1;
    }
    setCloexec(fd);
    int one = 1;
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (wantReuseport) {
        // Runtime probe: old kernels (or exotic platforms) reject it,
        // in which case the caller falls back to a single acceptor.
#ifdef SO_REUSEPORT
        if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one,
                       sizeof(one)) == 0 &&
            reuseportOk)
            *reuseportOk = true;
#endif
    }

    sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, cfg.bindHost.c_str(), &addr.sin_addr) != 1) {
        close(fd);
        if (mustSucceed)
            fatal("bad bind address '%s'", cfg.bindHost.c_str());
        return -1;
    }
    if (bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) < 0 ||
        listen(fd, cfg.backlog) < 0) {
        int err = errno;
        close(fd);
        if (mustSucceed)
            fatal("bind/listen on %s:%u failed: %s", cfg.bindHost.c_str(),
                  static_cast<unsigned>(port), std::strerror(err));
        return -1;
    }
    socklen_t len = sizeof(addr);
    getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    boundPort = ntohs(addr.sin_port);
    setNonBlocking(fd);
    return fd;
}

void
NoMapServer::start()
{
    std::lock_guard<std::mutex> lock(loopsMutex);
    if (!loops.empty())
        return;

    size_t nloops = std::max<size_t>(1, cfg.loops);
    bool probeOk = false;
    int firstFd = makeListener(cfg.port, nloops > 1, &probeOk, true);

    // With SO_REUSEPORT every loop gets its own listener on the same
    // port and the kernel balances accepts. Bind the extra listeners
    // up front so a late failure can still fall back cleanly.
    std::vector<int> listeners;
    listeners.push_back(firstFd);
    reuseportMode = nloops > 1 && probeOk;
    if (reuseportMode) {
        for (size_t i = 1; i < nloops; ++i) {
            bool ok = false;
            int fd = makeListener(boundPort, true, &ok, false);
            if (fd < 0 || !ok) {
                if (fd >= 0)
                    close(fd);
                reuseportMode = false;
                break;
            }
            listeners.push_back(fd);
        }
        if (!reuseportMode) {
            // The first listener still has SO_REUSEPORT set; keeping
            // it would let another local process bind the same port
            // and steal connections while reuseportActive() reports
            // false. Recreate it plain on the now-known bound port
            // (must succeed: the port was just released by us, so a
            // failure here is a genuine race worth dying loudly on).
            for (int fd : listeners)
                close(fd);
            listeners.assign(1, makeListener(boundPort, false, nullptr,
                                             true));
        }
    }

    adoptNext = 0;
    for (size_t i = 0; i < nloops; ++i) {
        auto loop = std::make_unique<EventLoop>(
            *this, static_cast<uint32_t>(i + 1));
        if (i < listeners.size())
            loop->attachListener(listeners[i]);
        loops.push_back(std::move(loop));
    }
    for (auto &loop : loops)
        loop->start();
}

void
NoMapServer::stop()
{
    std::lock_guard<std::mutex> lock(loopsMutex);
    if (loops.empty())
        return;
    for (auto &loop : loops)
        loop->requestStop();
    for (auto &loop : loops)
        loop->join();

    // Drain the back-end *before* tearing down the completion plumbing:
    // worker callbacks append completions and poke the wake pipes until
    // every in-flight request has resolved.
    sharded->shutdown();

    for (auto &loop : loops)
        loop->teardown();
    // Final per-loop counters outlive the loops so a metrics dump
    // after stop() (the nomap_serve shutdown path) still reports
    // them.
    finalLoopCounters.clear();
    for (const auto &loop : loops)
        finalLoopCounters.push_back(loop->counters());
    loops.clear();
    reuseportMode = false;
}

NetConnectionCounters
NoMapServer::connectionCounters() const
{
    NetConnectionCounters c;
    c.accepted = accepted.load(std::memory_order_relaxed);
    c.closed = closed.load(std::memory_order_relaxed);
    // Two separate relaxed loads: a connection accepted between them
    // and closed before the second can make closed > accepted, so
    // clamp instead of letting the unsigned subtraction wrap.
    c.active = clampedDelta(c.accepted, c.closed);
    c.rejected = rejected.load(std::memory_order_relaxed);
    c.acceptFaults = acceptFaults.load(std::memory_order_relaxed);
    c.acceptBackoffs = acceptBackoffs.load(std::memory_order_relaxed);
    c.readErrors = readErrors.load(std::memory_order_relaxed);
    c.writeErrors = writeErrors.load(std::memory_order_relaxed);
    c.decodeErrors = decodeErrors.load(std::memory_order_relaxed);
    c.framesIn = framesIn.load(std::memory_order_relaxed);
    c.framesOut = framesOut.load(std::memory_order_relaxed);
    c.deferredFrames = deferredFrames.load(std::memory_order_relaxed);
    c.bytesIn = bytesIn.load(std::memory_order_relaxed);
    c.bytesOut = bytesOut.load(std::memory_order_relaxed);
    return c;
}

bool
NoMapServer::running() const
{
    std::lock_guard<std::mutex> lock(loopsMutex);
    return !loops.empty();
}

size_t
NoMapServer::loopCount() const
{
    std::lock_guard<std::mutex> lock(loopsMutex);
    return loops.size();
}

ShardedMetricsSnapshot
NoMapServer::metrics() const
{
    ShardedMetricsSnapshot snap = sharded->metrics();
    snap.connections = connectionCounters();
    std::lock_guard<std::mutex> lock(loopsMutex);
    if (loops.empty()) {
        snap.eventLoops = finalLoopCounters;
    } else {
        for (const auto &loop : loops)
            snap.eventLoops.push_back(loop->counters());
    }
    return snap;
}

// ---- EventLoop ---------------------------------------------------------

NoMapServer::EventLoop::EventLoop(NoMapServer &server, uint32_t ordinal)
    : server(server), ordinal(ordinal)
{
}

NoMapServer::EventLoop::~EventLoop()
{
    requestStop();
    join();
    teardown();
}

void
NoMapServer::EventLoop::start()
{
    stopFlag.store(false, std::memory_order_relaxed);
    int pipefd[2];
    if (pipe(pipefd) < 0)
        fatal("pipe() failed: %s", std::strerror(errno));
    wakeR = pipefd[0];
    wakeW = pipefd[1];
    setNonBlocking(wakeR);
    setNonBlocking(wakeW);
    setCloexec(wakeR);
    setCloexec(wakeW);

    if (listenFd >= 0)
        poller.add(listenFd, kPollIn);
    poller.add(wakeR, kPollIn);

    thread = std::thread([this] { loopMain(); });
}

void
NoMapServer::EventLoop::requestStop()
{
    stopFlag.store(true, std::memory_order_release);
    wake();
}

void
NoMapServer::EventLoop::join()
{
    if (thread.joinable())
        thread.join();
}

void
NoMapServer::EventLoop::teardown()
{
    for (auto &entry : conns) {
        close(entry.second->fd);
        server.closed.fetch_add(1, std::memory_order_relaxed);
        loopClosed.fetch_add(1, std::memory_order_relaxed);
    }
    conns.clear();
    connsById.clear();
    poller.clear();
    {
        // Adopted-but-never-installed sockets (fallback handoff raced
        // with shutdown): close without touching accepted/closed.
        std::lock_guard<std::mutex> lock(adoptMutex);
        for (int fd : adopted)
            close(fd);
        adopted.clear();
    }
    if (listenFd >= 0)
        close(listenFd);
    if (wakeR >= 0)
        close(wakeR);
    if (wakeW >= 0)
        close(wakeW);
    listenFd = wakeR = wakeW = -1;
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        completions.clear();
    }
    thread = std::thread();
}

void
NoMapServer::EventLoop::wake()
{
    if (wakeW < 0)
        return;
    ssize_t ignored = write(wakeW, "x", 1);
    (void)ignored;
}

void
NoMapServer::EventLoop::postCompletion(uint64_t connId, std::string frame)
{
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        completions.emplace_back(connId, std::move(frame));
    }
    wake();
}

void
NoMapServer::EventLoop::adoptSocket(int fd)
{
    {
        std::lock_guard<std::mutex> lock(adoptMutex);
        adopted.push_back(fd);
    }
    wake();
}

NetLoopCounters
NoMapServer::EventLoop::counters() const
{
    NetLoopCounters c;
    c.loop = ordinal;
    c.accepted = loopAccepted.load(std::memory_order_relaxed);
    uint64_t closedNow = loopClosed.load(std::memory_order_relaxed);
    c.active = clampedDelta(c.accepted, closedNow);
    c.framesIn = loopFramesIn.load(std::memory_order_relaxed);
    c.framesOut = loopFramesOut.load(std::memory_order_relaxed);
    return c;
}

void
NoMapServer::EventLoop::loopMain()
{
    std::vector<Poller::Event> events;
    while (!stopFlag.load(std::memory_order_acquire)) {
        maybeResumeAccept();

        // Deferred frames (net.frame) are replayed next cycle, so cap
        // the wait whenever any exist; otherwise sleep long — every
        // state change that matters pokes the self-pipe or a socket.
        bool hasDeferred = false;
        for (auto &entry : conns) {
            if (!entry.second->deferred.empty()) {
                hasDeferred = true;
                break;
            }
        }
        int timeout = hasDeferred ? 10 : 500;
        if (acceptPaused) {
            auto now = std::chrono::steady_clock::now();
            auto left = std::chrono::duration_cast<
                            std::chrono::milliseconds>(acceptResumeAt -
                                                       now)
                            .count();
            timeout = std::min<long long>(timeout,
                                          std::max<long long>(1, left + 1));
        }
        poller.wait(&events, timeout);

        for (const Poller::Event &event : events) {
            if (event.fd == listenFd) {
                handleAccept();
                continue;
            }
            if (event.fd == wakeR) {
                char buf[256];
                while (read(wakeR, buf, sizeof(buf)) > 0) {
                }
                continue;
            }
            auto it = conns.find(event.fd);
            if (it == conns.end())
                continue; // Closed earlier this batch.
            Conn *conn = it->second.get();
            uint64_t id = conn->id;
            if (event.ready & kPollIn)
                handleReadable(conn);
            if (event.ready & kPollOut) {
                // Re-look-up *and* match the id: the read side may
                // have closed the conn, and an accept earlier in this
                // batch may have reused the fd for a new connection —
                // `conn` would dangle, and the fresh conn must not be
                // flushed for the stale event either.
                auto again = conns.find(event.fd);
                if (again != conns.end() && again->second->id == id)
                    handleWritable(again->second.get());
            }
        }

        drainAdopted();
        drainCompletions();

        // Replay frames net.frame held back one cycle.
        std::vector<std::pair<uint64_t, std::string>> replay;
        for (auto &entry : conns) {
            Conn *conn = entry.second.get();
            for (std::string &payload : conn->deferred)
                replay.emplace_back(conn->id, std::move(payload));
            conn->deferred.clear();
        }
        for (auto &[id, payload] : replay) {
            if (Conn *conn = connById(id))
                processFrame(conn, std::move(payload));
        }
    }
}

void
NoMapServer::EventLoop::pauseAccept()
{
    if (acceptPaused || listenFd < 0)
        return;
    // The listener is level-triggered: with a pending connection we
    // cannot accept, every wait() would return immediately. Drop accept
    // interest and re-arm after the backoff tick instead of spinning.
    acceptPaused = true;
    acceptResumeAt = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(
                         std::max(1, server.cfg.acceptBackoffMs));
    server.acceptBackoffs.fetch_add(1, std::memory_order_relaxed);
    poller.modify(listenFd, 0);
}

void
NoMapServer::EventLoop::maybeResumeAccept()
{
    if (!acceptPaused)
        return;
    if (std::chrono::steady_clock::now() < acceptResumeAt)
        return;
    acceptPaused = false;
    // Level-triggered: a connection still waiting re-fires immediately.
    poller.modify(listenFd, kPollIn);
}

void
NoMapServer::EventLoop::handleAccept()
{
    for (;;) {
        int fd = accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            // Transient resource exhaustion (EMFILE & co): count it,
            // back off, and keep serving the connections we have.
            server.acceptFaults.fetch_add(1, std::memory_order_relaxed);
            pauseAccept();
            return;
        }
        // Injected accept failure: the kernel handed us a socket but
        // the server "fails" it — closed before any byte is served.
        if (server.injector &&
            server.injector->fire(FaultSite::NetAccept)) {
            server.acceptFaults.fetch_add(1, std::memory_order_relaxed);
            close(fd);
            continue;
        }
        // Rejected connections never count as accepted/closed, so
        // "accepted" keeps meaning served. The cap is checked against
        // the server-wide totals; with multiple loops accepting
        // concurrently it is approximate by at most loops-1.
        uint64_t acc = server.accepted.load(std::memory_order_relaxed);
        uint64_t cls = server.closed.load(std::memory_order_relaxed);
        uint64_t live = clampedDelta(acc, cls);
        if (live >= server.cfg.maxConnections) {
            server.rejected.fetch_add(1, std::memory_order_relaxed);
            close(fd);
            continue;
        }
        setNonBlocking(fd);
        setCloexec(fd);
        int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        if (server.cfg.sendBufferBytes > 0) {
            int sz = server.cfg.sendBufferBytes;
            setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sz, sizeof(sz));
        }

        if (server.reuseportMode || server.loops.size() <= 1) {
            installConn(fd);
            continue;
        }
        // Fallback single acceptor: round-robin the socket across all
        // loops (including this one). adoptNext is only ever touched
        // here, on the one loop that owns the listener.
        EventLoop *target =
            server.loops[server.adoptNext++ % server.loops.size()].get();
        if (target == this)
            installConn(fd);
        else
            target->adoptSocket(fd);
    }
}

void
NoMapServer::EventLoop::installConn(int fd)
{
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = server.nextConnId.fetch_add(1, std::memory_order_relaxed);
    connsById[conn->id] = conn.get();
    poller.add(fd, kPollIn);
    conn->interest = kPollIn;
    conns[fd] = std::move(conn);
    server.accepted.fetch_add(1, std::memory_order_relaxed);
    loopAccepted.fetch_add(1, std::memory_order_relaxed);
}

void
NoMapServer::EventLoop::drainAdopted()
{
    std::vector<int> batch;
    {
        std::lock_guard<std::mutex> lock(adoptMutex);
        batch.swap(adopted);
    }
    for (int fd : batch)
        installConn(fd);
}

void
NoMapServer::EventLoop::handleReadable(Conn *conn)
{
    // A closing connection (poisoned decoder) is flush-only: don't
    // read more input, and don't report the same protocol error twice.
    if (conn->closing)
        return;
    for (;;) {
        char buf[64 * 1024];
        size_t want = sizeof(buf);
        // Injected short read: deliver one byte this syscall. The
        // stream content is unchanged — only its arrival granularity —
        // so responses must still be bit-identical.
        if (server.injector && server.injector->fire(FaultSite::NetRead))
            want = 1;
        ssize_t n = read(conn->fd, buf, want);
        if (n > 0) {
            server.bytesIn.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
            conn->decoder.feed(buf, static_cast<size_t>(n));
            if (want == 1)
                break; // One byte per poll cycle while the fault arms.
            if (static_cast<size_t>(n) < want)
                break; // Drained the socket.
            continue;
        }
        if (n == 0) { // Peer closed.
            closeConn(conn);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        server.readErrors.fetch_add(1, std::memory_order_relaxed);
        closeConn(conn);
        return;
    }

    // Pull every complete frame out of the decoder.
    for (;;) {
        std::string payload, error;
        FrameDecoder::Result result =
            conn->decoder.next(&payload, &error);
        if (result == FrameDecoder::Result::NeedMore)
            break;
        if (result == FrameDecoder::Result::Error) {
            // Unresynchronizable: answer with one error frame, then
            // close once it flushes.
            server.decodeErrors.fetch_add(1, std::memory_order_relaxed);
            WireResponse wire;
            wire.status = static_cast<uint8_t>(ResponseStatus::Error);
            wire.error = "protocol error: " + error;
            queueResponse(conn, wire);
            conn->closing = true;
            flushConn(conn);
            return;
        }
        server.framesIn.fetch_add(1, std::memory_order_relaxed);
        loopFramesIn.fetch_add(1, std::memory_order_relaxed);
        // Injected frame deferral: hold the decoded frame one poll
        // cycle. Ordering within the connection is preserved (the
        // replay queue is FIFO), so responses stay deterministic.
        if (server.injector &&
            server.injector->fire(FaultSite::NetFrameDefer)) {
            server.deferredFrames.fetch_add(1, std::memory_order_relaxed);
            conn->deferred.push_back(std::move(payload));
            continue;
        }
        // processFrame's malformed-payload path flushes inline, and a
        // hard send() error there (peer already reset) frees *conn —
        // capture the id first and re-check through the table, never
        // through the stale pointer (same discipline as the deferred
        // replay loop below).
        uint64_t frameConnId = conn->id;
        processFrame(conn, std::move(payload));
        if (!connById(frameConnId))
            return; // processFrame closed it.
    }
}

void
NoMapServer::EventLoop::processFrame(Conn *conn, std::string payload)
{
    WireRequest wire;
    std::string error;
    Request request;
    if (!decodeRequestPayload(payload, &wire, &error) ||
        !wireToRequest(wire, &request, &error)) {
        // Malformed request *payload* (framing was fine): the stream
        // is still in sync, so answer Error and keep the connection.
        server.decodeErrors.fetch_add(1, std::memory_order_relaxed);
        WireResponse response;
        response.id = wire.id;
        response.status = static_cast<uint8_t>(ResponseStatus::Error);
        response.error = "bad request: " + error;
        queueResponse(conn, response);
        flushConn(conn);
        return;
    }
    request.connectionId = conn->id;
    request.loop = ordinal;
    conn->pending++;

    uint64_t connId = conn->id;
    server.sharded->submitAsync(
        std::move(request), [this, connId](Response response) {
            // Worker thread (or the loop thread itself when shed
            // inline): encode here, hand the loop finished bytes.
            std::string payload =
                encodeResponsePayload(responseToWire(response));
            if (payload.size() > kMaxFramePayloadBytes) {
                // The client's decoder would refuse the frame and drop
                // the connection; answer this request with an error.
                WireResponse wire;
                wire.id = response.id;
                wire.status =
                    static_cast<uint8_t>(ResponseStatus::Error);
                wire.shard = response.shard;
                wire.attempts = response.attempts;
                wire.error = strprintf(
                    "response of %zu bytes exceeds the %u-byte frame "
                    "cap",
                    payload.size(), kMaxFramePayloadBytes);
                payload = encodeResponsePayload(wire);
            }
            postCompletion(connId, frameMessage(payload));
        });
}

void
NoMapServer::EventLoop::drainCompletions()
{
    std::vector<std::pair<uint64_t, std::string>> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex);
        batch.swap(completions);
    }
    // Write batching: append every completed frame to its connection
    // first, then flush each touched connection once — one coalesced
    // send per connection per poll cycle, one POLLOUT toggle at most.
    std::vector<Conn *> dirty;
    for (auto &[connId, frame] : batch) {
        Conn *conn = connById(connId);
        if (!conn)
            continue; // Peer vanished before its response landed.
        if (conn->pending > 0)
            conn->pending--;
        conn->outbuf.append(frame);
        server.framesOut.fetch_add(1, std::memory_order_relaxed);
        loopFramesOut.fetch_add(1, std::memory_order_relaxed);
        if (!conn->dirty) {
            conn->dirty = true;
            dirty.push_back(conn);
        }
    }
    for (Conn *conn : dirty) {
        conn->dirty = false;
        flushConn(conn); // May closeConn; each conn appears once.
    }
}

void
NoMapServer::EventLoop::queueResponse(Conn *conn,
                                      const WireResponse &wire)
{
    conn->outbuf.append(frameMessage(encodeResponsePayload(wire)));
    server.framesOut.fetch_add(1, std::memory_order_relaxed);
    loopFramesOut.fetch_add(1, std::memory_order_relaxed);
}

void
NoMapServer::EventLoop::handleWritable(Conn *conn)
{
    flushConn(conn);
}

void
NoMapServer::EventLoop::flushConn(Conn *conn)
{
    while (conn->outPos < conn->outbuf.size()) {
        size_t remaining = conn->outbuf.size() - conn->outPos;
        // Injected short write: one byte per syscall. Content and
        // order are unchanged; only packetization degrades.
        if (server.injector &&
            server.injector->fire(FaultSite::NetWrite))
            remaining = 1;
        ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outPos,
                           remaining, MSG_NOSIGNAL);
        if (n > 0) {
            conn->outPos += static_cast<size_t>(n);
            server.bytesOut.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        server.writeErrors.fetch_add(1, std::memory_order_relaxed);
        closeConn(conn);
        return;
    }
    if (conn->outPos == conn->outbuf.size()) {
        conn->outbuf.clear();
        conn->outPos = 0;
        if (conn->closing && conn->pending == 0) {
            closeConn(conn);
            return;
        }
    }
    updateWriteInterest(conn);
}

void
NoMapServer::EventLoop::updateWriteInterest(Conn *conn)
{
    uint32_t want = kPollIn;
    if (conn->outPos < conn->outbuf.size())
        want |= kPollOut;
    // Interest is cached per connection so batched flushes cost one
    // poller syscall per actual edge, not one per frame.
    if (want == conn->interest)
        return;
    poller.modify(conn->fd, want);
    conn->interest = want;
}

void
NoMapServer::EventLoop::closeConn(Conn *conn)
{
    poller.remove(conn->fd);
    close(conn->fd);
    connsById.erase(conn->id);
    conns.erase(conn->fd); // Destroys *conn.
    server.closed.fetch_add(1, std::memory_order_relaxed);
    loopClosed.fetch_add(1, std::memory_order_relaxed);
}

NoMapServer::EventLoop::Conn *
NoMapServer::EventLoop::connById(uint64_t id)
{
    auto it = connsById.find(id);
    return it == connsById.end() ? nullptr : it->second;
}

} // namespace nomap
