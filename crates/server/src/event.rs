//! The readiness-driven serving core (unix only).
//!
//! A fixed pool of event-loop workers replaces thread-per-connection:
//! each worker owns one epoll/kqueue [`Poller`], its own
//! `SO_REUSEPORT` TCP listener shard (the kernel load-balances
//! incoming connections across shards), a share of the UDP datagram
//! endpoint, and the nonblocking connections it serves. Connections
//! are small state machines: a read buffer frames partial lines, a
//! write buffer absorbs multi-line responses (`METRICS`, `SLOWLOG`)
//! with backpressure — a peer that stops reading pauses its own
//! connection, never a worker.
//!
//! Unix-socket connections (one listener, worker 0) are handed off
//! round-robin through per-worker inboxes, as are TCP connections when
//! `SO_REUSEPORT` is unavailable. `RELOAD` — the one long-running verb
//! — is offloaded to a throwaway thread; the connection is parked
//! (`busy`) so pipelined requests behind it keep their order, and the
//! response is injected back through the owning worker's inbox.
//!
//! Wire behaviour is byte-identical to the blocking daemon this
//! replaced (the replay suites did not change): same responses, same
//! flush boundaries, same `MAX_LINE` handling, same log events, same
//! drain-an-idle-connection-after-200ms shutdown semantics.

use crate::daemon::State;
use crate::metrics::{bump, drop_one};
use crate::protocol::{parse_request, ProtoVersion, Request, Response, MAX_LINE};
use pathalias_poll::{PollEvent, Poller};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poll tokens 0–3 are the worker's own descriptors; connections get
/// monotonically increasing tokens from [`FIRST_CONN_TOKEN`] so a
/// stale reload injection can never hit a recycled slot.
const TOKEN_WAKE: u64 = 0;
const TOKEN_TCP: u64 = 1;
const TOKEN_UNIX: u64 = 2;
const TOKEN_UDP: u64 = 3;
const FIRST_CONN_TOKEN: u64 = 4;

/// Stop reading a connection whose unflushed output exceeds this — the
/// peer gets no new responses queued until it drains what it has.
const BACKPRESSURE: usize = 64 * 1024;

/// During a drain, a connection idle this long is released — the same
/// window the legacy blocking path's 200ms read timeout gave.
const DRAIN_GRACE: Duration = Duration::from_millis(200);

/// A drain force-closes whatever is still open after this long.
const DRAIN_FORCE: Duration = Duration::from_secs(5);

/// The largest UDP payload that fits a single datagram.
const UDP_MAX: usize = 65507;

/// How many workers to run when the config does not say: one per core,
/// capped — accept sharding stops paying for itself long before 8.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The handle other threads use to reach one worker: connection and
/// event gauges for `METRICS`, the inbox, and the wake pipe.
pub(crate) struct WorkerShared {
    /// Connections this worker currently owns.
    pub(crate) open_connections: AtomicU64,
    /// Readiness events delivered by this worker's last poll.
    pub(crate) pending_events: AtomicU64,
    /// UDP datagrams this worker has answered.
    pub(crate) udp_datagrams: AtomicU64,
    inbox: Mutex<Vec<Delivery>>,
    /// Write end of the worker's self-pipe; `None` only in unit-test
    /// states that never spawn workers.
    wake: Mutex<Option<UnixStream>>,
}

impl WorkerShared {
    pub(crate) fn new(wake: UnixStream) -> WorkerShared {
        WorkerShared {
            open_connections: AtomicU64::new(0),
            pending_events: AtomicU64::new(0),
            udp_datagrams: AtomicU64::new(0),
            inbox: Mutex::new(Vec::new()),
            wake: Mutex::new(Some(wake)),
        }
    }

    /// Pokes the worker out of its poll. A full pipe is fine — the
    /// worker is already awake for the bytes in flight.
    pub(crate) fn wake_up(&self) {
        if let Some(pipe) = &*crate::lock(&self.wake) {
            let _ = (&*pipe).write(&[1]);
        }
    }

    fn deliver(&self, delivery: Delivery) {
        crate::lock(&self.inbox).push(delivery);
        self.wake_up();
    }
}

/// What lands in a worker's inbox.
enum Delivery {
    /// An offloaded `RELOAD` finished: responses for connection
    /// `token`, which is parked `busy` waiting for them.
    Inject {
        token: u64,
        responses: Vec<Response>,
    },
    /// A connection accepted elsewhere, handed to this worker.
    Conn(Handoff),
}

/// A connection in flight between workers.
pub(crate) enum Handoff {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// Everything one worker thread needs; built by `Server::start`.
pub(crate) struct WorkerSetup {
    pub(crate) index: usize,
    pub(crate) shared: Arc<WorkerShared>,
    pub(crate) all: Vec<Arc<WorkerShared>>,
    pub(crate) tcp: Option<TcpListener>,
    pub(crate) unix: Option<UnixListener>,
    pub(crate) udp: Option<UdpSocket>,
    pub(crate) wake_read: UnixStream,
    /// The TCP listener is unsharded (no `SO_REUSEPORT`): round-robin
    /// its accepts across workers like unix-socket connections.
    pub(crate) distribute_tcp: bool,
}

/// Binds `n` `SO_REUSEPORT` TCP listener shards on `addr` (resolving
/// it like `TcpListener::bind` would). Returns the shards, the bound
/// address, and whether sharding worked — on failure the fallback is
/// one plain listener on worker 0 with accepts handed off.
pub(crate) fn bind_tcp(
    addr: &str,
    n: usize,
) -> io::Result<(Vec<Option<TcpListener>>, SocketAddr, bool)> {
    use std::net::ToSocketAddrs;
    let mut last_err = None;
    match addr.to_socket_addrs() {
        Ok(candidates) => {
            for candidate in candidates {
                match pathalias_poll::reuseport_tcp_listener(candidate) {
                    Ok(first) => {
                        let bound = first.local_addr()?;
                        let mut shards = vec![Some(first)];
                        let mut sharded = true;
                        // The remaining shards bind the *resolved*
                        // address: with port 0 requested, they must
                        // share the ephemeral port worker 0 got.
                        for _ in 1..n {
                            match pathalias_poll::reuseport_tcp_listener(bound) {
                                Ok(l) => shards.push(Some(l)),
                                Err(_) => {
                                    sharded = false;
                                    break;
                                }
                            }
                        }
                        shards.resize_with(n, || None);
                        return Ok((shards, bound, sharded));
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(e) => last_err = Some(e),
    }
    match TcpListener::bind(addr) {
        Ok(l) => {
            let bound = l.local_addr()?;
            let mut shards = vec![Some(l)];
            shards.resize_with(n, || None);
            Ok((shards, bound, false))
        }
        Err(e) => Err(last_err.unwrap_or(e)),
    }
}

/// Binds `n` `SO_REUSEPORT` UDP sockets on `addr`; the kernel spreads
/// datagrams across them. Falls back to a single socket on worker 0.
pub(crate) fn bind_udp(addr: &str, n: usize) -> io::Result<(Vec<Option<UdpSocket>>, SocketAddr)> {
    use std::net::ToSocketAddrs;
    let mut last_err = None;
    match addr.to_socket_addrs() {
        Ok(candidates) => {
            for candidate in candidates {
                match pathalias_poll::reuseport_udp_socket(candidate) {
                    Ok(first) => {
                        let bound = first.local_addr()?;
                        let mut socks = vec![Some(first)];
                        for _ in 1..n {
                            match pathalias_poll::reuseport_udp_socket(bound) {
                                Ok(s) => socks.push(Some(s)),
                                Err(_) => break,
                            }
                        }
                        socks.resize_with(n, || None);
                        return Ok((socks, bound));
                    }
                    Err(e) => last_err = Some(e),
                }
            }
        }
        Err(e) => last_err = Some(e),
    }
    match UdpSocket::bind(addr) {
        Ok(s) => {
            let bound = s.local_addr()?;
            let mut socks = vec![Some(s)];
            socks.resize_with(n, || None);
            Ok((socks, bound))
        }
        Err(e) => Err(last_err.unwrap_or(e)),
    }
}

/// Either stream shape behind one nonblocking connection.
enum ConnStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.read(buf),
            ConnStream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ConnStream::Tcp(s) => s.write(buf),
            ConnStream::Unix(s) => s.write(buf),
        }
    }

    fn as_raw_fd(&self) -> RawFd {
        match self {
            ConnStream::Tcp(s) => s.as_raw_fd(),
            ConnStream::Unix(s) => s.as_raw_fd(),
        }
    }

    fn set_nonblocking(&self) -> io::Result<()> {
        match self {
            ConnStream::Tcp(s) => s.set_nonblocking(true),
            ConnStream::Unix(s) => s.set_nonblocking(true),
        }
    }
}

/// One connection's state machine.
struct Conn {
    stream: ConnStream,
    /// Log-correlation id (shared counter with the legacy path).
    id: u64,
    proto: ProtoVersion,
    /// Bytes read but not yet consumed — at most one partial line once
    /// `process_lines` has run.
    inbuf: Vec<u8>,
    /// Rendered responses not yet written; `outpos` marks how far the
    /// socket has taken them.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Close once `outbuf` drains (QUIT/SHUTDOWN answered, or an
    /// overlong line was rejected).
    close_after_flush: bool,
    /// The peer half-closed; serve out the final responses and close.
    read_closed: bool,
    /// An offloaded RELOAD is in flight; buffered lines wait for its
    /// response so pipelined requests keep their order.
    busy: bool,
    last_activity: Instant,
    interest_r: bool,
    interest_w: bool,
}

/// Runs one event-loop worker until shutdown completes. The thread
/// owns its poller, its listener shards, and its connections; other
/// threads reach it only through [`WorkerShared`].
pub(crate) fn run_worker(state: Arc<State>, setup: WorkerSetup) {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            state
                .logger
                .error("event_loop_failed")
                .field("error", &e)
                .emit();
            return;
        }
    };
    let mut worker = Worker {
        state,
        index: setup.index,
        shared: setup.shared,
        all: setup.all,
        poller,
        tcp: setup.tcp,
        unix: setup.unix,
        udp: setup.udp,
        wake_read: setup.wake_read,
        distribute_tcp: setup.distribute_tcp,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        rr: setup.index,
        draining: false,
        drain_started: Instant::now(),
        read_buf: vec![0u8; 16 * 1024],
        udp_buf: vec![0u8; 64 * 1024],
    };
    worker.run();
}

struct Worker {
    state: Arc<State>,
    index: usize,
    shared: Arc<WorkerShared>,
    all: Vec<Arc<WorkerShared>>,
    poller: Poller,
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    udp: Option<UdpSocket>,
    wake_read: UnixStream,
    distribute_tcp: bool,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Round-robin cursor for handing off connections.
    rr: usize,
    draining: bool,
    drain_started: Instant,
    read_buf: Vec<u8>,
    udp_buf: Vec<u8>,
}

impl Worker {
    fn run(&mut self) {
        if self.register_own_fds().is_err() {
            self.state
                .logger
                .error("event_loop_failed")
                .field("error", "registering listeners")
                .emit();
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            let timeout = self.draining.then(|| Duration::from_millis(10));
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                self.state
                    .logger
                    .error("event_loop_failed")
                    .field("error", &e)
                    .emit();
                break;
            }
            self.shared
                .pending_events
                .store(events.len() as u64, Ordering::Relaxed);
            for ev in &events {
                match ev.token {
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    TOKEN_TCP => self.accept_tcp(),
                    TOKEN_UNIX => self.accept_unix(),
                    TOKEN_UDP => self.serve_udp(),
                    token => self.conn_event(token, *ev),
                }
            }
            self.deliver_inbox();
            if self.state.shutting_down() && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                self.drain_tick();
                if self.conns.is_empty() {
                    break;
                }
            }
        }
        let leftovers: Vec<u64> = self.conns.keys().copied().collect();
        for token in leftovers {
            self.close_conn(token);
        }
    }

    fn register_own_fds(&mut self) -> io::Result<()> {
        self.wake_read.set_nonblocking(true)?;
        self.poller
            .register(self.wake_read.as_raw_fd(), TOKEN_WAKE, true, false)?;
        if let Some(l) = &self.tcp {
            l.set_nonblocking(true)?;
            self.poller
                .register(l.as_raw_fd(), TOKEN_TCP, true, false)?;
        }
        if let Some(l) = &self.unix {
            l.set_nonblocking(true)?;
            self.poller
                .register(l.as_raw_fd(), TOKEN_UNIX, true, false)?;
        }
        if let Some(s) = &self.udp {
            s.set_nonblocking(true)?;
            self.poller
                .register(s.as_raw_fd(), TOKEN_UDP, true, false)?;
        }
        Ok(())
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_read).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_tcp(&mut self) {
        loop {
            if self.state.shutting_down() {
                return;
            }
            let accepted = match &self.tcp {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    // One buffered write per request line = one
                    // segment; nodelay keeps the ping-pong stall-free.
                    let _ = stream.set_nodelay(true);
                    if self.distribute_tcp {
                        self.dispatch(Handoff::Tcp(stream));
                    } else {
                        self.install(ConnStream::Tcp(stream));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_unix(&mut self) {
        loop {
            if self.state.shutting_down() {
                return;
            }
            let accepted = match &self.unix {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => self.dispatch(Handoff::Unix(stream)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Spreads a connection accepted on this worker's listener across
    /// the pool, keeping itself in the rotation.
    fn dispatch(&mut self, handoff: Handoff) {
        self.rr = (self.rr + 1) % self.all.len();
        if self.rr == self.index {
            match handoff {
                Handoff::Tcp(s) => self.install(ConnStream::Tcp(s)),
                Handoff::Unix(s) => self.install(ConnStream::Unix(s)),
            }
        } else {
            self.all[self.rr].deliver(Delivery::Conn(handoff));
        }
    }

    /// Takes ownership of a connection: counts it, registers it with
    /// the poller, and starts its state machine.
    fn install(&mut self, stream: ConnStream) {
        if stream.set_nonblocking().is_err() {
            return;
        }
        bump(&self.state.server_metrics.connections);
        bump(&self.state.server_metrics.active_connections);
        self.shared.open_connections.fetch_add(1, Ordering::Relaxed);
        let id = self.state.next_conn_id.fetch_add(1, Ordering::Relaxed);
        self.state
            .logger
            .debug("conn_open")
            .field("conn", id)
            .emit();
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            drop_one(&self.state.server_metrics.active_connections);
            self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.state
                .logger
                .debug("conn_close")
                .field("conn", id)
                .emit();
            return;
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                id,
                proto: ProtoVersion::V1,
                inbuf: Vec::new(),
                outbuf: Vec::new(),
                outpos: 0,
                close_after_flush: false,
                read_closed: false,
                busy: false,
                last_activity: Instant::now(),
                interest_r: true,
                interest_w: false,
            },
        );
    }

    fn conn_event(&mut self, token: u64, ev: PollEvent) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if ev.readable && conn.interest_r && !conn.read_closed {
                match conn.stream.read(&mut self.read_buf) {
                    Ok(0) => {
                        conn.read_closed = true;
                        // A final unterminated line is still a request
                        // — the legacy reader serves it at EOF too.
                        if conn.inbuf.last().is_some_and(|&b| b != b'\n') {
                            conn.inbuf.push(b'\n');
                        }
                        process_lines(&self.state, &self.shared, token, conn);
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        if conn.inbuf.is_empty() && !conn.busy {
                            // Fast path: serve complete lines straight
                            // out of the read buffer; only a trailing
                            // partial line is copied into `inbuf`.
                            let chunk = &self.read_buf[..n];
                            let consumed =
                                process_slice(&self.state, &self.shared, token, conn, chunk);
                            if consumed < n && !conn.close_after_flush {
                                conn.inbuf.extend_from_slice(&chunk[consumed..]);
                            }
                        } else {
                            conn.inbuf.extend_from_slice(&self.read_buf[..n]);
                            process_lines(&self.state, &self.shared, token, conn);
                        }
                    }
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => dead = true,
                }
            } else if ev.hangup {
                // Hung up while we were not reading (parked on a
                // reload, backpressured, or already half-closed):
                // nothing left to deliver to a fully closed peer.
                dead = true;
            }
        }
        if dead {
            self.close_conn(token);
        } else {
            self.settle(token);
        }
    }

    /// Flushes what the socket will take, closes finished connections,
    /// and reconciles poller interest with the connection's state.
    fn settle(&mut self, token: u64) {
        let mut dead = false;
        let mut modify: Option<(RawFd, bool, bool)> = None;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.outbuf.is_empty() && flush_conn(conn).is_err() {
                dead = true;
            }
            if !dead
                && conn.outbuf.is_empty()
                && !conn.busy
                && (conn.close_after_flush || conn.read_closed)
            {
                dead = true;
            }
            if !dead {
                let pending = conn.outbuf.len() - conn.outpos;
                let want_r = !conn.busy
                    && !conn.close_after_flush
                    && !conn.read_closed
                    && pending < BACKPRESSURE;
                let want_w = !conn.outbuf.is_empty();
                if want_r != conn.interest_r || want_w != conn.interest_w {
                    conn.interest_r = want_r;
                    conn.interest_w = want_w;
                    modify = Some((conn.stream.as_raw_fd(), want_r, want_w));
                }
            }
        }
        if let Some((fd, r, w)) = modify {
            if self.poller.modify(fd, token, r, w).is_err() {
                dead = true;
            }
        }
        if dead {
            self.close_conn(token);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            drop_one(&self.state.server_metrics.active_connections);
            self.shared.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.state
                .logger
                .debug("conn_close")
                .field("conn", conn.id)
                .emit();
            // Dropping the stream closes the fd, which deregisters it
            // from the poller.
        }
    }

    fn deliver_inbox(&mut self) {
        let deliveries: Vec<Delivery> = std::mem::take(&mut *crate::lock(&self.shared.inbox));
        for delivery in deliveries {
            match delivery {
                Delivery::Conn(handoff) => {
                    if self.state.shutting_down() {
                        continue; // refused at the door, like the legacy accept loop
                    }
                    match handoff {
                        Handoff::Tcp(s) => self.install(ConnStream::Tcp(s)),
                        Handoff::Unix(s) => self.install(ConnStream::Unix(s)),
                    }
                }
                Delivery::Inject { token, responses } => {
                    let mut found = false;
                    if let Some(conn) = self.conns.get_mut(&token) {
                        found = true;
                        for r in &responses {
                            let _ = writeln!(conn.outbuf, "{r}");
                        }
                        conn.busy = false;
                        conn.last_activity = Instant::now();
                        // Requests pipelined behind the reload waited
                        // in `inbuf`; serve them now, in order.
                        process_lines(&self.state, &self.shared, token, conn);
                    }
                    if found {
                        self.settle(token);
                    }
                }
            }
        }
    }

    /// Answers single-shot requests over UDP: one datagram in, one
    /// datagram out, bounded per readiness event so a datagram flood
    /// cannot starve established connections.
    fn serve_udp(&mut self) {
        for _ in 0..64 {
            let received = match &self.udp {
                Some(sock) => sock.recv_from(&mut self.udp_buf),
                None => return,
            };
            match received {
                Ok((n, peer)) => {
                    self.shared.udp_datagrams.fetch_add(1, Ordering::Relaxed);
                    let reply = udp_respond(&self.state, &self.udp_buf[..n]);
                    if let Some(sock) = &self.udp {
                        let _ = sock.send_to(&reply, peer);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Entering a drain: stop accepting (closing the listeners frees
    /// the port and wakes nobody) and start the idle-release clock.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_started = Instant::now();
        self.tcp = None;
        self.unix = None;
        self.udp = None;
    }

    /// One drain pass: release connections idle past the grace window
    /// (a request in flight, unflushed output, or a parked reload
    /// keeps one alive), then force the stragglers at the deadline.
    fn drain_tick(&mut self) {
        let force = self.drain_started.elapsed() >= DRAIN_FORCE;
        let now = Instant::now();
        let victims: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                force
                    || (!c.busy
                        && c.outbuf.is_empty()
                        && now.duration_since(c.last_activity) >= DRAIN_GRACE)
            })
            .map(|(t, _)| *t)
            .collect();
        for token in victims {
            self.close_conn(token);
        }
    }
}

/// Writes as much of `outbuf` as the socket will take right now.
fn flush_conn(conn: &mut Conn) -> io::Result<()> {
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.outpos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.outpos >= conn.outbuf.len() {
        conn.outbuf.clear();
        conn.outpos = 0;
    }
    Ok(())
}

/// Frames and serves every complete line in `inbuf`, stopping at a
/// partial line, a parked reload, or a pending close.
fn process_lines(state: &Arc<State>, shared: &Arc<WorkerShared>, token: u64, conn: &mut Conn) {
    if conn.inbuf.is_empty() || conn.busy || conn.close_after_flush {
        return;
    }
    // Take the buffer out so lines can be served borrow-free, then put
    // it back (keeping its capacity warm) holding only the leftovers.
    let mut buf = std::mem::take(&mut conn.inbuf);
    let consumed = process_slice(state, shared, token, conn, &buf);
    debug_assert!(conn.inbuf.is_empty(), "handlers only ever clear inbuf");
    if conn.close_after_flush {
        buf.clear();
    } else if consumed > 0 {
        buf.copy_within(consumed.., 0);
        buf.truncate(buf.len() - consumed);
    }
    conn.inbuf = buf;
}

/// Frames and serves every complete line in `buf`, stopping at a
/// partial line, a parked reload, or a pending close. Returns how many
/// bytes were consumed; the caller keeps the tail.
fn process_slice(
    state: &Arc<State>,
    shared: &Arc<WorkerShared>,
    token: u64,
    conn: &mut Conn,
    buf: &[u8],
) -> usize {
    let mut pos = 0;
    while !conn.busy && !conn.close_after_flush {
        match buf[pos..].iter().position(|&b| b == b'\n') {
            // Same cap as the legacy bounded reader: the line's bytes
            // (newline excluded) may reach MAX_LINE, not exceed it.
            Some(i) if i > MAX_LINE => {
                reject_overlong(state, conn);
                return buf.len();
            }
            Some(i) => {
                let line = String::from_utf8_lossy(&buf[pos..pos + i]);
                handle_line(state, shared, token, conn, &line);
                pos += i + 1;
            }
            None if buf.len() - pos > MAX_LINE => {
                reject_overlong(state, conn);
                return buf.len();
            }
            None => break,
        }
    }
    pos
}

/// An overlong request line: reject and close, exactly like the
/// blocking path (no bad-request counter bump — the line never reached
/// the parser).
fn reject_overlong(state: &Arc<State>, conn: &mut Conn) {
    state
        .logger
        .warn("bad_request")
        .field("conn", conn.id)
        .field("reason", "request line too long")
        .emit();
    let _ = writeln!(
        conn.outbuf,
        "{}",
        Response::BadRequest("request line too long".to_string())
    );
    conn.close_after_flush = true;
    conn.inbuf.clear();
}

/// Serves one framed request line on a connection.
fn handle_line(
    state: &Arc<State>,
    shared: &Arc<WorkerShared>,
    token: u64,
    conn: &mut Conn,
    line: &str,
) {
    if line.trim().is_empty() {
        return;
    }
    match parse_request(line.trim_end_matches(['\r', '\n']), conn.proto) {
        Ok(req) => {
            let closing = matches!(req, Request::Quit | Request::Shutdown);
            if let Request::Proto { version } = &req {
                conn.proto = *version;
            }
            match req {
                Request::Reload { map } => reload_offloaded(state, shared, token, conn, map),
                req => {
                    for r in state.respond(req) {
                        let _ = writeln!(conn.outbuf, "{r}");
                    }
                    if closing {
                        conn.close_after_flush = true;
                        conn.inbuf.clear();
                    }
                }
            }
        }
        Err(why) => {
            bump(&state.server_metrics.bad_requests);
            state
                .logger
                .warn("bad_request")
                .field("conn", conn.id)
                .field("reason", &why)
                .emit();
            let _ = writeln!(conn.outbuf, "{}", Response::BadRequest(why));
        }
    }
}

/// `RELOAD` is the one verb that can take seconds: run the rebuild on
/// a throwaway thread and park the connection (`busy`) so the event
/// loop never blocks and pipelined requests keep their order. The
/// refusal checks mirror `State::respond`'s Reload arm byte-for-byte.
fn reload_offloaded(
    state: &Arc<State>,
    shared: &Arc<WorkerShared>,
    token: u64,
    conn: &mut Conn,
    map: Option<String>,
) {
    if state.shutting_down() {
        let _ = writeln!(
            conn.outbuf,
            "{}",
            Response::Failure("reload refused: daemon is shutting down".to_string())
        );
        return;
    }
    let target = match state.map_named(map.as_deref()) {
        Ok(m) => m.clone(),
        Err(resp) => {
            let _ = writeln!(conn.outbuf, "{resp}");
            return;
        }
    };
    conn.busy = true;
    let state = state.clone();
    let shared = shared.clone();
    std::thread::spawn(move || {
        let (response, displaced) = state.reload(&target, map);
        shared.deliver(Delivery::Inject {
            token,
            responses: vec![response],
        });
        drop(displaced);
    });
}

/// The verb name for a refusal message.
fn verb_name(req: &Request) -> &'static str {
    match req {
        Request::Query { .. } => "QUERY",
        Request::MultiQuery { .. } => "MQUERY",
        Request::Path { .. } => "PATH",
        Request::Proto { .. } => "PROTO",
        Request::Stats { .. } => "STATS",
        Request::Health { .. } => "HEALTH",
        Request::Reload { .. } => "RELOAD",
        Request::Maps => "MAPS",
        Request::Metrics { .. } => "METRICS",
        Request::SlowLog { .. } => "SLOWLOG",
        Request::Shutdown => "SHUTDOWN",
        Request::Quit => "QUIT",
    }
}

/// Serves one request datagram: the first line is the request (always
/// protocol v2 — there is no session to negotiate on), the reply is
/// one datagram. Verbs that answer more than one line, mutate daemon
/// state, or manage a session have no datagram shape and are refused.
pub(crate) fn udp_respond(state: &Arc<State>, datagram: &[u8]) -> Vec<u8> {
    let line = match datagram.iter().position(|&b| b == b'\n') {
        Some(i) => &datagram[..i],
        None => datagram,
    };
    let response = if line.len() > MAX_LINE {
        state
            .logger
            .warn("bad_request")
            .field("transport", "udp")
            .field("reason", "request line too long")
            .emit();
        Response::BadRequest("request line too long".to_string())
    } else {
        let text = String::from_utf8_lossy(line).into_owned();
        match parse_request(text.trim_end_matches(['\r', '\n']), ProtoVersion::V2) {
            Ok(req) => match req {
                Request::Query { .. }
                | Request::Path { .. }
                | Request::Health { .. }
                | Request::Stats { .. }
                | Request::Maps => {
                    let mut responses = state.respond(req);
                    debug_assert_eq!(responses.len(), 1, "single-datagram verbs answer one line");
                    responses
                        .pop()
                        .unwrap_or_else(|| Response::Failure("empty response".to_string()))
                }
                refused => {
                    Response::BadRequest(format!("{} unavailable over udp", verb_name(&refused)))
                }
            },
            Err(why) => {
                bump(&state.server_metrics.bad_requests);
                state
                    .logger
                    .warn("bad_request")
                    .field("transport", "udp")
                    .field("reason", &why)
                    .emit();
                Response::BadRequest(why)
            }
        }
    };
    let bytes = format!("{response}\n").into_bytes();
    if bytes.len() > UDP_MAX {
        return b"500 response too large for udp\n".to_vec();
    }
    bytes
}
