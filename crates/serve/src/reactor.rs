//! The event-driven front end: one thread, every connection, any codec.
//!
//! The reactor multiplexes thousands of nonblocking `TcpStream`s over the
//! readiness loop in [`crate::sys`] (epoll on Linux, a portable sweep
//! elsewhere). Each connection is a small state machine owning its read
//! buffer, its write queue (responses wait here, never on a worker), and a
//! count of in-flight pool jobs. The worker pool stays the execution tier:
//! the reactor hands each framed request to its [`Codec`], and workers hand
//! finished replies back through a completion queue plus a wake pipe —
//! the only two points where the two tiers touch.
//!
//! ```text
//!  sockets ──readiness──► reactor ──Codec::frame──► Codec::handle ──admit──► pool
//!     ▲                      ▲                     (inline replies go        │
//!     │                      │                      straight to the queue)   │
//!     └──────write queues────┴──── completion queue + wake pipe ◄───────────┘
//! ```
//!
//! Everything that differs between front ends sits behind [`Codec`]:
//! framing, per-connection codec state, dispatch, rendering, and how many
//! requests one connection may have in flight. `lca-serve` runs the
//! newline-JSON codec ([`crate::server::Server`]); `lca-gateway` runs an
//! HTTP/1.1 codec over the same loop.
//!
//! Invariants the tests lean on:
//!
//! * **No worker ever blocks on a socket.** Delivery is a queue push plus
//!   a wake; a stalled client just grows its own write queue (bounded —
//!   past `MAX_WRITE_BUFFER` the connection is dropped).
//! * **One response per request**, whether inline or deferred, until the
//!   peer goes away. A peer that half-closes still gets every request it
//!   sent before its EOF answered, and costs no CPU while it waits: read
//!   interest is dropped at EOF, so the level-triggered poller stops
//!   reporting it.
//! * **Drain flushes.** After a shutdown request the reactor stops
//!   accepting, keeps servicing readiness until every admitted job has
//!   delivered and every write queue is empty, then closes and returns.

#![warn(clippy::unwrap_used)]
use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::metrics::GlobalMetrics;
use crate::sys::{self, Event, Poller, Waker};

/// Registration token of the listener (connection tokens never reach it:
/// they encode a slab index in the low 32 bits and a generation above).
const LISTENER_TOKEN: u64 = u64::MAX - 1;

/// A connection whose write queue exceeds this is not reading its
/// responses; it is dropped rather than allowed to hold server memory
/// hostage (the bounded-everything rule, applied to the write side).
const MAX_WRITE_BUFFER: usize = 16 << 20;

/// How long one `wait` may block: the upper bound on drain-progress and
/// lost-wake recovery latency, not on response latency (completions wake
/// the poller immediately).
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// How long a drain keeps waiting for stalled connections to accept their
/// pending responses. A client that reads gets every byte well inside
/// this; one that has stopped reading (or silently vanished — a TCP
/// half-open never becomes writable) would otherwise pin the drain loop
/// forever. Past the grace period its connection is dropped so shutdown
/// always terminates.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// One front end's wire format and request handling: everything the
/// reactor does not share between front ends.
pub trait Codec {
    /// Requests one connection may have in flight at once. Once a
    /// connection reaches it, framing pauses (later bytes wait in the read
    /// buffer) until a reply delivers. `usize::MAX` when clients match
    /// replies by id; 1 keeps replies in request order.
    const MAX_IN_FLIGHT: usize;
    /// A connection buffering more unframed bytes than this is dropped
    /// without an answer — no legitimate request is that large.
    const MAX_BUFFERED: usize;
    /// Per-connection framing state (a scan cursor, say).
    type State: Default;
    /// One framed request.
    type Request;
    /// One reply, produced inline or on a worker; rendered to bytes on the
    /// reactor thread.
    type Reply: Send + 'static;

    /// The counters the reactor keeps: connection gauges, wakes,
    /// completions, write syscalls, responses and bytes written.
    fn metrics(&self) -> &GlobalMetrics;

    /// `true` once a drain has begun: accepting stops and the reactor
    /// returns when every connection owes nothing.
    fn draining(&self) -> bool;

    /// Frames one request off the front of `buf`, removing its bytes.
    /// `eof` says the peer will send nothing more.
    fn frame(&self, state: &mut Self::State, buf: &mut Vec<u8>, eof: bool)
        -> Framed<Self::Request>;

    /// Answers `request` inline, or admits it to a worker that answers
    /// through `reply` ([`Dispatch::Deferred`] — exactly one send).
    fn handle(
        self: &Arc<Self>,
        request: Self::Request,
        reply: ReplyTo<Self::Reply>,
    ) -> Dispatch<Self::Reply>;

    /// Renders `reply` as one wire unit.
    fn render(&self, reply: &Self::Reply) -> Vec<u8>;
}

/// What one [`Codec::frame`] attempt produced.
pub enum Framed<R> {
    /// One complete request; its bytes are gone from the buffer.
    Request(R),
    /// The buffer holds no complete request yet.
    Incomplete,
    /// The stream cannot be framed past this point: send these bytes, then
    /// close the connection once they have flushed.
    Reject(Vec<u8>),
}

/// What one [`Codec::handle`] call did with its request.
pub enum Dispatch<R> {
    /// Answered on the reactor thread.
    Inline(R),
    /// Admitted to a worker, which sends the reply through [`ReplyTo`].
    Deferred,
    /// Nothing is owed (an empty line).
    Ignored,
}

/// A worker's handle for delivering one deferred reply to its connection.
pub struct ReplyTo<R> {
    completions: Arc<Completions<R>>,
    token: u64,
}

impl<R> ReplyTo<R> {
    /// Parks `reply` for the reactor and wakes it; never blocks on I/O.
    pub fn send(self, reply: R) {
        self.completions.push(self.token, reply);
    }
}

/// Worker→reactor handoff: finished replies parked until the reactor
/// stages them into per-connection write queues.
///
/// Wakes are **coalesced**: a push only writes the wake pipe when the
/// queue transitions empty → nonempty. While the queue is nonempty a wake
/// is already in flight (the reactor drains the whole queue per wake), so
/// concurrent completions ride the pending wake instead of issuing one
/// `write(2)` each — under fan-in load many responses land per reactor
/// wakeup, which is exactly what the `reactor_wakeups`-per-response ratio
/// in `stats` witnesses (well below 1.0 when batching works).
struct Completions<R> {
    queue: Mutex<Vec<(u64, R)>>,
    waker: Waker,
    /// Wake-pipe writes actually issued (tests pin the coalescing here).
    wakes_issued: std::sync::atomic::AtomicU64,
}

impl<R> Completions<R> {
    fn push(&self, token: u64, reply: R) {
        let was_empty = {
            // lint:allow(panic) — poisoned queue means a worker already panicked; propagate
            let mut queue = self.queue.lock().expect("completion queue poisoned");
            let was_empty = queue.is_empty();
            queue.push((token, reply));
            was_empty
        };
        if was_empty {
            self.wakes_issued.fetch_add(1, Ordering::Relaxed);
            self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<(u64, R)> {
        // lint:allow(panic) — poisoned queue means a worker already panicked; propagate
        std::mem::take(&mut *self.queue.lock().expect("completion queue poisoned"))
    }
}

/// One connection's state machine.
struct Conn<S> {
    stream: TcpStream,
    /// Bytes read but not yet framed into a complete request.
    read_buf: Vec<u8>,
    /// Rendered wire units awaiting socket space, oldest first. Kept as
    /// separate buffers so a flush can gather many of them into one
    /// `writev` without copying.
    write_queue: VecDeque<Vec<u8>>,
    /// Bytes of the front `write_queue` entry already accepted by the
    /// kernel (a previous short write stopped mid-unit).
    write_head: usize,
    /// Unsent bytes across the whole queue (`write_queue` total minus
    /// `write_head`) — the buffer-cap and "owes nothing" bookkeeping.
    queued_bytes: usize,
    /// The codec's per-connection state.
    state: S,
    /// Pool jobs admitted for this connection whose replies have not yet
    /// been delivered to `write_queue`.
    pending: usize,
    /// The peer half-closed its write side (EOF seen); we still answer
    /// what it sent and flush what we owe, then close.
    peer_closed: bool,
    /// Close once the write queue flushes (after a framing rejection).
    close_after_flush: bool,
    /// The poller's current interest in this fd, as (read, write). Read
    /// interest ends at EOF; write interest lasts while bytes are queued.
    interest: (bool, bool),
}

impl<S> Conn<S> {
    fn enqueue(&mut self, unit: Vec<u8>) {
        self.queued_bytes += unit.len();
        self.write_queue.push_back(unit);
    }
}

/// Consumes `written` bytes off the front of a connection's write queue,
/// popping fully-sent units and leaving `head` at the partial-write point
/// inside the new front unit. Exact by construction: it advances by
/// precisely what the syscall reported, which is what keeps
/// `bytes_written` (and retry offsets) truthful under short writes.
fn advance_write_queue(queue: &mut VecDeque<Vec<u8>>, head: &mut usize, mut written: usize) {
    while written > 0 {
        let Some(front) = queue.front() else {
            return; // kernel can't accept more than we gathered
        };
        let remaining = front.len() - *head;
        if written >= remaining {
            written -= remaining;
            queue.pop_front();
            *head = 0;
        } else {
            *head += written;
            written = 0;
        }
    }
}

struct Slot<S> {
    gen: u32,
    conn: Option<Conn<S>>,
}

fn token_of(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & u32::MAX as u64) as usize, (token >> 32) as u32)
}

/// The reactor; see the module docs. Run with [`Reactor::run`].
pub struct Reactor<C: Codec> {
    codec: Arc<C>,
    poller: Poller,
    listener: Option<TcpListener>,
    completions: Arc<Completions<C::Reply>>,
    slots: Vec<Slot<C::State>>,
    free: Vec<usize>,
    /// Pool jobs admitted and not yet completed, across all connections
    /// (including ones whose connection died while the job ran).
    in_flight: usize,
    /// Open connections (slab occupancy).
    open: usize,
    /// When the drain began (first loop iteration that observed the flag);
    /// stalled connections are force-closed [`DRAIN_GRACE`] after this.
    drain_started: Option<std::time::Instant>,
}

impl<C: Codec> Reactor<C> {
    /// Builds a reactor around a bound listener (made nonblocking and
    /// registered here). Split from [`Reactor::run`] so tests can drive
    /// the pieces — accept, completion delivery, flush — by hand.
    pub(crate) fn new(codec: Arc<C>, listener: TcpListener) -> io::Result<Reactor<C>> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN)?;
        let completions = Arc::new(Completions {
            queue: Mutex::new(Vec::new()),
            waker: poller.waker(),
            wakes_issued: std::sync::atomic::AtomicU64::new(0),
        });
        Ok(Reactor {
            codec,
            poller,
            listener: Some(listener),
            completions,
            slots: Vec::new(),
            free: Vec::new(),
            in_flight: 0,
            open: 0,
            drain_started: None,
        })
    }

    /// Serves `listener` with `codec` until a drain completes. The
    /// listener is consumed; the caller shuts its worker pool down.
    pub fn run(codec: Arc<C>, listener: TcpListener) -> io::Result<()> {
        let mut reactor = Reactor::new(codec, listener)?;
        let result = reactor.event_loop();
        // Whatever remains (error paths): close sockets before returning so
        // clients see EOF rather than a dead peer.
        for idx in 0..reactor.slots.len() {
            reactor.close_conn(idx);
        }
        result
    }

    fn metrics(&self) -> &GlobalMetrics {
        self.codec.metrics()
    }

    fn event_loop(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let woken = self.poller.wait(&mut events, WAIT_TIMEOUT)?;
            if woken {
                self.metrics()
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Deliver finished replies first so this iteration's write
            // readiness can flush them immediately.
            self.deliver_completions();
            // `events` is a local buffer, disjoint from `self`, so the
            // loop body can mutate the reactor freely.
            for &ev in &events {
                if ev.token == LISTENER_TOKEN {
                    if ev.readable {
                        self.accept_ready();
                    }
                } else {
                    self.conn_ready(ev);
                }
            }
            // Completions that landed while we processed events go out now
            // instead of waiting for the wake to be observed next
            // iteration — one drain's worth of latency saved per loop.
            self.deliver_completions();
            if self.codec.draining() {
                self.stop_accepting();
                let drain_started = *self
                    .drain_started
                    .get_or_insert_with(std::time::Instant::now);
                // Close every connection that owes nothing; past the grace
                // period, also ones whose replies are all *delivered* but
                // sit unread in the write queue (a peer that stopped
                // reading, or a half-open that will never become writable,
                // must not pin the drain forever). A connection still
                // waiting on an in-flight job is never abandoned — its
                // job finishes, delivery flushes what the socket accepts,
                // and the next iteration applies this same rule. Exit once
                // all are gone and no admitted job is still running.
                let grace_expired = drain_started.elapsed() >= DRAIN_GRACE;
                for idx in 0..self.slots.len() {
                    let done = matches!(
                        self.conn_ref(idx),
                        Some(c) if c.pending == 0 && (grace_expired || c.queued_bytes == 0)
                    );
                    if done {
                        self.close_conn(idx);
                    }
                }
                if self.open == 0 && self.in_flight == 0 {
                    return Ok(());
                }
            }
        }
    }

    fn stop_accepting(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd(), LISTENER_TOKEN);
            // Dropping closes the socket: new connects are refused, which
            // is the drain contract.
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.codec.draining() {
                        continue; // accepted in the race window: just close
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Transient accept failures (EMFILE, aborted handshake):
                    // yield briefly so a level-triggered listener event
                    // cannot spin the loop hot, then let the next readiness
                    // retry.
                    std::thread::sleep(Duration::from_millis(1));
                    return;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        // Responses are small: Nagle would hold each one back ~40ms
        // against the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot { gen: 0, conn: None });
                self.slots.len() - 1
            }
        };
        let Some(token) = self.token_at(idx) else {
            return;
        };
        if self.poller.register(stream.as_raw_fd(), token).is_err() {
            self.free.push(idx);
            return;
        }
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        slot.conn = Some(Conn {
            stream,
            read_buf: Vec::new(),
            write_queue: VecDeque::new(),
            write_head: 0,
            queued_bytes: 0,
            state: C::State::default(),
            pending: 0,
            peer_closed: false,
            close_after_flush: false,
            interest: (true, false),
        });
        self.open += 1;
        let metrics = self.metrics();
        metrics.connections.fetch_add(1, Ordering::Relaxed);
        metrics.connections_open.fetch_add(1, Ordering::Relaxed);
        // The gauges feed the stats snapshot; invalidate the cached render.
        metrics.mark_mutation();
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let token = token_of(idx, slot.gen);
        let Some(conn) = slot.conn.take() else {
            return;
        };
        slot.gen = slot.gen.wrapping_add(1);
        let _ = self.poller.deregister(conn.stream.as_raw_fd(), token);
        self.free.push(idx);
        self.open -= 1;
        let metrics = self.metrics();
        metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
        metrics.mark_mutation();
        // `conn.stream` drops here, closing the socket. Any still-running
        // job for this connection delivers into the completion queue and is
        // discarded there (stale generation).
    }

    /// Looks up a live connection by token, ignoring stale generations
    /// (a completion racing a close).
    fn live(&self, token: u64) -> Option<usize> {
        let (idx, gen) = split_token(token);
        match self.slots.get(idx) {
            Some(slot) if slot.gen == gen && slot.conn.is_some() => Some(idx),
            _ => None,
        }
    }

    /// The live connection at `idx`, if any — an already-closed slot (a
    /// dispatch or flush raced a close) is `None`, never a panic.
    fn conn_ref(&self, idx: usize) -> Option<&Conn<C::State>> {
        self.slots.get(idx).and_then(|slot| slot.conn.as_ref())
    }

    /// Mutable variant of [`Reactor::conn_ref`].
    fn conn_mut(&mut self, idx: usize) -> Option<&mut Conn<C::State>> {
        self.slots.get_mut(idx).and_then(|slot| slot.conn.as_mut())
    }

    /// The poll token currently naming `idx`, if the slot exists.
    fn token_at(&self, idx: usize) -> Option<u64> {
        self.slots.get(idx).map(|slot| token_of(idx, slot.gen))
    }

    /// Renders `reply` and queues it.
    fn stage(&mut self, idx: usize, reply: &C::Reply) {
        let Some(conn) = self.slots.get_mut(idx).and_then(|s| s.conn.as_mut()) else {
            return;
        };
        conn.enqueue(self.codec.render(reply));
        self.metrics().responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains the whole completion queue in one pass: every reply is
    /// staged into its connection's write queue first, then each touched
    /// connection is flushed exactly once — N completions for one
    /// connection cost one `writev`, not N `write`s.
    fn deliver_completions(&mut self) {
        let batch = self.completions.drain();
        if batch.is_empty() {
            return;
        }
        self.metrics()
            .completions_delivered
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let mut touched: Vec<usize> = Vec::with_capacity(batch.len());
        for (token, reply) in batch {
            self.in_flight -= 1;
            let Some(idx) = self.live(token) else {
                continue;
            };
            let Some(conn) = self.conn_mut(idx) else {
                continue;
            };
            conn.pending -= 1;
            self.stage(idx, &reply);
            touched.push(idx);
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            // A connection paused at its in-flight limit frames what it
            // buffered meanwhile, so those replies join this flush.
            if matches!(self.conn_ref(idx), Some(c) if !c.read_buf.is_empty()) {
                self.process_buffer(idx);
            }
            // Both are no-ops on a slot something above closed.
            self.flush_conn(idx);
            self.maybe_close_finished(idx);
        }
    }

    fn conn_ready(&mut self, ev: Event) {
        let Some(idx) = self.live(ev.token) else {
            return;
        };
        let peer_closed = matches!(self.conn_ref(idx), Some(c) if c.peer_closed);
        if ev.hangup && peer_closed {
            // Read interest is off after EOF, so an error or hang-up is the
            // only news the poller brings: no reply can reach this peer.
            self.close_conn(idx);
            return;
        }
        // After EOF a read could only see EOF again (the sweep backend
        // reports every token readable on every wake).
        if ev.readable && !peer_closed {
            self.read_ready(idx);
        }
        if ev.writable && self.conn_ref(idx).is_some() {
            self.flush_conn(idx);
            self.maybe_close_finished(idx);
        }
    }

    /// Reads whatever the socket has, framing and dispatching requests
    /// after each chunk so the read buffer only ever holds one partial
    /// request (plus whatever a connection at its in-flight limit has
    /// buffered). Inline replies pile up in the write queue and are
    /// flushed together at the end, so a pipelined burst of K requests
    /// costs one gather-write, not K writes.
    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let Some(conn) = self.conn_mut(idx) else {
                return;
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_closed = true;
                    self.process_buffer(idx);
                    break;
                }
                Ok(k) => {
                    conn.read_buf
                        .extend_from_slice(chunk.get(..k).unwrap_or(&[]));
                    if conn.read_buf.len() > C::MAX_BUFFERED {
                        self.close_conn(idx);
                        return;
                    }
                    self.process_buffer(idx);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        // One coalesced flush for everything this readiness event staged;
        // it also drops read interest if the peer just sent EOF.
        self.flush_conn(idx);
        self.maybe_close_finished(idx);
    }

    /// Frames and dispatches buffered requests until the buffer holds no
    /// complete request, the connection reaches its in-flight limit, or it
    /// dies.
    fn process_buffer(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.slots.get_mut(idx).and_then(|s| s.conn.as_mut()) else {
                return;
            };
            if conn.pending >= C::MAX_IN_FLIGHT || conn.close_after_flush {
                return;
            }
            match self
                .codec
                .frame(&mut conn.state, &mut conn.read_buf, conn.peer_closed)
            {
                Framed::Incomplete => return,
                Framed::Reject(unit) => {
                    conn.enqueue(unit);
                    conn.close_after_flush = true;
                    self.metrics().responses.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Framed::Request(request) => self.dispatch(idx, request),
            }
            match self.conn_ref(idx) {
                None => return,
                // A pipelined flood must not stage unboundedly between
                // flushes: shed pressure mid-batch.
                Some(c) if c.queued_bytes > MAX_WRITE_BUFFER => self.flush_conn(idx),
                Some(_) => {}
            }
        }
    }

    fn dispatch(&mut self, idx: usize, request: C::Request) {
        let Some(token) = self.token_at(idx) else {
            return;
        };
        let reply = ReplyTo {
            completions: self.completions.clone(),
            token,
        };
        match C::handle(&self.codec, request, reply) {
            Dispatch::Inline(reply) => self.stage(idx, &reply),
            Dispatch::Deferred => {
                // Count in_flight unconditionally: the job was handed to the
                // pool and its completion will be drained either way.
                self.in_flight += 1;
                if let Some(conn) = self.conn_mut(idx) {
                    conn.pending += 1;
                }
            }
            Dispatch::Ignored => {}
        }
    }

    /// Writes as much of the connection's queue as the socket accepts —
    /// gathering up to [`sys::MAX_IOVECS`] queued units per `writev` —
    /// brings the poller's interest up to date (read until EOF, write
    /// while bytes are queued), enforces the buffer cap, and closes a
    /// rejected connection once its last bytes are out.
    ///
    /// Accounting is exact per syscall: `bytes_written` grows by precisely
    /// the syscall's return value and the queue advances by the same
    /// amount, so short writes never over- or under-report.
    fn flush_conn(&mut self, idx: usize) {
        let metrics = self.codec.metrics();
        let mut close = false;
        let mut interest = None;
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        let gen = slot.gen;
        let Some(conn) = slot.conn.as_mut() else {
            return;
        };
        while conn.queued_bytes > 0 {
            let mut bufs: Vec<&[u8]> =
                Vec::with_capacity(conn.write_queue.len().min(sys::MAX_IOVECS));
            let mut gathered = 0usize;
            let mut units = conn.write_queue.iter();
            let Some(front) = units.next() else {
                break; // queued_bytes drifted from an empty queue: bail
            };
            let head = front.get(conn.write_head..).unwrap_or(&[]);
            bufs.push(head);
            gathered += head.len();
            for unit in units.take(sys::MAX_IOVECS - 1) {
                bufs.push(unit);
                gathered += unit.len();
            }
            metrics.write_syscalls.fetch_add(1, Ordering::Relaxed);
            match sys::write_vectored(&conn.stream, &bufs) {
                Ok(0) => {
                    close = true;
                    break;
                }
                Ok(k) => {
                    metrics.bytes_written.fetch_add(k as u64, Ordering::Relaxed);
                    advance_write_queue(&mut conn.write_queue, &mut conn.write_head, k);
                    conn.queued_bytes -= k;
                    if k < gathered {
                        // Short write: the socket buffer is full; retrying
                        // now would only earn a WouldBlock.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    close = true;
                    break;
                }
            }
        }
        if conn.queued_bytes > MAX_WRITE_BUFFER {
            // The peer has stopped reading; it forfeits the connection.
            close = true;
        }
        if conn.close_after_flush && conn.queued_bytes == 0 {
            close = true;
        }
        if !close {
            let wanted = (!conn.peer_closed, conn.queued_bytes > 0);
            if wanted != conn.interest {
                conn.interest = wanted;
                interest = Some((conn.stream.as_raw_fd(), wanted));
            }
        }
        if close {
            self.close_conn(idx);
            return;
        }
        if let Some((fd, (readable, writable))) = interest {
            let _ = self
                .poller
                .set_interest(fd, token_of(idx, gen), readable, writable);
        }
    }

    /// Closes a connection whose peer is gone and which owes nothing more.
    /// Callers run it only after [`Reactor::process_buffer`] has had room
    /// to frame, so "nothing in flight" also means no complete request is
    /// left in the read buffer.
    fn maybe_close_finished(&mut self, idx: usize) {
        let done = matches!(
            self.conn_ref(idx),
            Some(c) if c.peer_closed && c.pending == 0 && c.queued_bytes == 0
        );
        if done {
            self.close_conn(idx);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap IS the assertion
mod tests {
    use super::*;
    use crate::proto::Response;
    use crate::server::Server;

    #[test]
    fn completion_pushes_coalesce_into_one_wake() {
        let poller = Poller::new().expect("poller");
        let completions = Completions {
            queue: Mutex::new(Vec::new()),
            waker: poller.waker(),
            wakes_issued: std::sync::atomic::AtomicU64::new(0),
        };
        // Ten completions land while the reactor is busy: only the first
        // (empty → nonempty) may write the wake pipe.
        for i in 0..10 {
            completions.push(i, Response::Ok { draining: false });
        }
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 1);
        assert_eq!(completions.drain().len(), 10);
        // Once drained the next push must wake again — coalescing never
        // loses the transition.
        completions.push(11, Response::Ok { draining: false });
        assert_eq!(completions.wakes_issued.load(Ordering::Relaxed), 2);
        assert_eq!(completions.drain().len(), 1);
    }

    #[test]
    fn tokens_round_trip_and_generations_differ() {
        for (idx, gen) in [(0usize, 0u32), (7, 3), (u32::MAX as usize, u32::MAX)] {
            let t = token_of(idx, gen);
            assert_eq!(split_token(t), (idx, gen));
            assert_ne!(t, LISTENER_TOKEN);
        }
        assert_ne!(token_of(5, 1), token_of(5, 2), "reuse is distinguishable");
    }

    #[test]
    fn advance_write_queue_is_exact_under_short_writes() {
        let mut queue: VecDeque<Vec<u8>> = [b"aaaa".to_vec(), b"bb".to_vec(), b"cccccc".to_vec()]
            .into_iter()
            .collect();
        let mut head = 0usize;
        // A short write that ends mid-second-unit.
        advance_write_queue(&mut queue, &mut head, 5);
        assert_eq!(queue.len(), 2);
        assert_eq!(head, 1);
        // Zero progress is a no-op.
        advance_write_queue(&mut queue, &mut head, 0);
        assert_eq!((queue.len(), head), (2, 1));
        // Finishing the partial unit exactly resets the head.
        advance_write_queue(&mut queue, &mut head, 1);
        assert_eq!((queue.len(), head), (1, 0));
        // Consuming everything empties the queue.
        advance_write_queue(&mut queue, &mut head, 6);
        assert!(queue.is_empty());
        assert_eq!(head, 0);
    }

    /// The batch-drain path: N completions land while the reactor is
    /// stalled — exactly one wake is issued, and the next drain delivers
    /// all N responses through exactly one write syscall.
    #[test]
    fn stalled_burst_costs_one_wake_and_one_write_syscall() {
        use crate::server::ServerConfig;
        use std::io::BufRead as _;

        let server = Server::new(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut reactor = Reactor::new(server.clone(), listener).expect("reactor");

        // Connect a client and accept it without running the event loop —
        // the "stalled reactor" half of the scenario.
        let client = std::net::TcpStream::connect(addr).expect("connect");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while reactor.open == 0 {
            reactor.accept_ready();
            assert!(std::time::Instant::now() < deadline, "accept never landed");
        }
        let token = token_of(0, reactor.slots[0].gen);

        // A burst of N completions with no drain in between: only the
        // empty→nonempty transition may write the wake pipe.
        const N: usize = 10;
        reactor.slots[0].conn.as_mut().expect("conn").pending = N;
        reactor.in_flight = N;
        for i in 0..N {
            reactor.completions.push(
                token,
                Response::Answer {
                    id: Some(i as u64),
                    session: "burst".into(),
                    answer: true,
                    probes: 1,
                    micros: 1,
                },
            );
        }
        assert_eq!(
            reactor.completions.wakes_issued.load(Ordering::Relaxed),
            1,
            "burst must coalesce into one wake"
        );

        // One drain delivers all N and coalesces them into one writev.
        reactor.deliver_completions();
        let g = &server.global;
        assert_eq!(g.completions_delivered.load(Ordering::Relaxed), N as u64);
        assert_eq!(g.responses.load(Ordering::Relaxed), N as u64);
        assert_eq!(
            g.write_syscalls.load(Ordering::Relaxed),
            1,
            "N responses for one connection must flush as one gather-write"
        );
        assert_eq!(reactor.in_flight, 0);
        assert_eq!(reactor.slots[0].conn.as_ref().expect("conn").pending, 0);

        // The client sees all N responses, in completion order.
        let mut reader = std::io::BufReader::new(client);
        let mut total_bytes = 0u64;
        for i in 0..N {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response");
            total_bytes += line.len() as u64;
            assert!(line.contains(&format!("\"id\":{i}")), "{line}");
        }
        assert_eq!(
            g.bytes_written.load(Ordering::Relaxed),
            total_bytes,
            "bytes_written matches what actually crossed the socket"
        );
        server.pool.shutdown();
    }
}
