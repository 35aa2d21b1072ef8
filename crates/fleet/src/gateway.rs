//! The HTTP front end: the HTTP/1.1 codec for `lca_serve`'s reactor.
//!
//! The event loop is [`lca_serve::reactor::Reactor`], the same one
//! `lca-serve` runs; this module supplies what differs — HTTP framing
//! ([`crate::http`]), the route table, and work that is a fleet round trip
//! ([`crate::router::Fleet`]) on a pool worker instead of a local query.
//!
//! **Responses stay in request order.** HTTP/1.1 pipelining requires it,
//! so each connection has at most one request in flight: while a deferred
//! request runs, later pipelined bytes wait in the read buffer until its
//! response delivers. Concurrency comes from many connections, not from
//! reordering one connection's requests (the load generator's open-loop
//! mode drives one pipelined connection per sender thread and relies on
//! exactly this ordering).

#![warn(clippy::unwrap_used)]
use std::io;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use lca_serve::metrics::{reactor_stats_fields, GlobalMetrics};
use lca_serve::pool::{RejectReason, WorkerPool};
use lca_serve::reactor::{Codec, Dispatch, Framed, Reactor, ReplyTo};
use serde::Json;

use crate::http::{self, HttpRequest, ParseOutcome};
use crate::router::{Fleet, FleetReply};

/// Sizing knobs for a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Worker threads doing backend round trips (default: available
    /// parallelism). Each in-flight HTTP request occupies one worker for
    /// the duration of its backend round trip, so this also bounds the
    /// gateway's concurrent demand on the fleet.
    pub workers: usize,
    /// Admission-queue bound; requests beyond it are answered `429
    /// overloaded` (default 1024).
    pub queue_capacity: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 1024,
        }
    }
}

/// The gateway: the fleet router plus the worker pool that executes its
/// round trips, shared between the reactor thread and HTTP handlers.
pub struct Gateway {
    fleet: Arc<Fleet>,
    pool: WorkerPool,
    draining: AtomicBool,
    /// The reactor's counters (only its connection and write-path fields
    /// move here), reported as the `gateway` block of `GET /v1/stats`.
    metrics: GlobalMetrics,
}

impl Gateway {
    /// Builds a gateway over `fleet` (spawns its worker pool immediately).
    pub fn new(fleet: Fleet, config: GatewayConfig) -> Arc<Gateway> {
        Arc::new(Gateway {
            fleet: Arc::new(fleet),
            pool: WorkerPool::new(config.workers, config.queue_capacity),
            draining: AtomicBool::new(false),
            metrics: GlobalMetrics::default(),
        })
    }

    /// The fleet this gateway routes over.
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// `true` once a `POST /v1/shutdown` has been accepted.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// HTTP responses sent so far (any status).
    pub fn requests_served(&self) -> u64 {
        self.metrics.responses.load(Ordering::Relaxed)
    }

    /// Serves HTTP on `listener` until a shutdown request drains the
    /// gateway. One reactor thread owns every socket; pool workers own
    /// every backend round trip.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let result = Reactor::run(self.clone(), listener);
        self.pool.shutdown();
        result
    }

    /// The `GET /v1/stats` reply: the fleet rollup plus this gateway's
    /// own reactor counters.
    fn stats(&self) -> FleetReply {
        let mut fields = self.fleet.rollup();
        fields.insert(
            1,
            (
                "gateway".to_owned(),
                Json::Obj(reactor_stats_fields(&self.metrics)),
            ),
        );
        let mut body = String::new();
        Json::Obj(fields).render(&mut body);
        FleetReply { status: 200, body }
    }

    /// Admits `job` to the worker pool; its reply comes back through
    /// `reply`. Pool-full answers the typed `overloaded` error inline — the
    /// same admission control the backends apply, enforced again at the
    /// HTTP tier.
    fn defer(
        self: &Arc<Self>,
        reply: ReplyTo<FleetReply>,
        job: impl FnOnce(&Gateway) -> FleetReply + Send + 'static,
    ) -> Dispatch<FleetReply> {
        let gateway = self.clone();
        match self.pool.try_execute(move || reply.send(job(&gateway))) {
            Ok(()) => Dispatch::Deferred,
            Err(reject) => {
                let (status, code) = match reject {
                    RejectReason::Full => (429, "overloaded"),
                    RejectReason::ShuttingDown => (503, "draining"),
                };
                let body = format!(r#"{{"error":"{code}","message":"gateway admission queue"}}"#);
                Dispatch::Inline(FleetReply { status, body })
            }
        }
    }
}

fn bad_request(status: u16, message: &str) -> FleetReply {
    FleetReply {
        status,
        body: format!(r#"{{"error":"bad-request","message":"{message}"}}"#),
    }
}

/// The HTTP/1.1 codec: `Content-Length` framing with a resumable head
/// scan, one request in flight per connection.
impl Codec for Gateway {
    const MAX_IN_FLIGHT: usize = 1;
    const MAX_BUFFERED: usize = http::MAX_HEAD + http::MAX_BODY;
    /// How far into the read buffer the head scan has already looked
    /// ([`http::try_parse`]'s resume cursor).
    type State = usize;
    type Request = HttpRequest;
    type Reply = FleetReply;

    fn metrics(&self) -> &GlobalMetrics {
        &self.metrics
    }

    fn draining(&self) -> bool {
        Gateway::draining(self)
    }

    /// A framing error is answered `400` with `Connection: close`: the
    /// gateway cannot know where the next request starts, so it hangs up
    /// after the flush and the header says so.
    fn frame(&self, scanned: &mut usize, buf: &mut Vec<u8>, _eof: bool) -> Framed<HttpRequest> {
        match http::try_parse(buf, scanned) {
            ParseOutcome::Incomplete => Framed::Incomplete,
            ParseOutcome::Error(msg) => {
                let reply = bad_request(400, msg);
                Framed::Reject(http::render_close_response(reply.status, &reply.body))
            }
            ParseOutcome::Request(request, consumed) => {
                buf.drain(..consumed);
                *scanned = 0;
                Framed::Request(request)
            }
        }
    }

    /// Routes one request: control endpoints answer inline, the fleet
    /// endpoints defer to the worker pool (a blocking backend round trip
    /// never runs on the reactor thread).
    fn handle(
        self: &Arc<Self>,
        request: HttpRequest,
        reply: ReplyTo<FleetReply>,
    ) -> Dispatch<FleetReply> {
        Dispatch::Inline(match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/query") => match String::from_utf8(request.body) {
                Ok(body) => return self.defer(reply, move |gw| gw.fleet.query(&body)),
                Err(_) => bad_request(400, "body is not UTF-8"),
            },
            ("GET", "/v1/stats") => return self.defer(reply, Gateway::stats),
            ("GET", "/v1/sessions") => return self.defer(reply, |gw| gw.fleet.sessions()),
            ("POST", "/v1/shutdown") => {
                self.draining.store(true, Ordering::SeqCst);
                FleetReply {
                    status: 200,
                    body: r#"{"ok":true,"draining":true}"#.to_owned(),
                }
            }
            (_, "/v1/query" | "/v1/stats" | "/v1/sessions" | "/v1/shutdown") => {
                bad_request(405, "method not allowed")
            }
            _ => bad_request(404, "unknown path"),
        })
    }

    fn render(&self, reply: &FleetReply) -> Vec<u8> {
        http::render_response(reply.status, &reply.body)
    }
}
