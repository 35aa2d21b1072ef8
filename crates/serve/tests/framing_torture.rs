//! Framing torture test: coalesced vectored flushes under forced partial
//! writes. A shrunken client `SO_RCVBUF` caps the TCP window the daemon can
//! write into, so its `writev`s stop mid-line; every response must still
//! arrive whole and in order.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lca_serve::server::{bind, Server, ServerConfig};
use lca_serve::sys;
use serde::Json;

/// Spawns a daemon on an ephemeral port; returns its address and the
/// serve-loop handle (joined by sending a shutdown request).
fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<()>, Arc<Server>) {
    let listener = bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(config);
    let handle = {
        let server = server.clone();
        std::thread::spawn(move || {
            server.serve(listener).expect("serve loop");
        })
    };
    (addr, handle, server)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects, optionally shrinking the client-side receive buffer
    /// *before* any server bytes arrive (a tiny `SO_RCVBUF` caps the TCP
    /// window the server can write into, forcing partial writes there).
    fn connect(addr: &str, recv_buffer: Option<usize>) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
        if let Some(bytes) = recv_buffer {
            sys::set_recv_buffer(&stream, bytes).expect("SO_RCVBUF");
        }
        Client {
            writer: stream.try_clone().expect("clone"),
            reader: BufReader::new(stream),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
    }

    fn roundtrip_line(&mut self, line: &str) -> Json {
        self.send_line(line);
        self.read_json_line()
    }

    fn read_json_line(&mut self) -> Json {
        let mut response = String::new();
        assert!(
            self.reader.read_line(&mut response).expect("read") > 0,
            "EOF mid-pipeline"
        );
        serde_json::from_str(response.trim())
            .unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

#[test]
fn forced_partial_writes_never_interleave_responses() {
    // A client that pipelines hundreds of requests into a tiny receive
    // window while reading nothing forces the reactor into short vectored
    // writes mid-line. Every buffered byte must still come out in order:
    // each JSON line parses, and responses arrive in request order.
    let (addr, handle, _server) = spawn_server(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let pipelined = 800usize;

    let mut client = Client::connect(&addr, Some(2048));
    // `stats` is answered inline with a multi-hundred-byte body:
    // hundreds of them dwarf the 2 KiB window and pile into the
    // connection's write queue before the first read below.
    for id in 0..pipelined {
        client.send_line(&format!("{{\"id\":{id},\"op\":\"ping\"}}"));
        client.send_line("{\"op\":\"stats\"}");
    }
    let mut stats_seen = 0;
    for id in 0..pipelined {
        let ok = client.read_json_line();
        assert_eq!(ok.get("ok").and_then(Json::as_bool), Some(true), "id {id}");
        let stats = client.read_json_line();
        assert!(stats.get("stats").is_some(), "id {id}: {stats:?}");
        stats_seen += 1;
    }
    assert_eq!(stats_seen, pipelined);

    let mut client = Client::connect(&addr, None);
    client.roundtrip_line(r#"{"op":"shutdown"}"#);
    handle.join().expect("drain");
}
