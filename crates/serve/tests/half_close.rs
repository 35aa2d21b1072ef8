//! A half-closed connection with work in flight must not spin the reactor.
//!
//! After a peer's EOF the level-triggered poller would report the socket
//! readable on every wait, and a reactor that kept read interest would
//! re-read 0 bytes in a hot loop until the reply landed. This test holds a
//! long batch in flight after a half-close and reads the reactor thread's
//! own CPU time from `/proc/self/task/*/stat`, then checks that a peer
//! which resets such a connection is still dropped at once.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use lca_serve::server::{bind, Server, ServerConfig};
use serde::Json;

const REACTOR_THREAD: &str = "lca-reactor";

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 for user space on every Linux architecture).
const TICKS_PER_SEC: f64 = 100.0;

/// utime + stime of the thread named [`REACTOR_THREAD`], in seconds.
fn reactor_cpu_seconds() -> f64 {
    for task in std::fs::read_dir("/proc/self/task").expect("list threads") {
        let dir = task.expect("thread entry").path();
        let comm = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end() != REACTOR_THREAD {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("stat")).expect("thread stat");
        // Fields after the parenthesized command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks: u64 =
            fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
        return ticks as f64 / TICKS_PER_SEC;
    }
    panic!("no thread named {REACTOR_THREAD}");
}

fn send(stream: &mut TcpStream, line: &str) {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
}

fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read") > 0, "EOF");
    serde_json::from_str(line.trim()).unwrap_or_else(|e| panic!("bad response: {e}"))
}

fn stats(addr: &str) -> Json {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    send(&mut stream, r#"{"op":"stats"}"#);
    read_json(&mut reader)
}

/// Whether the daemon has resolved `session`, which the reactor does right
/// after parsing the request that names it.
fn session_resident(addr: &str, session: &str) -> bool {
    stats(addr)
        .get("sessions")
        .and_then(|s| s.get(session))
        .is_some()
}

/// A batch of `batch` greedy-coloring queries at n = 10^7, where each query
/// costs hundreds of probes.
fn batch_line(id: u64, session: &str, batch: u64) -> String {
    let queries: Vec<String> = (0..batch).map(|v| v.to_string()).collect();
    format!(
        "{{\"id\":{id},\"session\":\"{session}\",\"kind\":\"greedy-coloring\",\
         \"n\":10000000,\"seed\":5,\"queries\":[{}]}}",
        queries.join(",")
    )
}

#[test]
fn half_closed_peer_neither_spins_the_reactor_nor_outlives_a_reset() {
    let listener = bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = Server::new(ServerConfig {
        workers: 1,
        queue_capacity: 16,
        ..ServerConfig::default()
    });
    let serve_loop = {
        let server = server.clone();
        std::thread::Builder::new()
            .name(REACTOR_THREAD.to_owned())
            .spawn(move || server.serve(listener).expect("serve loop"))
            .expect("spawn reactor")
    };

    // Double the batch until one stays in flight for 0.5 s after the
    // half-close, whatever the build profile and machine.
    let mut batch = 1_000u64;
    for attempt in 0.. {
        let session = format!("hc-{attempt}");
        let (mut stream, mut reader) = {
            let stream = TcpStream::connect(&addr).expect("connect");
            stream.set_read_timeout(Some(Duration::from_secs(600))).ok();
            let reader = BufReader::new(stream.try_clone().expect("clone"));
            (stream, reader)
        };
        send(&mut stream, &batch_line(1, &session, batch));
        // Wait until the reactor has parsed the batch, so the window below
        // holds only the EOF and the reply.
        while !session_resident(&addr, &session) {
            std::thread::sleep(Duration::from_millis(1));
        }
        stream.shutdown(Shutdown::Write).expect("half-close");
        let (cpu0, t0) = (reactor_cpu_seconds(), Instant::now());
        let response = read_json(&mut reader);
        let (cpu, wall) = (reactor_cpu_seconds() - cpu0, t0.elapsed().as_secs_f64());

        let answers = response
            .get("answers")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("no answers: {response:?}"));
        assert_eq!(answers.len() as u64, batch, "batch answered in full");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).expect("read EOF"), 0, "{rest}");

        if wall >= 0.5 {
            assert!(
                cpu < 0.1 * wall,
                "reactor burned {cpu:.2} s of CPU over {wall:.2} s with a half-closed peer"
            );
            break;
        }
        assert!(
            batch < 1 << 20,
            "batch of {batch} still finished in {wall:.2} s"
        );
        batch *= 2;
    }

    // A peer that closes with a reply unread resets the connection. With
    // read interest off, the poller's hang-up report is the only sign of
    // it, and the reactor must close the connection then, not once its
    // last batch (twice the one above, so at least 1 s) has finished.
    let session = "hc-reset";
    let mut stream = TcpStream::connect(&addr).expect("connect");
    send(&mut stream, &batch_line(1, "hc-reset-first", 1));
    send(&mut stream, &batch_line(2, session, 2 * batch));
    while !session_resident(&addr, session) {
        std::thread::sleep(Duration::from_millis(1));
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.peek(&mut [0u8; 1]).expect("first reply arrives");
    drop(stream);
    loop {
        let snapshot = stats(&addr);
        // The stats connection itself is the one left open.
        let open = snapshot
            .get("stats")
            .and_then(|g| g.get("connections_open"))
            .and_then(Json::as_u64);
        if open == Some(1) {
            let answered = snapshot
                .get("sessions")
                .and_then(|s| s.get(session))
                .and_then(|s| s.get("queries"))
                .and_then(Json::as_u64);
            assert_eq!(answered, Some(0), "reset peer closed only after its batch");
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut stream = TcpStream::connect(&addr).expect("connect");
    send(&mut stream, r#"{"op":"shutdown"}"#);
    drop(stream);
    serve_loop.join().expect("drain");
}
