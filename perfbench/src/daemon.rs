//! The daemons under test, run as child processes so their memory is
//! measured apart from the benchmark's own.

use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Json;

use crate::client::{Conn, Proto};
use crate::stats::parse_vm_hwm_kb;

/// A spawned `lca-serve` or `lca-gateway`. Dropping it kills the process
/// and waits for it, so no error path leaves a daemon behind.
pub struct Daemon {
    child: Child,
    // Held open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address the daemon printed once bound.
    pub addr: String,
    proto: Proto,
}

impl Daemon {
    /// Starts `bin` with `args` plus `--addr 127.0.0.1:0` and waits for its
    /// `{"listening":"<addr>"}` line.
    pub fn spawn(bin: &Path, args: &[&str], proto: Proto) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", bin.display())))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("child stdout was not captured"));
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = serde_json::from_str(line.trim())
            .ok()
            .and_then(|v| v.get("listening").and_then(Json::as_str).map(str::to_owned));
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
                proto,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "{} did not report a listening address (got {line:?})",
                    bin.display()
                )))
            }
        }
    }

    /// Peak resident set of the process so far, in KiB.
    pub fn vm_hwm_kb(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        parse_vm_hwm_kb(&status)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc/<pid>/status"))
    }

    /// The daemon's `stats` snapshot (`GET /v1/stats` on the gateway).
    pub fn stats(&self) -> io::Result<Json> {
        let mut conn = Conn::connect(&self.addr, self.proto)?;
        let body = match self.proto {
            Proto::Line => conn.roundtrip("{\"op\":\"stats\"}")?,
            Proto::Http => conn.http_call("GET", "/v1/stats")?,
        };
        serde_json::from_str(body).map_err(|e| io::Error::other(e.to_string()))
    }

    /// Asks the daemon to drain and waits for it to exit; kills it if it
    /// has not exited within five seconds.
    pub fn shutdown(mut self) {
        let asked = Conn::connect(&self.addr, self.proto).and_then(|mut conn| match self.proto {
            Proto::Line => conn.roundtrip("{\"op\":\"shutdown\"}").map(drop),
            Proto::Http => conn.http_call("POST", "/v1/shutdown").map(drop),
        });
        if asked.is_ok() {
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemons of one workload: either one `lca-serve`, or two backends
/// behind an `lca-gateway`.
pub struct Topology {
    /// Backends in `--backends` order.
    pub backends: Vec<Daemon>,
    /// The gateway, when the workload goes through one.
    pub gateway: Option<Daemon>,
}

impl Topology {
    /// Starts `backends` `lca-serve` processes, plus a gateway over them
    /// when `gateway` is set.
    pub fn start(bin_dir: &Path, backends: usize, gateway: bool) -> io::Result<Topology> {
        let serve = bin_dir.join("lca-serve");
        let backends = (0..backends)
            .map(|i| {
                let id = format!("b{i}");
                Daemon::spawn(&serve, &["--backend-id", &id], Proto::Line)
            })
            .collect::<io::Result<Vec<_>>>()?;
        let gateway = if gateway {
            let list = backends
                .iter()
                .map(|b| b.addr.as_str())
                .collect::<Vec<_>>()
                .join(",");
            Some(Daemon::spawn(
                &bin_dir.join("lca-gateway"),
                &["--backends", &list],
                Proto::Http,
            )?)
        } else {
            None
        };
        Ok(Topology { backends, gateway })
    }

    /// Where clients connect, and how they frame requests.
    pub fn entry(&self) -> (&str, Proto) {
        match &self.gateway {
            Some(g) => (&g.addr, Proto::Http),
            None => (&self.backends[0].addr, Proto::Line),
        }
    }

    /// Sum of `VmHWM` over every daemon, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kb = 0;
        for d in self.backends.iter().chain(&self.gateway) {
            kb += d.vm_hwm_kb()?;
        }
        Ok(kb as f64 / 1024.0)
    }

    /// Drains the gateway first, then the backends.
    pub fn shutdown(self) {
        if let Some(g) = self.gateway {
            g.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
    }
}
