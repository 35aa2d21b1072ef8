//! The benchmark's own clients: newline-JSON TCP to `lca-serve` and
//! HTTP/1.1 keep-alive to `lca-gateway`, one request in flight per
//! connection.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// How a connection frames requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// One JSON line per request and per response (`lca-serve`).
    Line,
    /// `POST /v1/query` with the line as body (`lca-gateway`).
    Http,
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    proto: Proto,
    out: Vec<u8>,
    head: String,
    body: String,
}

impl Conn {
    /// Connects to `addr` with Nagle off (every request is one small write).
    pub fn connect(addr: &str, proto: Proto) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            proto,
            out: Vec::with_capacity(512),
            head: String::with_capacity(256),
            body: String::with_capacity(256),
        })
    }

    /// Sends one query line and returns the response line (the HTTP body
    /// on the gateway).
    pub fn roundtrip(&mut self, line: &str) -> io::Result<&str> {
        self.out.clear();
        match self.proto {
            Proto::Line => {
                self.out.extend_from_slice(line.as_bytes());
                self.out.push(b'\n');
            }
            Proto::Http => {
                write!(
                    self.out,
                    "POST /v1/query HTTP/1.1\r\nHost: lca\r\nContent-Length: {}\r\n\r\n{line}",
                    line.len()
                )?;
            }
        }
        self.writer.write_all(&self.out)?;
        self.read_response()
    }

    /// Sends an HTTP request without a body (`GET /v1/stats`,
    /// `POST /v1/shutdown`) and returns the body.
    pub fn http_call(&mut self, method: &str, path: &str) -> io::Result<&str> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: lca\r\nContent-Length: 0\r\n\r\n"
        )?;
        self.writer.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<&str> {
        self.body.clear();
        match self.proto {
            Proto::Line => {
                if self.reader.read_line(&mut self.body)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ));
                }
                let trimmed = self.body.trim_end().len();
                self.body.truncate(trimmed);
            }
            Proto::Http => {
                let mut length = None;
                loop {
                    self.head.clear();
                    if self.reader.read_line(&mut self.head)? == 0 {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "server closed",
                        ));
                    }
                    let line = self.head.trim_end();
                    if line.is_empty() {
                        break;
                    }
                    if let Some((name, value)) = line.split_once(':') {
                        if name.eq_ignore_ascii_case("content-length") {
                            length = value.trim().parse::<usize>().ok();
                        }
                    }
                }
                let length = length.ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response without content-length",
                    )
                })?;
                let mut bytes = vec![0u8; length];
                self.reader.read_exact(&mut bytes)?;
                self.body = String::from_utf8(bytes)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            }
        }
        Ok(&self.body)
    }
}

/// The raw value of top-level field `key` in a flat JSON object line as the
/// daemons render it (`"key":value`): the digits of a number, `true` or
/// `false`, or the unquoted text of a string without escapes.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut from = 0;
    while let Some(pos) = line.get(from..)?.find(key) {
        let start = from + pos;
        from = start + key.len();
        let quoted = start > 0
            && line.as_bytes().get(start - 1) == Some(&b'"')
            && line.get(from..from + 2) == Some("\":");
        if !quoted {
            continue;
        }
        let rest = line.get(from + 2..)?;
        return Some(match rest.strip_prefix('"') {
            Some(s) => &s[..s.find('"')?],
            None => &rest[..rest.find([',', '}']).unwrap_or(rest.len())],
        });
    }
    None
}

/// What a query response said.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// The LCA's answer.
    pub answer: bool,
    /// Probes the server charged the request.
    pub probes: u64,
    /// Server-side service time.
    pub micros: u64,
}

/// Parses a single-query response line; `Err` carries the error code (or
/// the line itself when it is not a well-formed answer).
pub fn parse_answer(line: &str) -> Result<Answer, String> {
    if let Some(code) = field(line, "error") {
        return Err(code.to_owned());
    }
    let answer = match field(line, "answer") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(format!("malformed response {line:?}")),
    };
    let num = |k: &str| field(line, k).and_then(|v| v.parse::<u64>().ok());
    match (num("probes"), num("micros")) {
        (Some(probes), Some(micros)) => Ok(Answer {
            answer,
            probes,
            micros,
        }),
        _ => Err(format!("malformed response {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_flat_lines() {
        let line = r#"{"id":3,"session":"m","answer":true,"probes":12,"micros":87}"#;
        assert_eq!(field(line, "id"), Some("3"));
        assert_eq!(field(line, "session"), Some("m"));
        assert_eq!(field(line, "micros"), Some("87"));
        assert_eq!(field(line, "nope"), None);
        assert_eq!(
            parse_answer(line),
            Ok(Answer {
                answer: true,
                probes: 12,
                micros: 87
            })
        );
        // A key that appears inside a value is not a field.
        let tricky = r#"{"session":"probes","answer":false,"probes":4,"micros":9}"#;
        assert_eq!(field(tricky, "probes"), Some("4"));
        let err = r#"{"id":7,"error":"overloaded","message":"admission queue full"}"#;
        assert_eq!(parse_answer(err), Err("overloaded".to_owned()));
        assert!(parse_answer(r#"{"ok":true}"#).is_err());
    }
}
