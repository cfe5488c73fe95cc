//! A small, strict HTTP/1.1 server-side codec over `std::net`.
//!
//! The daemon serves a handful of fixed routes to trusted operators, so
//! this implements exactly the slice of HTTP it needs: one request per
//! connection (`Connection: close` on every response), bounded header
//! and body sizes, and a server-sent-events writer for the progress
//! stream. No keep-alive, no chunked bodies, no TLS — those belong to a
//! reverse proxy, not to a simulation daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body; job specs are a few hundred bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// A connection that stalls mid-request is dropped after this long.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request: method, percent-unaware path, and the raw body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, `DELETE`, …, uppercased by the client already.
    pub method: String,
    /// The request target, query string stripped.
    pub path: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Reads one request off `stream`, enforcing the size and time bounds.
///
/// # Errors
///
/// A short description suitable for a 400 response (or for a log line
/// when the connection is already unusable).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    let mut head_bytes = 0usize;
    read_line_bounded(&mut reader, &mut line, &mut head_bytes)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| "request line missing a target".to_string())?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        line.clear();
        read_line_bounded(&mut reader, &mut line, &mut head_bytes)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length {:?}", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request { method, path, body })
}

/// Reads one head line, never more than one byte past what is left of
/// the head budget, so an unterminated line is refused as soon as it
/// outgrows the budget instead of buffering until the peer stops.
fn read_line_bounded(
    reader: &mut BufReader<&mut TcpStream>,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<(), String> {
    let budget = (MAX_HEAD_BYTES - *head_bytes) as u64 + 1;
    let n = reader
        .take(budget)
        .read_line(line)
        .map_err(|e| format!("read failed: {e}"))?;
    if n == 0 {
        return Err("connection closed mid-request".into());
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        ));
    }
    Ok(())
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes a complete JSON response (with optional extra headers) and
/// flushes. Errors are swallowed: the peer hanging up mid-response is
/// its problem, not the daemon's.
pub fn respond_json(stream: &mut TcpStream, status: u16, extra: &[(&str, String)], body: &str) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// An in-progress server-sent-events response. Construct with
/// [`SseWriter::begin`] (which sends the header), push frames with
/// [`SseWriter::event`], then drop it; the `Connection: close` contract
/// means end-of-stream is simply EOF.
pub struct SseWriter<'a> {
    stream: &'a mut TcpStream,
    broken: bool,
}

impl<'a> SseWriter<'a> {
    /// Sends the SSE response head.
    pub fn begin(stream: &'a mut TcpStream) -> Self {
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n";
        let broken = stream.write_all(head.as_bytes()).is_err();
        Self { stream, broken }
    }

    /// Sends one `event:`/`data:` frame. `data` must be a single line
    /// (the daemon's event payloads are single-line JSON).
    pub fn event(&mut self, event: &str, data: &str) {
        if self.broken {
            return;
        }
        let frame = format!("event: {event}\ndata: {data}\n\n");
        self.broken =
            self.stream.write_all(frame.as_bytes()).is_err() || self.stream.flush().is_err();
    }

    /// Whether the peer has gone away (writes started failing).
    pub fn is_broken(&self) -> bool {
        self.broken
    }
}
