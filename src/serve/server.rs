//! Byte-level transports for the serve protocol: a bounded line reader
//! and the session loop, shared by the stdin and TCP paths, and the
//! thread-per-connection TCP front end.
//!
//! The reader is the first thing untrusted bytes touch, so it is a
//! declared `xtask reach` entry point: it must never panic and never
//! buffer more than the configured line limit no matter what arrives —
//! a peer streaming gigabytes without a newline costs one limit-sized
//! buffer, not unbounded memory. Read timeouts surface as
//! [`LineEvent::TimedOut`] so a connection that goes quiet mid-session
//! is closed with a structured `ERR timeout` reply instead of pinning a
//! thread forever.

use super::batch::{BatchQueue, DrainReport};
use super::{respond_batched, Action, ServeStats};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Byte slack added on top of the per-value budget in
/// [`max_line_bytes`]: verbs, separators, and leading/trailing blanks.
const LINE_SLACK_BYTES: usize = 4096;

/// Per-value byte budget for a request line: a shortest-round-trip f64
/// prints in well under 25 bytes + 1 separator; 32 leaves headroom for
/// clients that print maximal `-1.7976931348623157e308`-style tokens.
const LINE_BYTES_PER_VALUE: usize = 32;

/// The request-line byte limit for an `n`-dimensional solver:
/// `32·n + 4096`. The limit bounds reader memory per connection — it is
/// a robustness guard, not a protocol parameter; callers that need a
/// different bound set [`ServeConfig::max_line`] directly.
pub fn max_line_bytes(n: usize) -> usize {
    n.saturating_mul(LINE_BYTES_PER_VALUE) + LINE_SLACK_BYTES
}

/// One read attempt's outcome. Oversized lines are consumed up to their
/// newline, so the protocol stays line-synchronized after a `TooLong`.
#[derive(Debug, PartialEq)]
pub enum LineEvent {
    /// A complete line (newline stripped, lossy UTF-8).
    Line(String),
    /// Clean end of stream.
    Eof,
    /// The line exceeded `limit` bytes; its content was discarded.
    TooLong {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The transport's read deadline passed with the peer silent.
    TimedOut,
    /// Unrecoverable transport error (connection reset, …).
    Err(String),
}

/// Reads one newline-terminated line from `r`, buffering at most
/// `limit` bytes. Overlong content is discarded while scanning for the
/// terminating newline, so memory stays bounded by `limit` plus the
/// transport's own buffer. Interrupted reads retry; timeout-flavored
/// errors (`WouldBlock`/`TimedOut`, per platform) become
/// [`LineEvent::TimedOut`].
pub fn read_bounded_line(r: &mut impl BufRead, limit: usize) -> LineEvent {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let (consumed, done) = {
            let chunk = match r.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineEvent::TimedOut;
                }
                Err(e) => return LineEvent::Err(e.to_string()),
            };
            if chunk.is_empty() {
                // EOF. A buffered partial line without a newline still
                // counts as a line (matches `BufRead::lines`).
                if overflowed {
                    return LineEvent::TooLong { limit };
                }
                if buf.is_empty() {
                    return LineEvent::Eof;
                }
                return LineEvent::Line(finish_line(buf));
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    // Room check before copying: an oversized line is
                    // dropped, never buffered.
                    if !overflowed && buf.len() + pos <= limit {
                        buf.extend(chunk.iter().take(pos));
                    } else {
                        overflowed = true;
                    }
                    (pos + 1, true)
                }
                None => {
                    if !overflowed && buf.len() + chunk.len() <= limit {
                        buf.extend(chunk.iter());
                    } else {
                        overflowed = true;
                        buf.clear();
                    }
                    (chunk.len(), false)
                }
            }
        };
        r.consume(consumed);
        if done {
            if overflowed {
                return LineEvent::TooLong { limit };
            }
            return LineEvent::Line(finish_line(buf));
        }
    }
}

/// Strips one trailing `\r` (CRLF peers) and decodes lossily: the
/// protocol is ASCII, so invalid UTF-8 can only appear in garbage that
/// the parser rejects anyway — but it must not panic the reader.
fn finish_line(mut buf: Vec<u8>) -> String {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8_lossy(&buf).into_owned()
}

/// Everything a session needs, shared across the server.
pub struct ServeConfig {
    /// Solver dimension (trusted; from the operator's graph).
    pub n: usize,
    /// Request-line byte limit (see [`max_line_bytes`]).
    pub max_line: usize,
    /// Idle read deadline: the TCP front end sets it on every
    /// connection, and an exceeded deadline closes the connection with
    /// `ERR timeout`. A transport without a deadline (stdin) never times
    /// out, whatever this says.
    pub read_timeout: Duration,
}

/// Summary of one TCP serve run, for the operator banner.
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Connections accepted over the run.
    pub connections: u64,
    /// Reply lines written across all connections.
    pub replies: u64,
    /// The batch queue's drain report.
    pub drain: DrainReport,
}

/// Runs the TCP front end on an already-bound listener: accepts
/// connections until `max_conns` (when given) have been accepted or
/// `stop` flips, handles each on its own OS thread against the shared
/// [`BatchQueue`], then drains the queue and joins every handler.
///
/// The listener is polled in non-blocking mode so a `stop` request (or
/// the `max_conns` budget) takes effect without a wake-up connection.
/// Solve compute itself runs on the vendored rayon pool inside
/// `solve_block` — connection threads only parse, park, and reply.
pub fn serve_tcp(
    listener: TcpListener,
    queue: &Arc<BatchQueue>,
    dispatcher: super::batch::Dispatcher,
    stats: &Arc<ServeStats>,
    cfg: &ServeConfig,
    max_conns: Option<u64>,
    stop: &AtomicBool,
) -> Result<ServeSummary, String> {
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("listener: {e}"))?;
    let replies = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut connections = 0u64;
    while !stop.load(Ordering::Relaxed) && max_conns.map_or(true, |m| connections < m) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                connections += 1;
                hicond_obs::counter_add("serve/connections", 1);
                let queue = Arc::clone(queue);
                let stats = Arc::clone(stats);
                let replies = Arc::clone(&replies);
                let conn_cfg = ServeConfig {
                    n: cfg.n,
                    max_line: cfg.max_line,
                    read_timeout: cfg.read_timeout,
                };
                let spawned = std::thread::Builder::new()
                    .name(format!("serve-conn-{connections}"))
                    .spawn(move || {
                        let served = handle_connection(stream, &queue, &stats, &conn_cfg);
                        replies.fetch_add(served, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(h) => handlers.push(h),
                    Err(e) => return Err(format!("spawn connection handler: {e}")),
                }
                // Reap finished handlers so a long-running server does
                // not accumulate handles.
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept: {e}")),
        }
    }
    // Connections first (their submits must all have landed), then the
    // queue drain: every admitted rhs is answered before we report.
    for h in handlers {
        let _ = h.join();
    }
    let drain = queue.shutdown();
    dispatcher.join();
    Ok(ServeSummary {
        connections,
        replies: replies.load(Ordering::Relaxed),
        drain,
    })
}

/// One TCP connection: the shared session loop over the socket, with
/// solves routed through the batch queue. Returns the number of reply
/// lines written.
fn handle_connection(
    stream: TcpStream,
    queue: &Arc<BatchQueue>,
    stats: &Arc<ServeStats>,
    cfg: &ServeConfig,
) -> u64 {
    // A failed deadline set is a dead socket; the first read will
    // surface the real error.
    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return 0,
    };
    let mut reader = BufReader::new(stream);
    // A transport error only means the peer went away; nothing is left
    // to answer.
    serve_session(&mut reader, &mut writer, cfg, stats, |line| {
        respond_batched(queue, cfg.n, line, stats)
    })
    .replies
}

/// How a [`serve_session`] ended.
#[derive(Debug)]
pub struct SessionEnd {
    /// Reply lines written.
    pub replies: u64,
    /// The read or write error that ended the session; `None` after
    /// `quit`, end of input or an idle timeout.
    pub error: Option<String>,
}

/// One serve session over any line transport (stdin/stdout, a socket):
/// bounded reads, one reply line per request, structured errors.
/// `respond` answers one request line — [`super::respond`] or
/// [`super::respond_batched`] bound to its solver or queue. A line over
/// `cfg.max_line` bytes is answered `ERR bad-length` and counted like any
/// bad request (`errors=` in `stats`, `serve/bad_request`). A read that
/// times out is answered `ERR timeout` and ends the session, so an idle
/// peer cannot pin a thread (or its batch-queue admission) forever.
pub fn serve_session(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    cfg: &ServeConfig,
    stats: &ServeStats,
    mut respond: impl FnMut(&str) -> Action,
) -> SessionEnd {
    let mut replies = 0u64;
    let error = loop {
        let action = match read_bounded_line(reader, cfg.max_line) {
            LineEvent::Line(line) => respond(&line),
            LineEvent::Eof => break None,
            LineEvent::Err(e) => break Some(format!("read: {e}")),
            LineEvent::TooLong { limit } => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                hicond_obs::counter_add("serve/bad_request", 1);
                Action::Reply(format!(
                    "ERR bad-length: request line exceeds {limit} bytes"
                ))
            }
            LineEvent::TimedOut => {
                hicond_obs::counter_add("serve/idle_timeout", 1);
                let reply = format!(
                    "ERR timeout: idle for {:.0}s, closing connection",
                    cfg.read_timeout.as_secs_f64()
                );
                break write_reply(writer, &reply)
                    .err()
                    .map(|e| format!("write: {e}"));
            }
        };
        match action {
            Action::Reply(reply) => {
                if let Err(e) = write_reply(writer, &reply) {
                    break Some(format!("write: {e}"));
                }
                replies += 1;
            }
            Action::Ignore => {}
            Action::Quit => break None,
        }
    };
    SessionEnd { replies, error }
}

/// Writes one protocol line (`reply` plus `\n`) in a single write and
/// flushes; the server sends replies and `hicond client` sends requests
/// through it. The TCP sockets run without `TCP_NODELAY`, so a separate
/// write for the newline would sit behind the peer's delayed ACK (tens
/// of milliseconds on loopback) before the peer saw a complete line.
pub fn write_reply(w: &mut impl Write, reply: &str) -> std::io::Result<()> {
    let mut line = String::with_capacity(reply.len() + 1);
    line.push_str(reply);
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and returns
/// the listener with its resolved local address.
pub fn bind(addr: &str) -> Result<(TcpListener, SocketAddr), String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    Ok((listener, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bounded_reader_round_trips_normal_lines() {
        let mut r = Cursor::new(b"hello\nworld\r\n\nlast".to_vec());
        assert_eq!(
            read_bounded_line(&mut r, 64),
            LineEvent::Line("hello".into())
        );
        assert_eq!(
            read_bounded_line(&mut r, 64),
            LineEvent::Line("world".into())
        );
        assert_eq!(
            read_bounded_line(&mut r, 64),
            LineEvent::Line(String::new())
        );
        assert_eq!(
            read_bounded_line(&mut r, 64),
            LineEvent::Line("last".into())
        );
        assert_eq!(read_bounded_line(&mut r, 64), LineEvent::Eof);
    }

    #[test]
    fn oversized_line_is_dropped_and_stream_resyncs() {
        let mut data = vec![b'x'; 1000];
        data.push(b'\n');
        data.extend_from_slice(b"ok-line\n");
        let mut r = Cursor::new(data);
        assert_eq!(
            read_bounded_line(&mut r, 100),
            LineEvent::TooLong { limit: 100 }
        );
        assert_eq!(
            read_bounded_line(&mut r, 100),
            LineEvent::Line("ok-line".into()),
            "the reader resynchronizes at the newline"
        );
    }

    #[test]
    fn unterminated_flood_reports_too_long_at_eof() {
        let mut r = Cursor::new(vec![b'9'; 100_000]);
        assert_eq!(
            read_bounded_line(&mut r, 256),
            LineEvent::TooLong { limit: 256 }
        );
        assert_eq!(read_bounded_line(&mut r, 256), LineEvent::Eof);
    }

    #[test]
    fn exact_limit_line_is_accepted() {
        let mut data = vec![b'a'; 8];
        data.push(b'\n');
        let mut r = Cursor::new(data);
        assert_eq!(
            read_bounded_line(&mut r, 8),
            LineEvent::Line("aaaaaaaa".into())
        );
    }

    #[test]
    fn invalid_utf8_is_lossy_not_fatal() {
        let mut r = Cursor::new(b"\xff\xfe\xfd\n".to_vec());
        match read_bounded_line(&mut r, 64) {
            LineEvent::Line(s) => assert!(!s.is_empty(), "lossy decode keeps placeholders"),
            other => panic!("expected a line, got {other:?}"),
        }
    }

    #[test]
    fn each_reply_line_is_one_write() {
        /// Counts `write` calls and keeps the bytes.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter::default();
        write_reply(&mut w, "ok stats requests=0").unwrap();
        write_reply(&mut w, "ERR busy: retry later").unwrap();
        assert_eq!(w.writes, 2, "one write per reply line");
        assert_eq!(w.bytes, b"ok stats requests=0\nERR busy: retry later\n");
    }

    #[test]
    fn session_counts_an_overlong_line_as_an_error() {
        let g = hicond_graph::generators::path(4, |_| 1.0);
        let solver =
            hicond_precond::LaplacianSolver::new(&g, &hicond_precond::SolverOptions::default());
        let cfg = ServeConfig {
            n: 4,
            max_line: 16,
            read_timeout: Duration::ZERO,
        };
        let stats = ServeStats::new();
        let mut input = vec![b'1'; 100];
        input.extend_from_slice(b"\n\nstats\nquit\nstats\n");
        let mut out = Vec::new();
        let end = serve_session(&mut Cursor::new(input), &mut out, &cfg, &stats, |line| {
            crate::serve::respond(&solver, cfg.n, line, &stats)
        });
        assert!(end.error.is_none(), "{:?}", end.error);
        assert_eq!(
            end.replies, 2,
            "blank line ignored, nothing read after quit"
        );
        let out = String::from_utf8(out).expect("replies are UTF-8");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "ERR bad-length: request line exceeds 16 bytes");
        assert!(
            lines[1].starts_with("ok stats requests=0 errors=1 "),
            "reply: {}",
            lines[1]
        );
    }

    #[test]
    fn max_line_bytes_scales_with_dimension() {
        assert_eq!(max_line_bytes(1000), 32 * 1000 + 4096);
        assert_eq!(max_line_bytes(0), 4096);
    }
}
