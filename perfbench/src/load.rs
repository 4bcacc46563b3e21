//! The TCP load generator: one process, one thread per connection and at
//! most one connection per hardware thread. Every reply is verified; a
//! request counts as failed if it gets an `ERR` reply, gets no reply
//! before the phase's grace period ends, or fails verification.

use crate::verify::{Failure, Verifier};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a request may stay unanswered before it counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Requests sent, verified and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    /// Failed requests whose reply parsed but was wrong (a subset of
    /// `failed`).
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }

    /// Books one request's outcome.
    pub fn record(&mut self, outcome: &Result<(), Failure>) {
        self.sent += 1;
        match outcome {
            Ok(_) => self.ok += 1,
            Err(f) => {
                self.failed += 1;
                if matches!(f, Failure::Wrong(_)) {
                    self.wrong += 1;
                }
            }
        }
    }
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
    /// Set once a read failed or timed out: the reply stream is out of
    /// step, so the connection takes no more requests.
    broken: bool,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 20, s),
            writer,
            reply: String::new(),
            broken: false,
        })
    }

    /// Sends one newline-terminated line and reads the reply line into
    /// `self.reply`. Returns the instant the reply was complete.
    pub fn exchange(&mut self, line: &str) -> Result<Instant, Failure> {
        if self.broken {
            return Err(Failure::Refused("connection broken".into()));
        }
        self.reply.clear();
        let r = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.reader.read_line(&mut self.reply));
        match r {
            Ok(n) if n > 0 && self.reply.ends_with('\n') => Ok(Instant::now()),
            Ok(_) => {
                self.broken = true;
                Err(Failure::Refused("connection closed".into()))
            }
            Err(e) => {
                self.broken = true;
                Err(Failure::Refused(format!("no reply: {e}")))
            }
        }
    }

    /// Sends one solve request for `b` and verifies the reply.
    pub fn solve(&mut self, line: &str, b: &[f64], v: &Verifier) -> (Instant, Result<(), Failure>) {
        match self.exchange(line) {
            Ok(at) => (at, v.check_reply(b, &self.reply)),
            Err(f) => (Instant::now(), Err(f)),
        }
    }

    /// The last reply line.
    pub fn reply(&self) -> &str {
        self.reply.trim_end()
    }
}

/// What the load phases send: pre-formatted lines and their rhs.
pub struct Requests<'a> {
    pub lines: &'a [String],
    pub rhs: &'a [Vec<f64>],
    pub verifier: &'a Verifier,
}

impl Requests<'_> {
    fn get(&self, i: usize) -> (&str, &[f64]) {
        let j = i % self.lines.len();
        (&self.lines[j], &self.rhs[j])
    }
}

/// `per_conn` untimed requests on every connection, one after another.
pub fn warm_up(conns: &mut [Conn], req: &Requests, per_conn: usize) -> Tally {
    let mut t = Tally::default();
    for (c, conn) in conns.iter_mut().enumerate() {
        for i in 0..per_conn {
            let (line, b) = req.get(c + i);
            t.record(&conn.solve(line, b, req.verifier).1);
        }
    }
    t
}

pub struct OpenLoop {
    /// Latency of each verified request, from its due time to its
    /// reply, in milliseconds, in schedule order.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, in milliseconds.
    pub late_ms: Vec<f64>,
    pub tally: Tally,
}

/// Open loop: request `i` is due at `due[i]` seconds after the phase
/// start, whatever happened to earlier requests. A free connection takes
/// the next due request; if every connection is still waiting, the
/// request goes out late and its latency still counts from its due time,
/// so a stall is charged to every request it delays. Replies are kept and
/// verified after the phase, so the generator's parsing never competes
/// with the server for the CPU while other requests are being timed.
pub fn open_loop(conns: &mut [Conn], req: &Requests, due: &[f64]) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    // (request, latency ms, reply) per answered request; lateness per sent one.
    let out = Mutex::new((Vec::with_capacity(due.len()), Vec::new()));
    std::thread::scope(|s| {
        for conn in conns.iter_mut() {
            let (next, out) = (&next, &out);
            s.spawn(move || loop {
                if conn.broken {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&d) = due.get(i) else { return };
                let due_at = start + Duration::from_secs_f64(d);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                let late = Instant::now().saturating_duration_since(due_at);
                let (line, _) = req.get(i);
                let reply = conn.exchange(line).map(|at| {
                    let ms = at.duration_since(due_at).as_secs_f64() * 1e3;
                    let capacity = conn.reply.capacity();
                    (
                        ms,
                        std::mem::replace(&mut conn.reply, String::with_capacity(capacity)),
                    )
                });
                let mut o = out.lock().expect("no load thread panics");
                o.0.push((i, reply));
                o.1.push(late.as_secs_f64() * 1e3);
            });
        }
    });
    let (mut replies, late_ms) = out.into_inner().expect("no load thread panics");
    replies.sort_by_key(|(i, _)| *i);
    let mut tally = Tally::default();
    let mut latency_ms = Vec::with_capacity(replies.len());
    for (i, reply) in replies {
        let outcome = reply.and_then(|(ms, r)| {
            req.verifier.check_reply(req.get(i).1, &r)?;
            latency_ms.push(ms);
            Ok(())
        });
        tally.record(&outcome);
    }
    // Requests no connection could take (all broke) were never answered.
    let unsent = due.len().saturating_sub(tally.sent as usize) as u64;
    tally.sent += unsent;
    tally.failed += unsent;
    OpenLoop {
        latency_ms,
        late_ms,
        tally,
    }
}

pub struct ClosedLoop {
    /// Time until the last connection finished.
    pub secs: f64,
    pub tally: Tally,
}

/// Closed loop: every connection sends its next request as soon as the
/// previous reply is verified, until `dur` has passed; requests already
/// sent then finish.
pub fn closed_loop(conns: &mut [Conn], req: &Requests, dur: Duration) -> ClosedLoop {
    let t0 = Instant::now();
    let end = t0 + dur;
    let stride = conns.len();
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut t = Tally::default();
                    let mut i = c;
                    while Instant::now() < end && !conn.broken {
                        let (line, b) = req.get(i);
                        t.record(&conn.solve(line, b, req.verifier).1);
                        i += stride;
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no load thread panics"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    tallies.into_iter().for_each(|t| tally.add(t));
    ClosedLoop { secs, tally }
}
