//! Multi-client stress test for the TCP serve front end (ISSUE 10): N
//! client threads hammer one `serve_tcp` instance over real loopback
//! sockets, and every client must get **its own** correct answer back —
//! bitwise equal to a solo `LaplacianSolver::solve` of its rhs, because
//! the batch dispatcher routes through the deterministic block-PCG
//! engine.
//!
//! Batching is made deterministic, not timing-lucky: the test holds an
//! arrival on the queue (a request "still being parsed") for the whole
//! exchange, the dispatch window is huge (10 min) and the size trigger
//! equals the client count, so the dispatcher *must* coalesce all N
//! requests into exactly one block solve before anyone gets a reply. The robustness test exercises the
//! oversized-line guard and the idle-timeout reaper over a real socket.

use hicond::precond::{LaplacianSolver, SolverOptions};
use hicond::serve::batch::Dispatcher;
use hicond::serve::server::{bind, serve_tcp, ServeConfig, ServeSummary};
use hicond::serve::{BatchConfig, BatchQueue, ServeStats};
use hicond_graph::generators;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

const N_CLIENTS: usize = 4;

/// A solver over a small weighted grid plus one deflated rhs per client.
fn fixture() -> (Arc<LaplacianSolver>, usize, Vec<Vec<f64>>) {
    let g = generators::grid2d(6, 6, |u, v| 1.0 + ((u + 3 * v) % 4) as f64);
    let n = g.num_vertices();
    let solver = Arc::new(LaplacianSolver::new(&g, &SolverOptions::default()));
    let rhss = (0..N_CLIENTS)
        .map(|j| {
            let mut b: Vec<f64> = (0..n)
                .map(|i| (((i * (j + 2) + 5 * j) % 13) as f64) - 6.0)
                .collect();
            let mean = b.iter().sum::<f64>() / n as f64;
            for v in &mut b {
                *v -= mean;
            }
            b
        })
        .collect();
    (solver, n, rhss)
}

/// Launches the full serve stack on an ephemeral port. The server thread
/// exits (and drains the queue) once `max_conns` connections have come
/// and gone.
fn launch(
    solver: &Arc<LaplacianSolver>,
    cfg: BatchConfig,
    serve_cfg: ServeConfig,
    max_conns: u64,
) -> (
    SocketAddr,
    std::thread::JoinHandle<ServeSummary>,
    Arc<ServeStats>,
    Arc<BatchQueue>,
) {
    let (listener, addr) = bind("127.0.0.1:0").expect("bind loopback");
    let stats = Arc::new(ServeStats::new());
    let queue = BatchQueue::new(cfg);
    let dispatcher: Dispatcher = queue.start(Arc::clone(solver), Arc::clone(&stats));
    let stats_for_server = Arc::clone(&stats);
    let queue_for_server = Arc::clone(&queue);
    let handle = std::thread::spawn(move || {
        let stop = AtomicBool::new(false);
        serve_tcp(
            listener,
            &queue_for_server,
            dispatcher,
            &stats_for_server,
            &serve_cfg,
            Some(max_conns),
            &stop,
        )
        .expect("serve_tcp runs to completion")
    });
    (addr, handle, stats, queue)
}

fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("client read timeout");
    let writer = stream.try_clone().expect("clone for writing");
    (BufReader::new(stream), writer)
}

fn send_line(w: &mut TcpStream, line: &str) {
    w.write_all(line.as_bytes()).expect("send");
    w.write_all(b"\n").expect("send newline");
    w.flush().expect("flush");
}

fn recv_line(r: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    let got = r.read_line(&mut reply).expect("reply read");
    assert!(got > 0, "server closed the connection unexpectedly");
    reply.trim_end().to_string()
}

fn fmt_rhs(b: &[f64]) -> String {
    b.iter().map(f64::to_string).collect::<Vec<_>>().join(" ")
}

/// Parses `ok <iters> <rel> <x…>` into (iterations, x-bits).
fn parse_ok(reply: &str, n: usize) -> (usize, Vec<u64>) {
    let mut toks = reply.split_whitespace();
    assert_eq!(toks.next(), Some("ok"), "reply: {reply:.80}");
    let iters: usize = toks.next().expect("iters").parse().expect("iters parse");
    let _rel = toks.next().expect("rel_residual");
    let x: Vec<u64> = toks
        .map(|t| t.parse::<f64>().expect("x value").to_bits())
        .collect();
    assert_eq!(x.len(), n, "reply carries n solution values");
    (iters, x)
}

fn stats_field(reply: &str, key: &str) -> String {
    reply
        .split(key)
        .nth(1)
        .and_then(|tail| tail.split_whitespace().next())
        .unwrap_or_else(|| panic!("missing {key} in {reply}"))
        .to_string()
}

#[test]
fn concurrent_clients_coalesce_into_one_block_solve() {
    let (solver, n, rhss) = fixture();
    let cfg = BatchConfig {
        max_batch: N_CLIENTS,
        // Deterministic coalescing: the arrival held below keeps every
        // batch open and the window cannot expire during the test, so
        // only the size trigger can fire — all N rhs in one batch, or
        // the test hangs (caught by the client read timeout).
        window: Duration::from_secs(600),
        max_inflight: 4 * N_CLIENTS,
    };
    let serve_cfg = ServeConfig {
        n,
        max_line: hicond::serve::max_line_bytes(n),
        read_timeout: Duration::from_secs(60),
    };
    let (addr, server, _stats, queue) = launch(&solver, cfg, serve_cfg, N_CLIENTS as u64 + 1);
    let parsing = queue.arrival();

    let clients: Vec<_> = rhss
        .iter()
        .cloned()
        .enumerate()
        .map(|(j, b)| {
            std::thread::spawn(move || {
                let (mut r, mut w) = connect(addr);
                // A bad request first: answered immediately, never
                // batched, and it must not wedge the coalescing below.
                send_line(&mut w, "definitely not a number");
                let err = recv_line(&mut r);
                assert!(err.starts_with("ERR bad-value:"), "client {j}: {err}");
                send_line(&mut w, &fmt_rhs(&b));
                let reply = recv_line(&mut r);
                send_line(&mut w, "quit");
                (j, b, reply)
            })
        })
        .collect();
    for c in clients {
        let (j, b, reply) = c.join().expect("client thread");
        let solo = solver.solve(&b).expect("solo solve converges");
        let (iters, x) = parse_ok(&reply, n);
        assert_eq!(iters, solo.iterations, "client {j} iteration count");
        let solo_bits: Vec<u64> = solo.x.iter().map(|v| v.to_bits()).collect();
        assert_eq!(x, solo_bits, "client {j}: batched == solo, bitwise");
    }
    drop(parsing);

    // All clients answered ⇒ the batch completed. A final session scrapes
    // the stats verb: gauges return to zero (the dispatcher publishes
    // them just *after* sending the replies, so poll briefly) and the
    // batch-size median sits in [N, 2N) — the log₂ bucket that only a
    // size-N batch can reach (per-request solves would put it in [1, 2)).
    let (mut r, mut w) = connect(addr);
    let mut scrapes = 0u64;
    let stats_reply = loop {
        send_line(&mut w, "stats");
        let reply = recv_line(&mut r);
        scrapes += 1;
        assert!(reply.starts_with("ok stats "), "{reply}");
        let drained =
            stats_field(&reply, "queue_depth=") == "0" && stats_field(&reply, "inflight=") == "0";
        if drained || scrapes >= 100 {
            break reply;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(stats_field(&stats_reply, "queue_depth="), "0");
    assert_eq!(stats_field(&stats_reply, "inflight="), "0");
    let p50: f64 = stats_field(&stats_reply, "batch_p50=")
        .parse()
        .expect("batch_p50 is numeric once a batch ran");
    assert!(
        (N_CLIENTS as f64..2.0 * N_CLIENTS as f64).contains(&p50),
        "batch_p50={p50} proves coalescing (expected in [{N_CLIENTS}, {}))",
        2 * N_CLIENTS
    );
    send_line(&mut w, "quit");

    let summary = server.join().expect("server thread");
    assert_eq!(summary.connections, N_CLIENTS as u64 + 1);
    assert_eq!(
        summary.drain.completed, N_CLIENTS as u64,
        "every admitted rhs was answered"
    );
    assert_eq!(
        summary.drain.queued_at_shutdown, 0,
        "drain found no orphans"
    );
    // N ok + N bad-value + the stats scrapes crossed the wire.
    assert_eq!(summary.replies, 2 * N_CLIENTS as u64 + scrapes);
}

#[test]
fn oversized_lines_and_idle_peers_get_structured_errors() {
    let (solver, n, _rhss) = fixture();
    let cfg = BatchConfig {
        max_batch: 1, // no coalescing needed here; answer immediately
        window: Duration::from_millis(1),
        max_inflight: 8,
    };
    let max_line = 256; // far below a valid n-value request line
    let serve_cfg = ServeConfig {
        n,
        max_line,
        read_timeout: Duration::from_millis(400),
    };
    let (addr, server, _stats, _queue) = launch(&solver, cfg, serve_cfg, 2);

    // Client 1: floods an oversized line. The server discards it with a
    // structured reply, stays line-synchronized, and still answers a
    // well-formed follow-up — but the follow-up must fit in max_line, so
    // it is a short bad-length request rather than a full rhs.
    let (mut r, mut w) = connect(addr);
    let flood = "9".repeat(4 * max_line);
    send_line(&mut w, &flood);
    let reply = recv_line(&mut r);
    assert_eq!(
        reply,
        format!("ERR bad-length: request line exceeds {max_line} bytes")
    );
    send_line(&mut w, "1 2 3");
    let reply = recv_line(&mut r);
    assert!(reply.starts_with("ERR bad-length:"), "resynced: {reply}");
    send_line(&mut w, "quit");
    drop((r, w));

    // Client 2: connects and goes silent. The idle reaper must close the
    // connection with a structured goodbye instead of pinning the thread.
    let (mut r, _w) = connect(addr);
    let reply = recv_line(&mut r);
    assert!(
        reply.starts_with("ERR timeout: idle for "),
        "idle reaper spoke: {reply}"
    );
    let mut rest = String::new();
    let got = r.read_line(&mut rest).expect("post-timeout read");
    assert_eq!(got, 0, "connection closed after the timeout reply");

    let summary = server.join().expect("server thread");
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.drain.completed, 0, "no rhs was ever admitted");
    // The timeout goodbye is written outside the reply accounting; only
    // the two structured ERR replies to client 1 count.
    assert_eq!(summary.replies, 2);
}
