//! Adversarial corpus for the untrusted surface certified by `xtask reach`
//! (see `REACHABILITY.md`): every decode entry point and the serve protocol
//! handler are driven with random bytes, truncations at every boundary,
//! and length-field corruption — including corruptions hidden behind
//! *recomputed* checksums, so the payload decoders themselves are
//! exercised, not just the container CRC wall.
//!
//! Three properties are asserted for every malicious input:
//!
//! 1. **No panic** — the call returns (the harness would abort otherwise).
//! 2. **Structured error** — corrupt input yields `Err`, never a value.
//! 3. **Bounded allocation** — peak heap growth while rejecting a
//!    malicious buffer is proportional to the *input* size, never to a
//!    length field the attacker wrote. A counting global allocator
//!    tracks live bytes; decoding a corrupt artifact of `L` bytes may
//!    not grow the heap by more than `ALLOC_FACTOR * L + ALLOC_SLACK`.
//!
//! Tests that measure allocation serialize on a global lock so peaks are
//! attributable; randomness comes from a fixed-seed LCG (reproducible).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use hicond::artifact::{
    crc32, decode_exact, encode_to_vec, ArtifactReader, ArtifactWriter, Decode, Encode,
};
use hicond::graph::{generators, io};
use hicond::linalg::csr::{CooBuilder, CsrMatrix};
use hicond::linalg::dense::{CholeskyFactor, DenseMatrix};
use hicond::precond::{decode_solver, encode_solver, LaplacianSolver, SolverOptions};
use hicond::serve::{
    read_bounded_line, respond, respond_batched, Action, BatchConfig, BatchQueue, LineEvent,
};

// ---------------------------------------------------------------------------
// Counting allocator: tracks live bytes and the high-water mark.
// ---------------------------------------------------------------------------

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct PeakTrackingAllocator;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: a stateless pass-through wrapper — every method delegates to
// `System` with the caller's exact arguments, so `System`'s GlobalAlloc
// contract is preserved unchanged; the atomic bookkeeping does not touch
// the returned memory.
unsafe impl GlobalAlloc for PeakTrackingAllocator {
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        // SAFETY: `ptr` was produced by the matching `System.alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: caller upholds GlobalAlloc's contract; forwarded to System.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size());
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` pair is the caller's live allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PeakTrackingAllocator = PeakTrackingAllocator;

/// All tests serialize on this lock so the peak tracker measures exactly
/// one adversarial call at a time.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Peak heap growth (bytes above the starting live level) while running `f`.
fn peak_growth_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    let peak = PEAK.load(Ordering::SeqCst);
    (out, peak.saturating_sub(base))
}

/// A rejected decode of `len` input bytes may allocate scratch and error
/// strings, but never a buffer sized by an attacker-written length field.
const ALLOC_FACTOR: usize = 32;
const ALLOC_SLACK: usize = 1 << 20;

fn alloc_bound(input_len: usize) -> usize {
    ALLOC_FACTOR * input_len + ALLOC_SLACK
}

// ---------------------------------------------------------------------------
// Deterministic corpus generation (no entropy sources: reproducible).
// ---------------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        // Knuth's MMIX constants.
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

fn small_solver() -> LaplacianSolver {
    let g = generators::grid2d(6, 6, |_, _| 1.0);
    LaplacianSolver::new(&g, &SolverOptions::default())
}

fn small_csr() -> CsrMatrix {
    let n = 8;
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.push(i, i, 4.0);
        if i + 1 < n {
            b.push_sym(i, i + 1, -1.0);
        }
    }
    b.build()
}

/// Asserts that `decode(bytes)` errors without panicking and without
/// allocation amplification, for every mutation in the standard corpus:
/// every truncation, single-byte corruption at every offset, and
/// length-field-style 8-byte stomps at every 8-aligned offset.
fn assert_rejects_corpus<E: std::fmt::Debug>(
    label: &str,
    valid: &[u8],
    mut decode: impl FnMut(&[u8]) -> Result<(), E>,
) {
    let mut rng = Lcg(0x5eed_0000 ^ valid.len() as u64);

    // Every truncation of the valid encoding must be rejected.
    for cut in 0..valid.len() {
        let input = &valid[..cut];
        let (out, peak) = peak_growth_during(|| decode(input));
        assert!(out.is_err(), "{label}: truncation to {cut} bytes accepted");
        assert!(
            peak <= alloc_bound(cut),
            "{label}: truncation to {cut} bytes allocated {peak} bytes"
        );
    }

    // Single-byte corruption at every offset. A flip may land in value
    // bytes (f64 payloads, weights) and still decode — that is fine; the
    // assertions are no-panic and bounded allocation, with the error path
    // merely being the common case.
    for i in 0..valid.len() {
        let mut copy = valid.to_vec();
        copy[i] ^= 1 << rng.below(8);
        let (_, peak) = peak_growth_during(|| decode(&copy));
        assert!(
            peak <= alloc_bound(copy.len()),
            "{label}: bit flip at byte {i} allocated {peak} bytes"
        );
    }

    // Stomp whole 8-byte words with extreme values — the shape most
    // likely to be interpreted as a huge length or vertex count.
    for word in [u64::MAX, u64::MAX / 2, 1 << 60, 0] {
        for off in (0..valid.len().saturating_sub(8)).step_by(8) {
            let mut copy = valid.to_vec();
            copy[off..off + 8].copy_from_slice(&word.to_le_bytes());
            let (_, peak) = peak_growth_during(|| decode(&copy));
            assert!(
                peak <= alloc_bound(copy.len()),
                "{label}: word {word:#x} at offset {off} allocated {peak} bytes"
            );
        }
    }

    // Random byte soup of assorted sizes.
    for len in [0, 1, 7, 64, 257, 4096] {
        let noise = rng.bytes(len);
        let (out, peak) = peak_growth_during(|| decode(&noise));
        assert!(out.is_err(), "{label}: {len} random bytes accepted");
        assert!(
            peak <= alloc_bound(len),
            "{label}: {len} random bytes allocated {peak} bytes"
        );
    }
}

fn corpus_for<T: Encode + Decode>(label: &str, value: &T) {
    let valid = encode_to_vec(value);
    // Sanity: the unmutated encoding must decode.
    assert!(
        decode_exact::<T>(&valid).is_ok(),
        "{label}: valid encoding failed to decode"
    );
    assert_rejects_corpus(label, &valid, |bytes| decode_exact::<T>(bytes).map(|_| ()));
}

// ---------------------------------------------------------------------------
// Entry point: decode_exact payload decoders (no CRC wall in front).
// ---------------------------------------------------------------------------

#[test]
fn csr_decode_rejects_corpus() {
    let _guard = lock();
    corpus_for("CsrMatrix", &small_csr());
}

#[test]
fn dense_and_cholesky_decode_reject_corpus() {
    let _guard = lock();
    let a = DenseMatrix::from_rows(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 5.0]);
    corpus_for("DenseMatrix", &a);
    let f = CholeskyFactor::factor(&a).expect("SPD sample must factor");
    corpus_for("CholeskyFactor", &f);
}

// ---------------------------------------------------------------------------
// Entry point: ArtifactReader::parse + decode_solver (full container).
// ---------------------------------------------------------------------------

#[test]
fn solver_container_rejects_corpus() {
    let _guard = lock();
    let bytes = encode_solver(&small_solver());
    assert!(decode_solver(&bytes).is_ok(), "valid solver must decode");
    assert_rejects_corpus("solver container", &bytes, |b| decode_solver(b).map(|_| ()));
}

/// Corruptions hidden behind *recomputed* checksums: rebuild the container
/// around a mutated payload so every CRC verifies and the payload decoder
/// itself must reject the bytes. This is the path a malicious cache entry
/// (written, not bit-rotted) takes.
#[test]
fn solver_payload_corruption_behind_valid_crcs_rejected() {
    let _guard = lock();
    let valid = encode_solver(&small_solver());
    let reader = ArtifactReader::parse(&valid).expect("valid container");
    let sections: Vec<(u32, Vec<u8>)> = reader
        .sections()
        .iter()
        .map(|&(tag, p)| (tag, p.to_vec()))
        .collect();
    let kind = reader.kind();
    drop(reader);
    let rebuild = |sections: &[(u32, Vec<u8>)]| -> Vec<u8> {
        let mut w = ArtifactWriter::new(kind);
        for (tag, payload) in sections {
            w.raw_section(*tag, payload.clone());
        }
        w.finish()
    };
    // Unmutated rebuild must still decode (raw_section path sanity).
    assert!(decode_solver(&rebuild(&sections)).is_ok());

    let mut rng = Lcg(0xc0ffee);
    for (si, (_, payload)) in sections.iter().enumerate() {
        // Truncate the payload at a spread of boundaries.
        for cut in [0, 1, payload.len() / 2, payload.len().saturating_sub(1)] {
            let mut mutated = sections.clone();
            mutated[si].1.truncate(cut);
            let bytes = rebuild(&mutated);
            let (out, peak) = peak_growth_during(|| decode_solver(&bytes));
            assert!(
                out.is_err(),
                "section {si} truncated to {cut} bytes accepted behind valid CRCs"
            );
            assert!(peak <= alloc_bound(bytes.len()));
        }
        // Stomp 8-byte words (length/count fields) with huge values.
        for _ in 0..64 {
            let mut mutated = sections.clone();
            if payload.len() >= 8 {
                let off = rng.below(payload.len() - 7);
                let word = match rng.below(3) {
                    0 => u64::MAX,
                    1 => 1 << 48,
                    _ => rng.next_u64(),
                };
                mutated[si].1[off..off + 8].copy_from_slice(&word.to_le_bytes());
            }
            let bytes = rebuild(&mutated);
            let (_, peak) = peak_growth_during(|| decode_solver(&bytes));
            assert!(
                peak <= alloc_bound(bytes.len()),
                "section {si} word stomp allocated {peak} bytes"
            );
        }
    }
}

#[test]
fn container_parse_rejects_raw_noise() {
    let _guard = lock();
    let mut rng = Lcg(0xdead_beef);
    for len in [0, 7, 8, 19, 20, 24, 63, 512, 8192] {
        let noise = rng.bytes(len);
        let (out, peak) = peak_growth_during(|| ArtifactReader::parse(&noise).map(|_| ()));
        assert!(out.is_err(), "{len} random bytes parsed as a container");
        assert!(peak <= alloc_bound(len));
    }
    // Valid magic + garbage after it.
    for len in [16, 20, 24, 64, 1024] {
        let mut noise = rng.bytes(len);
        let take = hicond::artifact::MAGIC.len().min(noise.len());
        noise[..take].copy_from_slice(&hicond::artifact::MAGIC[..take]);
        let (out, peak) = peak_growth_during(|| ArtifactReader::parse(&noise).map(|_| ()));
        assert!(out.is_err(), "magic + {len} garbage bytes parsed");
        assert!(peak <= alloc_bound(len));
    }
    let _ = crc32(b"keep the crc entry point linked");
}

// ---------------------------------------------------------------------------
// Entry point: graph text readers.
// ---------------------------------------------------------------------------

#[test]
fn text_readers_reject_corpus() {
    let _guard = lock();
    let mut rng = Lcg(0x7ea7);
    let mut hostile: Vec<String> = vec![
        String::new(),
        "0 0".into(),
        "1 0".into(),
        "99999999999999999999 1".into(), // overflows usize
        "18446744073709551615 1".into(), // u64::MAX vertices
        "4 2\n0 1 1.0\n2 3 nan".into(),
        "4 2\n0 1 1.0\n2 3 -1.0".into(),
        "4 2\n0 1 1.0\n3 3 1.0".into(),           // self loop
        "4 2\n0 9 1.0".into(),                    // endpoint out of range
        "4 18446744073709551615\n0 1 1.0".into(), // absurd edge count
        "2 1\n0 1 1e309".into(),                  // weight overflows f64
    ];
    for len in [1, 17, 256, 4096] {
        hostile.push(String::from_utf8_lossy(&rng.bytes(len)).into_owned());
    }
    for (i, text) in hostile.iter().enumerate() {
        for reader in [
            (|t: &str| io::read_edge_list(t.as_bytes()).map(|_| ())) as fn(&str) -> _,
            |t: &str| io::read_metis(t.as_bytes(), 1.0).map(|_| ()),
            |t: &str| io::read_dimacs(t.as_bytes()).map(|_| ()),
        ] {
            // No panic, bounded allocation; most inputs also error, but a
            // reader is allowed to see an empty graph in degenerate text.
            let (_, peak) = peak_growth_during(|| reader(text));
            assert!(
                peak <= alloc_bound(text.len()) + 64 * hicond::graph::MAX_CAPACITY_HINT,
                "hostile text #{i} allocated {peak} bytes"
            );
        }
    }
    // A claimed vertex count beyond the input limit must be rejected
    // before any allocation proportional to it.
    let absurd = format!("{} 1\n0 1 1.0", (1usize << 26) + 1);
    let (out, peak) = peak_growth_during(|| io::read_edge_list(absurd.as_bytes()));
    assert!(out.is_err(), "over-limit vertex count accepted");
    assert!(peak <= alloc_bound(absurd.len()));
}

// ---------------------------------------------------------------------------
// Entry point: `hicond serve` request handling.
// ---------------------------------------------------------------------------

#[test]
fn serve_protocol_rejects_corpus() {
    let _guard = lock();
    let solver = small_solver();
    let n = solver.dim();
    let stats = hicond::serve::ServeStats::new();
    let good_rhs = {
        let mut parts: Vec<String> = (0..n)
            .map(|i| format!("{}", (i % 5) as f64 - 2.0))
            .collect();
        // Deflate so the singular system stays consistent.
        let mean: f64 = parts
            .iter()
            .map(|s| s.parse::<f64>().unwrap_or(0.0))
            .sum::<f64>()
            / n as f64;
        parts = (0..n)
            .map(|i| format!("{}", (i % 5) as f64 - 2.0 - mean))
            .collect();
        parts.join(" ")
    };
    match respond(&solver, n, &good_rhs, &stats) {
        Action::Reply(r) => assert!(r.starts_with("ok "), "good request got: {r}"),
        other => panic!("good request got {other:?}"),
    }

    let mut rng = Lcg(0x5e12e);
    let mut hostile: Vec<String> = vec![
        "".into(),
        "   ".into(),
        "quit now".into(),
        "nan".repeat(n),
        vec!["inf"; n].join(" "),
        vec!["1.0"; n + 1].join(" "),
        vec!["1.0"; n.saturating_sub(1)].join(" "),
        "1e999 ".repeat(n),
        "- - -".into(),
        "\u{0}\u{1}\u{2}".into(),
    ];
    for len in [1, 32, 1024, 65536] {
        hostile.push(String::from_utf8_lossy(&rng.bytes(len)).into_owned());
    }
    for (i, line) in hostile.iter().enumerate() {
        let (action, peak) = peak_growth_during(|| respond(&solver, n, line, &stats));
        match action {
            Action::Reply(r) => assert!(
                r.starts_with("ok ") || r.starts_with("ERR "),
                "hostile line #{i} got unstructured reply: {r}"
            ),
            Action::Ignore | Action::Quit => {}
        }
        // Reply and scratch are sized by the solver dimension (operator
        // trusted) plus the input line, never by peer-claimed counts.
        assert!(
            peak <= alloc_bound(line.len()) + 64 * n * std::mem::size_of::<f64>(),
            "hostile line #{i} ({} bytes) allocated {peak} bytes",
            line.len()
        );
    }
    // The session survives all of that: a good request still succeeds.
    match respond(&solver, n, &good_rhs, &stats) {
        Action::Reply(r) => assert!(r.starts_with("ok "), "post-abuse request got: {r}"),
        other => panic!("post-abuse request got {other:?}"),
    }
    assert_eq!(respond(&solver, n, "quit", &stats), Action::Quit);
    assert_eq!(respond(&solver, n, "  ", &stats), Action::Ignore);
}

/// The batched handler faces the same untrusted lines as `respond`, plus
/// its own failure modes (shed, dispatcher gone). Same three properties:
/// no panic, structured replies only, allocation bounded by the input
/// line and the operator-trusted solver dimension.
#[test]
fn serve_batched_protocol_rejects_corpus() {
    let _guard = lock();
    let solver = std::sync::Arc::new(small_solver());
    let n = solver.dim();
    let stats = std::sync::Arc::new(hicond::serve::ServeStats::new());
    // Size trigger 1: every admitted rhs dispatches immediately, so the
    // handler's blocking recv always resolves without timing luck.
    let queue = BatchQueue::new(BatchConfig {
        max_batch: 1,
        window: std::time::Duration::from_millis(1),
        max_inflight: 4,
    });
    let dispatcher = queue.start(
        std::sync::Arc::clone(&solver),
        std::sync::Arc::clone(&stats),
    );

    let good_rhs = {
        let raw: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let mean: f64 = raw.iter().sum::<f64>() / n as f64;
        raw.iter()
            .map(|v| format!("{}", v - mean))
            .collect::<Vec<_>>()
            .join(" ")
    };
    match respond_batched(&queue, n, &good_rhs, &stats) {
        Action::Reply(r) => assert!(r.starts_with("ok "), "good request got: {r}"),
        other => panic!("good request got {other:?}"),
    }

    let mut rng = Lcg(0xba7c4);
    let mut hostile: Vec<String> = vec![
        "".into(),
        "stats".into(),
        "metrics".into(),
        "nan ".repeat(n),
        vec!["1.0"; n + 1].join(" "),
        vec!["1.0"; n.saturating_sub(1)].join(" "),
        "1e999 ".repeat(n),
        "\u{0}\u{1}\u{2}".into(),
    ];
    for len in [1, 32, 1024, 65536] {
        hostile.push(String::from_utf8_lossy(&rng.bytes(len)).into_owned());
    }
    for (i, line) in hostile.iter().enumerate() {
        let (action, peak) = peak_growth_during(|| respond_batched(&queue, n, line, &stats));
        match action {
            Action::Reply(r) => assert!(
                r.starts_with("ok ") || r.starts_with("ERR ") || r.starts_with('{'),
                "hostile line #{i} got unstructured reply: {r:.80}"
            ),
            Action::Ignore | Action::Quit => {}
        }
        assert!(
            peak <= alloc_bound(line.len()) + 64 * n * std::mem::size_of::<f64>(),
            "hostile line #{i} ({} bytes) allocated {peak} bytes",
            line.len()
        );
    }
    // Still alive: a good request after the abuse round-trips the queue.
    match respond_batched(&queue, n, &good_rhs, &stats) {
        Action::Reply(r) => assert!(r.starts_with("ok "), "post-abuse request got: {r}"),
        other => panic!("post-abuse request got {other:?}"),
    }

    // After shutdown the handler must shed structurally, never hang: the
    // queue refuses new work and the reply is `ERR busy`.
    queue.shutdown();
    dispatcher.join();
    match respond_batched(&queue, n, &good_rhs, &stats) {
        Action::Reply(r) => assert!(r.starts_with("ERR busy:"), "post-shutdown got: {r}"),
        other => panic!("post-shutdown request got {other:?}"),
    }
    assert_eq!(respond_batched(&queue, n, "quit", &stats), Action::Quit);
}

// ---------------------------------------------------------------------------
// Entry point: the bounded line reader (first touch of untrusted bytes).
// ---------------------------------------------------------------------------

/// Drives `read_bounded_line` with newline-free floods, embedded NULs,
/// random soup, and pathological chunkings. Whatever arrives, the reader
/// must return a structured event and never buffer more than the limit
/// (plus the transport's own fixed-size buffer).
#[test]
fn bounded_reader_survives_hostile_streams() {
    let _guard = lock();
    let mut rng = Lcg(0x11e5);
    const LIMIT: usize = 512;
    // Reader scratch is one limit-sized line buffer + BufReader's 8 KiB
    // internal buffer + the returned String.
    let reader_bound = |input_len: usize| 4 * LIMIT + (8 << 10) + input_len.min(LIMIT) + 4096;

    let mut streams: Vec<Vec<u8>> = vec![
        Vec::new(),
        b"\n".to_vec(),
        b"\r\n\r\n".to_vec(),
        vec![0u8; 64],
        vec![b'\n'; 1024],
        vec![b'x'; 1 << 20], // megabyte flood, no newline
        [b"ok".to_vec(), vec![0xff; LIMIT * 2], b"\nafter\n".to_vec()].concat(),
    ];
    for len in [1, 63, LIMIT - 1, LIMIT, LIMIT + 1, 16 * LIMIT] {
        streams.push(rng.bytes(len));
    }
    for (i, stream) in streams.iter().enumerate() {
        let mut r = std::io::Cursor::new(stream.as_slice());
        // Drain the stream to EOF; every event must be structured and
        // every returned line must respect the limit.
        let mut events = 0usize;
        loop {
            let (event, peak) = peak_growth_during(|| read_bounded_line(&mut r, LIMIT));
            assert!(
                peak <= reader_bound(stream.len()),
                "stream #{i}: one read allocated {peak} bytes"
            );
            events += 1;
            assert!(
                events <= stream.len() + 2,
                "stream #{i}: reader failed to make progress"
            );
            match event {
                // Lossy decoding maps each invalid byte to U+FFFD
                // (3 bytes), so the String may be up to 3× the byte cap.
                LineEvent::Line(s) => {
                    assert!(s.len() <= 3 * LIMIT, "stream #{i}: line over limit")
                }
                LineEvent::TooLong { limit } => assert_eq!(limit, LIMIT),
                LineEvent::Eof => break,
                LineEvent::TimedOut | LineEvent::Err(_) => {
                    panic!("stream #{i}: in-memory cursor cannot time out or fail")
                }
            }
        }
    }
}
