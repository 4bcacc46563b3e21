//! Plain-text graph I/O.
//!
//! Two formats: a simple native edge-list (`n m` header then `u v w` lines)
//! and MatrixMarket coordinate export of the Laplacian for interop with
//! external solvers.

use crate::graph::{Graph, GraphBuilder, MAX_CAPACITY_HINT, MAX_UNTRUSTED_VERTICES};
use std::io::{BufRead, BufReader, Read, Write};

/// Appends one formatted line to the output buffer. Centralizes the
/// `fmt::Write`-into-`String` pattern so writers don't repeat the
/// infallibility argument at every call site.
fn push_line(buf: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    // audit: allow(panic-path) — fmt::Write into a String cannot fail
    buf.write_fmt(args).expect("infallible");
    buf.push('\n');
}

/// Validates an edge parsed from untrusted input and adds it to the
/// builder, converting the builder's panicking preconditions (endpoint
/// range, self-loop, weight positivity/finiteness) into `InvalidData`
/// errors so no reader can panic on malformed files.
fn add_checked_edge(
    b: &mut GraphBuilder,
    n: usize,
    u: usize,
    v: usize,
    w: f64,
) -> std::io::Result<()> {
    let err = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
    if u >= n || v >= n {
        return Err(err(format!(
            "edge ({u}, {v}) out of range for {n} vertices"
        )));
    }
    if u == v {
        return Err(err(format!("self-loop at vertex {u}")));
    }
    if !(w > 0.0 && w.is_finite()) {
        return Err(err(format!(
            "edge ({u}, {v}) weight {w} not positive finite"
        )));
    }
    // reach: trusted(endpoints, self-loops, and weights were all validated just above, so the builder's precondition assertions cannot fire)
    b.add_edge(u, v, w);
    Ok(())
}

/// Rejects a header-declared vertex count large enough to make the CSR
/// construction's `n`-sized allocations a denial-of-service vector.
fn checked_vertex_count(n: usize) -> std::io::Result<usize> {
    if n > MAX_UNTRUSTED_VERTICES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("vertex count {n} exceeds the {MAX_UNTRUSTED_VERTICES} input limit"),
        ));
    }
    Ok(n)
}

/// Reads the next line of `r` into `line`, replacing what it held, and
/// returns `false` at the end of the input. Every reader parses through
/// one such buffer, so a file costs no allocation per line. The line keeps
/// its `\n` or `\r\n` ending, which `trim` and `split_whitespace` drop;
/// text that is not UTF-8 is an `InvalidData` error.
fn next_line<R: BufRead>(r: &mut R, line: &mut String) -> std::io::Result<bool> {
    line.clear();
    Ok(r.read_line(line)? > 0)
}

/// [`next_line`] for METIS text, which skips comment lines (`%`). Every
/// other line is a record, a blank one being a vertex without neighbours.
fn next_metis_record<R: BufRead>(r: &mut R, line: &mut String) -> std::io::Result<bool> {
    while next_line(r, line)? {
        if !line.trim_start().starts_with('%') {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Writes the native edge-list format.
pub fn write_edge_list<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    let mut buf = String::new();
    push_line(
        &mut buf,
        format_args!("{} {}", g.num_vertices(), g.num_edges()),
    );
    for e in g.edges() {
        push_line(&mut buf, format_args!("{} {} {}", e.u, e.v, e.w));
    }
    w.write_all(buf.as_bytes())
}

/// Reads the native edge-list format.
pub fn read_edge_list<R: Read>(r: R) -> std::io::Result<Graph> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let parse_err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    if !next_line(&mut reader, &mut line)? {
        return Err(parse_err("empty input"));
    }
    let mut parts = line.split_whitespace();
    let n: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad vertex count"))?;
    let m: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad edge count"))?;
    let n = checked_vertex_count(n)?;
    let mut b = GraphBuilder::with_capacity(n, m.min(MAX_CAPACITY_HINT));
    while next_line(&mut reader, &mut line)? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad edge line"))?;
        let v: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad edge line"))?;
        let w: f64 = it
            .next()
            .map(|s| s.parse())
            .transpose()
            .map_err(|_| parse_err("bad weight"))?
            .unwrap_or(1.0);
        add_checked_edge(&mut b, n, u, v, w)?;
    }
    // reach: trusted(the builder holds only edges that passed add_checked_edge and a vertex count bounded by checked_vertex_count, so the CSR construction is total)
    Ok(b.build())
}

/// Writes the graph in METIS format: header `n m [fmt]` then one line per
/// vertex listing `neighbor weight` pairs (1-indexed, weights as integers
/// scaled by `weight_scale` — METIS requires integral weights).
pub fn write_metis<W: Write>(g: &Graph, weight_scale: f64, mut w: W) -> std::io::Result<()> {
    let mut buf = String::new();
    push_line(
        &mut buf,
        format_args!("{} {} 001", g.num_vertices(), g.num_edges()),
    );
    for v in 0..g.num_vertices() {
        let parts: Vec<String> = g
            .neighbors(v)
            .map(|(u, wt, _)| format!("{} {}", u + 1, ((wt * weight_scale).round() as i64).max(1)))
            .collect();
        push_line(&mut buf, format_args!("{}", parts.join(" ")));
    }
    w.write_all(buf.as_bytes())
}

/// Reads a METIS graph file with edge weights (`fmt` containing the edge
/// weight flag) or without. Weights are divided by `weight_scale`.
pub fn read_metis<R: Read>(r: R, weight_scale: f64) -> std::io::Result<Graph> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let parse_err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    if !next_metis_record(&mut reader, &mut line)? {
        return Err(parse_err("empty metis file"));
    }
    let mut hp = line.split_whitespace();
    let n: usize = hp
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad vertex count"))?;
    let m: usize = hp
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad edge count"))?;
    let fmt = hp.next().unwrap_or("0");
    let has_edge_weights = fmt.ends_with('1');
    let n = checked_vertex_count(n)?;
    let mut b = GraphBuilder::with_capacity(n, m.min(MAX_CAPACITY_HINT));
    for v in 0..n {
        if !next_metis_record(&mut reader, &mut line)? {
            break;
        }
        let mut it = line.split_whitespace();
        loop {
            let Some(tok) = it.next() else { break };
            let u: usize = tok.parse().map_err(|_| parse_err("bad neighbor"))?;
            if u == 0 {
                return Err(parse_err("METIS vertices are 1-indexed"));
            }
            let w = if has_edge_weights {
                let raw: f64 = it
                    .next()
                    .ok_or_else(|| parse_err("missing edge weight"))?
                    .parse()
                    .map_err(|_| parse_err("bad edge weight"))?;
                raw / weight_scale
            } else {
                1.0
            };
            // Each edge appears twice; add from the lower endpoint only
            // (the u - 1 <= v copies are the mirrored duplicates).
            if u - 1 > v {
                add_checked_edge(&mut b, n, v, u - 1, w)?;
            }
        }
    }
    // Lines past the last vertex are not parsed, but like the rest of the
    // file they must be readable text.
    while next_line(&mut reader, &mut line)? {}
    // reach: trusted(the builder holds only edges that passed add_checked_edge and a vertex count bounded by checked_vertex_count, so the CSR construction is total)
    Ok(b.build())
}

/// Writes the graph in DIMACS edge format (`p edge n m` header, one
/// `e u v w` line per edge, 1-indexed).
pub fn write_dimacs<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    let mut buf = String::new();
    push_line(&mut buf, format_args!("c generated by hicond"));
    push_line(
        &mut buf,
        format_args!("p edge {} {}", g.num_vertices(), g.num_edges()),
    );
    for e in g.edges() {
        push_line(&mut buf, format_args!("e {} {} {}", e.u + 1, e.v + 1, e.w));
    }
    w.write_all(buf.as_bytes())
}

/// Reads DIMACS edge format (`c` comments, `p edge n m`, `e u v [w]`).
pub fn read_dimacs<R: Read>(r: R) -> std::io::Result<Graph> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let parse_err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut builder: Option<(GraphBuilder, usize)> = None;
    while next_line(&mut reader, &mut line)? {
        let t = line.trim();
        if t.is_empty() || t.starts_with('c') {
            continue;
        }
        if let Some(rest) = t.strip_prefix("p ") {
            let mut it = rest.split_whitespace();
            let kind = it.next().unwrap_or("");
            if kind != "edge" && kind != "sp" {
                return Err(parse_err("unsupported DIMACS problem type"));
            }
            let n: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err("bad vertex count"))?;
            let m: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err("bad edge count"))?;
            let n = checked_vertex_count(n)?;
            builder = Some((GraphBuilder::with_capacity(n, m.min(MAX_CAPACITY_HINT)), n));
        } else if let Some(rest) = t.strip_prefix("e ").or_else(|| t.strip_prefix("a ")) {
            let (b, n) = builder
                .as_mut()
                .ok_or_else(|| parse_err("edge before problem line"))?;
            let mut it = rest.split_whitespace();
            let u: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err("bad edge endpoint"))?;
            let v: usize = it
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err("bad edge endpoint"))?;
            let w: f64 = it
                .next()
                .map(|s| s.parse())
                .transpose()
                .map_err(|_| parse_err("bad edge weight"))?
                .unwrap_or(1.0);
            if u == 0 || v == 0 {
                return Err(parse_err("DIMACS vertices are 1-indexed"));
            }
            if u != v {
                add_checked_edge(b, *n, u - 1, v - 1, w)?;
            }
        }
    }
    builder
        // reach: trusted(the builder holds only edges that passed add_checked_edge and a vertex count bounded by checked_vertex_count, so the CSR construction is total)
        .map(|(b, _)| b.build())
        .ok_or_else(|| parse_err("missing problem line"))
}

/// Writes the graph Laplacian in MatrixMarket coordinate format
/// (symmetric, lower triangle).
pub fn write_laplacian_matrix_market<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    let n = g.num_vertices();
    let mut buf = String::new();
    push_line(
        &mut buf,
        format_args!("%%MatrixMarket matrix coordinate real symmetric"),
    );
    push_line(
        &mut buf,
        format_args!("% graph Laplacian exported by hicond"),
    );
    // Entries: n diagonals + m lower-triangle off-diagonals.
    push_line(&mut buf, format_args!("{} {} {}", n, n, n + g.num_edges()));
    for v in 0..n {
        push_line(&mut buf, format_args!("{} {} {}", v + 1, v + 1, g.vol(v)));
    }
    for e in g.edges() {
        // MatrixMarket symmetric stores the lower triangle: row >= col.
        push_line(&mut buf, format_args!("{} {} {}", e.v + 1, e.u + 1, -e.w));
    }
    w.write_all(buf.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn edge_list_roundtrip() {
        let g = generators::triangulated_grid(4, 4, 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.num_vertices(), h.num_vertices());
        assert_eq!(g.num_edges(), h.num_edges());
        for (e, f) in g.edges().iter().zip(h.edges()) {
            assert_eq!(e.u, f.u);
            assert_eq!(e.v, f.v);
            assert!((e.w - f.w).abs() < 1e-12 * e.w.max(1.0));
        }
    }

    #[test]
    fn read_tolerates_comments_and_default_weight() {
        let text = "3 2\n# comment\n0 1\n1 2 5.0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(1, 2), 5.0);
    }

    #[test]
    fn read_rejects_garbage() {
        assert!(read_edge_list("".as_bytes()).is_err());
        assert!(read_edge_list("x y\n".as_bytes()).is_err());
        assert!(read_edge_list("2 1\n0 banana\n".as_bytes()).is_err());
    }

    #[test]
    fn metis_roundtrip() {
        let g = generators::triangulated_grid(5, 5, 4);
        let scale = 1000.0;
        let mut buf = Vec::new();
        write_metis(&g, scale, &mut buf).unwrap();
        let h = read_metis(&buf[..], scale).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for (e, f) in g.edges().iter().zip(h.edges()) {
            assert_eq!(e.u, f.u);
            assert_eq!(e.v, f.v);
            // Weights quantized to 1/scale.
            assert!(
                (e.w - f.w).abs() <= 1.0 / scale + 1e-12,
                "{} vs {}",
                e.w,
                f.w
            );
        }
    }

    #[test]
    fn metis_unweighted_read() {
        let text = "3 2 0\n2 3\n1\n1\n";
        let g = read_metis(text.as_bytes(), 1.0).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(0, 2), 1.0);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = generators::triangulated_grid(4, 5, 9);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let h = read_dimacs(&buf[..]).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for (e, f) in g.edges().iter().zip(h.edges()) {
            assert_eq!((e.u, e.v), (f.u, f.v));
            assert!((e.w - f.w).abs() < 1e-12 * e.w.max(1.0));
        }
    }

    #[test]
    fn dimacs_comments_and_default_weight() {
        let text = "c hello\np edge 3 2\ne 1 2\ne 2 3 4.5\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0, 1), 1.0);
        assert_eq!(g.edge_weight(1, 2), 4.5);
    }

    #[test]
    fn dimacs_rejects_bad_input() {
        assert!(read_dimacs("e 1 2\n".as_bytes()).is_err());
        assert!(read_dimacs("p edge 2 1\ne 0 1\n".as_bytes()).is_err());
        assert!(read_dimacs("p matching 2 1\n".as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_garbage() {
        assert!(read_metis("".as_bytes(), 1.0).is_err());
        assert!(read_metis("x\n".as_bytes(), 1.0).is_err());
    }

    #[test]
    fn edge_list_rejects_invalid_edges_without_panicking() {
        // Endpoint out of range.
        assert!(read_edge_list("2 1\n0 7 1.0\n".as_bytes()).is_err());
        // Self-loop.
        assert!(read_edge_list("3 1\n1 1 1.0\n".as_bytes()).is_err());
        // Zero, negative, and non-finite weights.
        assert!(read_edge_list("2 1\n0 1 0.0\n".as_bytes()).is_err());
        assert!(read_edge_list("2 1\n0 1 -3.0\n".as_bytes()).is_err());
        assert!(read_edge_list("2 1\n0 1 NaN\n".as_bytes()).is_err());
        assert!(read_edge_list("2 1\n0 1 inf\n".as_bytes()).is_err());
    }

    #[test]
    fn metis_rejects_invalid_edges_without_panicking() {
        // Neighbor index past the vertex count.
        assert!(read_metis("2 1 0\n9\n1\n".as_bytes(), 1.0).is_err());
        // Zero neighbor (format is 1-indexed).
        assert!(read_metis("2 1 0\n0\n1\n".as_bytes(), 1.0).is_err());
        // Negative edge weight.
        assert!(read_metis("2 1 001\n2 -5\n1 -5\n".as_bytes(), 1.0).is_err());
    }

    #[test]
    fn dimacs_rejects_invalid_edges_without_panicking() {
        // Endpoint past the declared vertex count.
        assert!(read_dimacs("p edge 2 1\ne 1 9\n".as_bytes()).is_err());
        // Bad weight.
        assert!(read_dimacs("p edge 2 1\ne 1 2 -1.0\n".as_bytes()).is_err());
        assert!(read_dimacs("p edge 2 1\ne 1 2 NaN\n".as_bytes()).is_err());
    }

    #[test]
    fn huge_header_counts_do_not_allocate() {
        // A malformed header declaring 10^15 edges must fail cleanly (the
        // capacity hint is clamped), not abort on allocation.
        let text = "3 1000000000000000\n0 1 1.0\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    /// Text variants that must read as the same graph as `clean`: CRLF
    /// line endings, no newline after the last line (with either ending),
    /// and `comment` lines — plus blank lines when `blank_between` — after
    /// every line. A METIS file gets its blank lines at the end only,
    /// since a blank line there is a vertex without neighbours.
    fn variants(clean: &str, comment: &str, blank_between: bool) -> Vec<String> {
        let crlf = clean.replace('\n', "\r\n");
        let extra = if blank_between {
            format!("{comment}\n\n")
        } else {
            format!("{comment}\n")
        };
        let interleaved: String = clean.lines().map(|l| format!("{l}\n{extra}")).collect();
        vec![
            crlf.clone(),
            clean.trim_end_matches('\n').to_string(),
            crlf.trim_end_matches("\r\n").to_string(),
            interleaved.clone(),
            interleaved.replace('\n', "\r\n"),
            format!("{clean}\n\n"),
        ]
    }

    fn assert_same_graph(g: &Graph, h: &Graph, what: &str) {
        assert_eq!(g.num_vertices(), h.num_vertices(), "{what}");
        assert_eq!(g.edges(), h.edges(), "{what}");
    }

    /// A weighted graph whose last vertex is isolated.
    fn with_isolated_vertex() -> Graph {
        Graph::from_edges(
            6,
            &[
                (0, 1, 1.5),
                (1, 2, 2.0),
                (2, 0, 3.0),
                (2, 3, 0.5),
                (3, 4, 4.0),
            ],
        )
    }

    #[test]
    fn edge_list_reads_crlf_unterminated_blank_and_comment_lines() {
        let mut buf = Vec::new();
        write_edge_list(&with_isolated_vertex(), &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let g = read_edge_list(clean.as_bytes()).unwrap();
        for (i, text) in variants(&clean, "# comment", true).iter().enumerate() {
            let h = read_edge_list(text.as_bytes()).unwrap();
            assert_same_graph(&g, &h, &format!("edge-list variant {i}"));
        }
    }

    #[test]
    fn metis_reads_crlf_unterminated_blank_and_comment_lines() {
        let mut buf = Vec::new();
        write_metis(&with_isolated_vertex(), 2.0, &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        // The isolated vertex is a blank record line.
        assert!(clean.ends_with("\n\n"), "{clean:?}");
        let g = read_metis(clean.as_bytes(), 2.0).unwrap();
        assert_eq!(g.num_vertices(), 6);
        for (i, text) in variants(&clean, "% comment", false).iter().enumerate() {
            let h = read_metis(text.as_bytes(), 2.0).unwrap();
            assert_same_graph(&g, &h, &format!("METIS variant {i}"));
        }
    }

    #[test]
    fn dimacs_reads_crlf_unterminated_blank_and_comment_lines() {
        let mut buf = Vec::new();
        write_dimacs(&with_isolated_vertex(), &mut buf).unwrap();
        let clean = String::from_utf8(buf).unwrap();
        let g = read_dimacs(clean.as_bytes()).unwrap();
        for (i, text) in variants(&clean, "c comment", true).iter().enumerate() {
            let h = read_dimacs(text.as_bytes()).unwrap();
            assert_same_graph(&g, &h, &format!("DIMACS variant {i}"));
        }
    }

    #[test]
    fn readers_reject_invalid_utf8() {
        let texts: [&[u8]; 3] = [
            b"3 1\n0 1 1.0\n\xff\xfe\n",
            b"3 1 0\n2\n1\n\n\xff\n",
            b"p edge 3 1\ne 1 2\n\xff\n",
        ];
        let kinds = [
            read_edge_list(texts[0]).unwrap_err().kind(),
            read_metis(texts[1], 1.0).unwrap_err().kind(),
            read_dimacs(texts[2]).unwrap_err().kind(),
        ];
        assert_eq!(kinds, [std::io::ErrorKind::InvalidData; 3]);
    }

    #[test]
    fn matrix_market_header_and_counts() {
        let g = generators::path(3, |_| 2.0);
        let mut buf = Vec::new();
        write_laplacian_matrix_market(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("%%MatrixMarket"));
        let header = lines.find(|l| !l.starts_with('%')).unwrap();
        assert_eq!(header, "3 3 5");
        // Entry count matches declared.
        let entries = text.lines().filter(|l| !l.starts_with('%')).skip(1).count();
        assert_eq!(entries, 5);
    }
}
