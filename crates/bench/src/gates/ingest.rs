//! `ingest` section — MatrixMarket parse and graph build, the first two
//! stages of every `nbwp estimate --input` request.
//!
//! Every Table II input is generated, written by `write_matrix_market`
//! and read back; the parse must equal the generator's `Csr` bitwise. Two
//! re-encodings of each input take the reader's other paths: its lower
//! triangle written `symmetric` in column-major order (the sorting path;
//! it must read back as the triangle mirrored) and its pattern written
//! `pattern general` (it must read back with unit values). The graph
//! `Graph::from_matrix` builds must equal `Graph::from_edges` over the
//! matrix's off-diagonal entries. These parity gates are enforced in
//! every mode; parse throughput and build time are recorded, and only
//! gated positive in full mode.

use nbwp_datasets::Dataset;
use nbwp_graph::Graph;
use nbwp_sparse::io::{read_matrix_market, write_matrix_market};
use nbwp_sparse::{Coo, Csr};
use serde::{Serialize, Value};

use super::{Config, QUICK_SKIP};
use crate::harness::{best_ms, Gates};

#[derive(Serialize)]
struct Entry {
    input: String,
    bytes: usize,
    nnz: usize,
    parse_ms: f64,
    build_ms: f64,
}

#[derive(Serialize)]
struct Body {
    scale: f64,
    repetitions: usize,
    /// Bytes of every input over the summed best-of-N parse times.
    parse_mb_per_s: f64,
    /// Summed best-of-N `Graph::from_matrix` time over every input.
    build_ms: f64,
    entries: Vec<Entry>,
}

/// A `coordinate <header>` file of `shape`'s size holding `entries`
/// (0-based; no value written for `None`).
fn encode(header: &str, shape: &Csr, entries: &[(usize, u32, Option<f64>)]) -> Vec<u8> {
    use std::fmt::Write;
    let mut text = format!("%%MatrixMarket matrix coordinate {header}\n");
    let _ = writeln!(text, "{} {} {}", shape.rows(), shape.cols(), entries.len());
    for &(r, c, v) in entries {
        let _ = match v {
            Some(v) => writeln!(text, "{} {} {v}", r + 1, c + 1),
            None => writeln!(text, "{} {}", r + 1, c + 1),
        };
    }
    text.into_bytes()
}

/// `m`'s lower triangle in column-major order, as a `real symmetric`
/// file, and the matrix it stands for.
fn symmetric_encoding(m: &Csr) -> (Vec<u8>, Csr) {
    let mut lower: Vec<(usize, u32, f64)> = m.iter().filter(|&(r, c, _)| c as usize <= r).collect();
    lower.sort_by_key(|&(r, c, _)| (c, r));
    let mut mirrored = Coo::new(m.rows(), m.cols());
    for &(r, c, v) in &lower {
        mirrored.push_symmetric(r, c as usize, v);
    }
    let entries: Vec<_> = lower.iter().map(|&(r, c, v)| (r, c, Some(v))).collect();
    (encode("real symmetric", m, &entries), mirrored.into_csr())
}

/// `m`'s pattern as a `pattern general` file, and `m` with unit values.
fn pattern_encoding(m: &Csr) -> (Vec<u8>, Csr) {
    let entries: Vec<_> = m.iter().map(|(r, c, _)| (r, c, None)).collect();
    let ones = Csr::from_raw(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_indices().to_vec(),
        vec![1.0; m.nnz()],
    );
    (encode("pattern general", m, &entries), ones)
}

/// Runs the section.
pub fn run(cfg: &Config, gates: &mut Gates) -> Value {
    let (scale, reps) = if cfg.quick { (0.002, 1) } else { (0.01, 5) };
    let mut entries = Vec::new();
    for d in Dataset::all() {
        let m = d.matrix(scale, cfg.seed);
        let mut text = Vec::new();
        write_matrix_market(&m, &mut text).expect("writing to memory cannot fail");
        let parsed = read_matrix_market(&text[..]);
        gates.check(
            format_args!("{}.parse_parity", d.name),
            parsed.as_ref().is_ok_and(|p| *p == m),
        );
        for (encoding, (bytes, want)) in [
            ("symmetric", symmetric_encoding(&m)),
            ("pattern", pattern_encoding(&m)),
        ] {
            let back = read_matrix_market(&bytes[..]);
            gates.check(
                format_args!("{}.{encoding}_parity", d.name),
                back.is_ok_and(|b| b == want),
            );
        }
        let off_diagonal: Vec<(u32, u32)> = m
            .iter()
            .filter(|&(r, c, _)| r != c as usize)
            .map(|(r, c, _)| (r as u32, c))
            .collect();
        gates.check(
            format_args!("{}.graph_parity", d.name),
            Graph::from_matrix(&m) == Graph::from_edges(m.rows(), &off_diagonal),
        );

        let parse_ms = best_ms(reps, || {
            std::hint::black_box(read_matrix_market(&text[..]).ok());
        });
        let build_ms = best_ms(reps, || {
            std::hint::black_box(Graph::from_matrix(&m));
        });
        let mb_per_s = text.len() as f64 / 1e3 / parse_ms;
        eprintln!(
            "  {:<14} {:>9} B  parse {parse_ms:7.2} ms ({mb_per_s:6.1} MB/s)  build {build_ms:6.2} ms",
            d.name,
            text.len()
        );
        entries.push(Entry {
            input: d.name.to_string(),
            bytes: text.len(),
            nnz: m.nnz(),
            parse_ms,
            build_ms,
        });
    }

    let bytes: usize = entries.iter().map(|e| e.bytes).sum();
    let parse_ms: f64 = entries.iter().map(|e| e.parse_ms).sum();
    let build_ms: f64 = entries.iter().map(|e| e.build_ms).sum();
    let parse_mb_per_s = bytes as f64 / 1e3 / parse_ms;
    eprintln!("  all inputs: {bytes} B  parse {parse_mb_per_s:.1} MB/s  build {build_ms:.2} ms");
    gates
        .check(
            "timings_positive",
            parse_mb_per_s > 0.0 && parse_mb_per_s.is_finite() && build_ms > 0.0,
        )
        .skip_if(cfg.quick, QUICK_SKIP);

    Body {
        scale,
        repetitions: reps,
        parse_mb_per_s,
        build_ms,
        entries,
    }
    .to_value()
}
