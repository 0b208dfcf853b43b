//! Contract tests for the MatrixMarket reader.
//!
//! * A hand-written corpus of well-formed and malformed files, each with the
//!   outcome the line-by-line `str` reader produced: the `Csr` bits or the
//!   exact error text. Every file is read whole from a `&[u8]` and through
//!   tiny `BufReader`s, so lines straddle chunk boundaries.
//! * Size-line faults (huge `nnz`, dimensions past `u32` indices) are
//!   typed errors, not panics.
//! * Write → read round trips are bitwise on random shapes and values.

use std::io::BufReader;

use nbwp_sparse::io::{read_matrix_market, write_matrix_market, MmError};
use nbwp_sparse::{Coo, Csr};
use proptest::prelude::*;

/// The reader's outcome in a comparable form: shape, row pointers, column
/// indices and value bits, or the error text.
fn outcome(r: Result<Csr, MmError>) -> String {
    match r {
        Ok(m) => format!(
            "{}x{} ptr={:?} col={:?} val={:x?}",
            m.rows(),
            m.cols(),
            m.row_ptr(),
            m.col_indices(),
            m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Reads `bytes` whole and through 1- and 7-byte buffers; all three
/// outcomes must agree.
fn read_every_way(bytes: &[u8]) -> String {
    let whole = outcome(read_matrix_market(bytes));
    for cap in [1, 7] {
        let chunked = outcome(read_matrix_market(BufReader::with_capacity(cap, bytes)));
        assert_eq!(chunked, whole, "capacity {cap} disagrees on {bytes:?}");
    }
    whole
}

const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n";

/// `(name, file, outcome)`.
fn corpus() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    let g = |body: &str| format!("{GENERAL}{body}").into_bytes();
    let raw = |head: &str, body: &[u8]| [head.as_bytes(), body].concat();
    vec![
        (
            "crlf",
            b"%%MatrixMarket matrix coordinate real general\r\n% c\r\n3 3 3\r\n1 1 1.5\r\n2 3 -2\r\n3 2 4e-3\r\n".to_vec(),
            "3x3 ptr=[0, 1, 2, 3] col=[0, 2, 1] val=[3ff8000000000000, c000000000000000, 3f70624dd2f1a9fc]",
        ),
        ("tab_vt_ff_separators", g("3\t3\t2\n1\x0b1\x0c2.5\n3\t \t3   7\n"), "3x3 ptr=[0, 1, 1, 2] col=[0, 2] val=[4004000000000000, 401c000000000000]"),
        ("trailing_blanks", g("2 2 2   \n1 1 1.0   \t\n2 2 2.0 \x0b\x0c\r\n"), "2x2 ptr=[0, 1, 2] col=[0, 1] val=[3ff0000000000000, 4000000000000000]"),
        ("leading_blanks", g("  \t2 2 1\n \t 2 1 0.5\n"), "2x2 ptr=[0, 0, 1] col=[0] val=[3fe0000000000000]"),
        (
            "comments_and_blanks_after_size",
            g("2 2 2\n\n% comment\n   \n1 2 3\n%x\n\r\n2 1 4\n\n"),
            "2x2 ptr=[0, 1, 2] col=[1, 0] val=[4008000000000000, 4010000000000000]",
        ),
        ("comments_before_size", g("% a\n\n   \n%b\n\t2 2 1 \n2 2 1\n"), "2x2 ptr=[0, 0, 1] col=[1] val=[3ff0000000000000]"),
        ("plus_index", g("2 2 1\n+2 +1 5\n"), "2x2 ptr=[0, 0, 1] col=[0] val=[4014000000000000]"),
        ("leading_zeros", g("10 10 2\n007 0010 1\n0008 1 2\n"), "10x10 ptr=[0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 2] col=[9, 0] val=[3ff0000000000000, 4000000000000000]"),
        ("twenty_digit_row", g("2 2 1\n18446744073709551616 1 1\n"), "error: parse error: bad row index"),
        ("twenty_digit_col", g("2 2 1\n1 99999999999999999999 1\n"), "error: parse error: bad col index"),
        ("u64_max_row", g("2 2 1\n18446744073709551615 1 1\n"), "error: parse error: entry (18446744073709551615, 1) out of bounds"),
        ("negative_row", g("2 2 1\n-1 1 1\n"), "error: parse error: bad row index"),
        ("lone_plus_col", g("2 2 1\n1 + 1\n"), "error: parse error: bad col index"),
        ("double_plus", g("2 2 1\n++1 1 1\n"), "error: parse error: bad row index"),
        ("extra_trailing_tokens", g("2 2 1\n1 1 2.0 extra tokens 9\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[4000000000000000]"),
        ("missing_value", g("2 2 1\n1 1\n"), "error: parse error: missing value"),
        ("missing_col", g("2 2 1\n1\n"), "error: parse error: missing col"),
        ("bad_value", g("2 2 1\n1 1 abc\n"), "error: parse error: bad value"),
        ("bad_value_before_bounds", g("2 2 1\n3 1 abc\n"), "error: parse error: bad value"),
        ("out_of_bounds_row", g("2 2 1\n3 1 1.0\n"), "error: parse error: entry (3, 1) out of bounds"),
        ("out_of_bounds_col", g("2 2 1\n1 3 1.0\n"), "error: parse error: entry (1, 3) out of bounds"),
        ("zero_index", g("2 2 1\n0 1 1.0\n"), "error: parse error: entry (0, 1) out of bounds"),
        ("more_entries_than_nnz", g("2 2 1\n1 1 1\n2 2 2\n"), "error: parse error: expected 1 entries, found 2"),
        ("fewer_entries_than_nnz", g("2 2 3\n1 1 1\n"), "error: parse error: expected 3 entries, found 1"),
        (
            "symmetric_mirroring",
            raw(
                "%%MatrixMarket matrix coordinate real symmetric\n",
                b"3 3 4\n1 1 1\n3 1 2\n3 2 -1\n3 2 0.25\n",
            ),
            "3x3 ptr=[0, 2, 3, 5] col=[0, 2, 2, 0, 1] val=[3ff0000000000000, 4000000000000000, bfe8000000000000, 4000000000000000, bfe8000000000000]",
        ),
        (
            "symmetric_pattern",
            raw(
                "%%MatrixMarket matrix coordinate pattern symmetric\n",
                b"3 3 2\n2 1\n3 3\n",
            ),
            "3x3 ptr=[0, 1, 2, 3] col=[1, 0, 2] val=[3ff0000000000000, 3ff0000000000000, 3ff0000000000000]",
        ),
        (
            "pattern_carrying_values",
            raw(
                "%%MatrixMarket matrix coordinate pattern general\n",
                b"2 2 2\n1 2 9.5\n2 1 junk\n",
            ),
            "2x2 ptr=[0, 1, 2] col=[1, 0] val=[3ff0000000000000, 3ff0000000000000]",
        ),
        (
            "pattern_out_of_order",
            raw(
                "%%MatrixMarket matrix coordinate pattern general\n",
                b"2 2 3\n2 1\n1 2\n2 1\n",
            ),
            "2x2 ptr=[0, 1, 2] col=[1, 0] val=[3ff0000000000000, 4000000000000000]",
        ),
        ("no_final_newline", g("2 2 2\n1 1 1.0\n2 2 3.25"), "2x2 ptr=[0, 1, 2] col=[0, 1] val=[3ff0000000000000, 400a000000000000]"),
        ("no_final_newline_cr", g("2 2 1\n2 2 3.25\r"), "2x2 ptr=[0, 0, 1] col=[1] val=[400a000000000000]"),
        ("cr_inside_line", g("2 2 1\n1 1\r2.0\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[4000000000000000]"),
        ("nbsp_separator", g("2 2 1\n1\u{a0}1 2.0\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[4000000000000000]"),
        ("nbsp_in_size_line", g("2\u{a0}2 1\n1 1 2.0\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[4000000000000000]"),
        ("non_ascii_comment", g("2 2 1\n% café\n1 1 2.0\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[4000000000000000]"),
        ("invalid_utf8_value", raw(GENERAL, b"2 2 1\n1 1 \xff\n"), "error: I/O error: stream did not contain valid UTF-8"),
        ("invalid_utf8_comment", raw(GENERAL, b"2 2 1\n% \xc3\n1 1 1\n"), "error: I/O error: stream did not contain valid UTF-8"),
        ("invalid_utf8_after_bad_row", raw(GENERAL, b"2 2 2\nx 1 1\n\xff\n"), "error: parse error: bad row index"),
        (
            "invalid_utf8_header",
            b"%%MatrixMarket matrix coordinate real general \xfe\n1 1 0\n".to_vec(),
            "error: I/O error: stream did not contain valid UTF-8",
        ),
        ("nul_in_token", raw(GENERAL, b"2 2 1\n1\x001 1\n"), "error: parse error: bad row index"),
        ("unit_separator_is_not_blank", raw(GENERAL, b"2 2 1\n1\x1f1 1\n"), "error: parse error: bad row index"),
        ("duplicates_out_of_order", g("2 2 4\n2 2 1\n1 1 0.1\n2 2 0.2\n2 2 0.3\n"), "2x2 ptr=[0, 1, 2] col=[0, 1] val=[3fb999999999999a, 3ff8000000000000]"),
        ("duplicates_in_order", g("2 2 3\n1 1 0.1\n1 1 0.2\n1 1 0.3\n"), "2x2 ptr=[0, 1, 1] col=[0] val=[3fe3333333333334]"),
        ("explicit_zero", g("2 2 2\n1 2 1.0\n1 2 -1.0\n"), "2x2 ptr=[0, 1, 1] col=[1] val=[0]"),
        ("sorted_then_unsorted", g("3 3 4\n1 1 1\n2 2 2\n3 3 3\n1 3 4\n"), "3x3 ptr=[0, 2, 3, 4] col=[0, 2, 1, 2] val=[3ff0000000000000, 4010000000000000, 4000000000000000, 4008000000000000]"),
        ("sorted_with_empty_rows", g("5 4 3\n2 1 1\n2 4 2\n5 2 3\n"), "5x4 ptr=[0, 0, 2, 2, 2, 3] col=[0, 3, 1] val=[3ff0000000000000, 4000000000000000, 4008000000000000]"),
        (
            "special_values",
            g("1 8 8\n1 1 NaN\n1 2 inf\n1 3 -inf\n1 4 -0.0\n1 5 4.9e-324\n1 6 infinity\n1 7 -nan\n1 8 1e400\n"),
            "1x8 ptr=[0, 8] col=[0, 1, 2, 3, 4, 5, 6, 7] val=[7ff8000000000000, 7ff0000000000000, fff0000000000000, 8000000000000000, 1, 7ff0000000000000, fff8000000000000, 7ff0000000000000]",
        ),
        ("empty_file", Vec::new(), "error: parse error: empty file"),
        ("newline_only", b"\n".to_vec(), "error: parse error: bad header: "),
        ("header_only", g(""), "error: parse error: missing size line"),
        ("bad_header", b"%%NotMatrixMarket x y z w\n1 1 0\n".to_vec(), "error: parse error: bad header: %%notmatrixmarket x y z w"),
        ("bad_header_lone_cr_at_eof", b"%%MatrixMarket matrix\r".to_vec(), "error: parse error: bad header: %%matrixmarket matrix\r"),
        ("bad_header_crlf", b"%%MatrixMarket matrix\r\n1 1 0\n".to_vec(), "error: parse error: bad header: %%matrixmarket matrix"),
        ("short_header", b"%%MatrixMarket matrix coordinate real\n1 1 0\n".to_vec(), "error: parse error: bad header: %%matrixmarket matrix coordinate real"),
        (
            "array_format",
            b"%%MatrixMarket matrix array real general\n1 1 1\n".to_vec(),
            "error: parse error: only coordinate format is supported",
        ),
        (
            "complex_field",
            b"%%MatrixMarket matrix coordinate complex general\n1 1 0\n".to_vec(),
            "error: parse error: unsupported field type complex",
        ),
        (
            "hermitian",
            b"%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n".to_vec(),
            "error: parse error: unsupported symmetry hermitian",
        ),
        (
            "upper_case_integer_header",
            b"%%MATRIXMARKET Matrix Coordinate INTEGER General\n2 2 1\n2 2 -3\n".to_vec(),
            "2x2 ptr=[0, 0, 1] col=[1] val=[c008000000000000]",
        ),
        ("bad_size_token", g("2 x 1\n"), "error: parse error: bad size token x"),
        ("size_line_two_tokens", g("2 2\n"), "error: parse error: size line must have rows cols nnz"),
        ("size_line_four_tokens", g("2 2 1 1\n1 1 1\n"), "error: parse error: size line must have rows cols nnz"),
        ("empty_matrix", g("0 0 0\n"), "0x0 ptr=[0] col=[] val=[]"),
        ("rows_only", g("3 0 0\n"), "3x0 ptr=[0, 0, 0, 0] col=[] val=[]"),
    ]
}

#[test]
fn corpus_outcomes_match_the_line_reader() {
    for (name, bytes, want) in corpus() {
        let got = read_every_way(&bytes);
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn size_line_faults_are_typed_errors() {
    let huge_nnz = g_text("2 2 999999999999999999\n");
    assert_eq!(
        read_every_way(&huge_nnz),
        "error: parse error: expected 999999999999999999 entries, found 0"
    );
    let symmetric_huge_nnz =
        b"%%MatrixMarket matrix coordinate real symmetric\n2 2 18446744073709551615\n1 1 1\n";
    assert_eq!(
        read_every_way(symmetric_huge_nnz),
        "error: parse error: expected 18446744073709551615 entries, found 1"
    );
    for (size, dims) in [
        ("5000000000 5000000000 1", "5000000000x5000000000"),
        ("4294967296 1 1", "4294967296x1"),
        ("1 4294967296 1", "1x4294967296"),
    ] {
        assert_eq!(
            read_every_way(&g_text(&format!("{size}\n1 1 1\n"))),
            format!("error: parse error: {dims} exceeds the u32 index range")
        );
    }
}

fn g_text(body: &str) -> Vec<u8> {
    format!("{GENERAL}{body}").into_bytes()
}

/// A value drawn from the corners the text form must carry exactly:
/// NaN, ±inf, ±0, subnormals, extremes, and arbitrary finite bits.
fn arb_value() -> impl Strategy<Value = f64> {
    (0usize..12, any::<u64>()).prop_map(|(pick, bits)| match pick {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => f64::from_bits(1),
        6 => -f64::MIN_POSITIVE / 3.0,
        7 => f64::MAX,
        8 => f64::MIN_POSITIVE,
        _ => {
            let v = f64::from_bits(bits);
            if v.is_nan() {
                f64::NAN
            } else {
                v
            }
        }
    })
}

/// A random `rows × cols` matrix (either may be 0) with at most one entry
/// per cell, so no duplicate sum can mint a NaN the text form cannot carry.
fn arb_csr() -> impl Strategy<Value = Csr> {
    (0usize..=9, 0usize..=9).prop_flat_map(|(rows, cols)| {
        prop::collection::vec((0u8..3, arb_value()), rows * cols).prop_map(move |cells| {
            let mut coo = Coo::new(rows, cols);
            for (i, (keep, v)) in cells.into_iter().enumerate() {
                if keep == 0 {
                    coo.push(i / cols, i % cols, v);
                }
            }
            coo.into_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn write_then_read_is_bitwise(m in arb_csr()) {
        let mut text = Vec::new();
        write_matrix_market(&m, &mut text).unwrap();
        prop_assert_eq!(read_every_way(&text), outcome(Ok(m)));
    }
}
