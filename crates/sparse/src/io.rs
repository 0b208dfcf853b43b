//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! The paper's datasets come from the University of Florida collection in
//! this format. The synthetic registry makes downloads unnecessary, but the
//! reader lets users run every harness on the *real* files if they have
//! them (`general` and `symmetric` qualifiers, `real` / `integer` /
//! `pattern` fields).

use std::io::{BufRead, Write};

use crate::{Coo, Csr};

/// Errors from Matrix Market parsing.
#[derive(Debug)]
pub enum MmError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural / syntactic problem with the file.
    Parse(String),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Io(e) => write!(f, "I/O error: {e}"),
            MmError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for MmError {}

impl From<std::io::Error> for MmError {
    fn from(e: std::io::Error) -> Self {
        MmError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MmError {
    MmError::Parse(msg.into())
}

/// Entries reserved up front at most. Past it the entry list grows as
/// entries arrive, so a size line cannot demand memory its entries do not
/// back.
const RESERVE_CAP: usize = 1 << 22;

/// Reads a Matrix Market coordinate file.
///
/// Supports the header `%%MatrixMarket matrix coordinate
/// {real|integer|pattern} {general|symmetric}`. Pattern entries get value
/// 1.0; symmetric files are expanded to both triangles.
///
/// Entry lines are tokenized in place in the reader's buffer; a line
/// holding a non-ASCII byte takes the `str` path, so Unicode whitespace
/// separates tokens and invalid UTF-8 is an [`MmError::Io`].
///
/// # Errors
/// Returns [`MmError`] on malformed input, on dimensions past the `u32`
/// index range, and when the row pointers cannot be allocated.
pub fn read_matrix_market<R: BufRead>(mut reader: R) -> Result<Csr, MmError> {
    let mut line = Vec::new();
    if reader.read_until(b'\n', &mut line)? == 0 {
        return Err(parse_err("empty file"));
    }
    let header = line_str(&line)?.to_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(format!("bad header: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err("only coordinate format is supported"));
    }
    let pattern = fields[3] == "pattern";
    if !matches!(fields[3], "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field type {}", fields[3])));
    }
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry {other}"))),
    };

    // Skip comments, find the size line.
    let mut size_line = None;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        let t = line_str(&line)?.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|_| parse_err(format!("bad size token {t}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must have rows cols nnz"));
    }
    let (rows, cols, nnz) = (dims[0], dims[1], dims[2]);
    if rows > u32::MAX as usize || cols > u32::MAX as usize {
        return Err(parse_err(format!(
            "{rows}x{cols} exceeds the u32 index range"
        )));
    }

    let reserve = if symmetric {
        nnz.saturating_mul(2)
    } else {
        nnz
    };
    let mut coo = Coo::with_capacity(rows, cols, reserve.min(RESERVE_CAP));
    let mut seen = 0usize;
    for_each_line(reader, |line, ascii| {
        let entry = if ascii {
            parse_entry(
                line.split(|&b| is_blank(b)).filter(|t| !t.is_empty()),
                pattern,
            )
        } else {
            parse_entry(
                line_str(line)?.split_whitespace().map(str::as_bytes),
                pattern,
            )
        }?;
        let Some((r, c, v)) = entry else {
            return Ok(());
        };
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(format!("entry ({r}, {c}) out of bounds")));
        }
        if symmetric {
            coo.push_symmetric(r - 1, c - 1, v);
        } else {
            coo.push(r - 1, c - 1, v);
        }
        seen += 1;
        Ok(())
    })?;
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    // `Coo::into_csr` allocates its row pointers infallibly.
    Vec::<usize>::new()
        .try_reserve_exact(rows + 1)
        .map_err(|_| too_many_rows(rows))?;
    Ok(coo.into_csr())
}

/// The bytes `char::is_whitespace` accepts among ASCII: tab, LF, VT, FF,
/// CR and space.
fn is_blank(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// A line as `str`, without its `\n` or `\r\n` (a lone `\r` stays, as
/// in `BufRead::lines`); invalid UTF-8 is the I/O error it reports.
fn line_str(line: &[u8]) -> Result<&str, MmError> {
    let line = match line.strip_suffix(b"\n") {
        Some(l) => l.strip_suffix(b"\r").unwrap_or(l),
        None => line,
    };
    std::str::from_utf8(line).map_err(|_| {
        MmError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Calls `f` on every line left in `reader`, without its `\n`, and on
/// whether the line is all ASCII. Lines inside one buffer fill are passed
/// in place; only a line that straddles two fills is copied.
fn for_each_line<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(&[u8], bool) -> Result<(), MmError>,
) -> Result<(), MmError> {
    let mut partial = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if chunk.is_empty() {
            break;
        }
        let len = chunk.len();
        let mut rest = chunk;
        while let Some((i, ascii)) = find_newline(rest) {
            if partial.is_empty() {
                f(&rest[..i], ascii)?;
            } else {
                partial.extend_from_slice(&rest[..i]);
                f(&partial, partial.is_ascii())?;
                partial.clear();
            }
            rest = &rest[i + 1..];
        }
        partial.extend_from_slice(rest);
        reader.consume(len);
    }
    if partial.is_empty() {
        Ok(())
    } else {
        f(&partial, partial.is_ascii())
    }
}

/// The index of the first `\n` in `bytes`, and whether every byte before
/// it is ASCII. Scans eight bytes per step: a word's zero bytes after
/// XOR with `\n`s are the newlines, and its lowest flagged byte is the
/// first one. One pass does what `iter().position` plus a per-line
/// `is_ascii` take two for, and parses MatrixMarket text measurably
/// faster (DESIGN.md, "Ingest").
fn find_newline(bytes: &[u8]) -> Option<(usize, bool)> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    let mut seen = 0u64;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
        let x = w ^ (ONES * u64::from(b'\n'));
        let newlines = x.wrapping_sub(ONES) & !x & HIGH;
        if newlines != 0 {
            let i = (newlines.trailing_zeros() / 8) as usize;
            let before = w & !(u64::MAX << (8 * i));
            return Some((8 * k + i, (seen | before) & HIGH == 0));
        }
        seen |= w;
    }
    let base = bytes.len() - words.remainder().len();
    for (i, &b) in words.remainder().iter().enumerate() {
        if b == b'\n' {
            return Some((base + i, seen & HIGH == 0));
        }
        seen |= u64::from(b);
    }
    None
}

/// The 1-based `(row, col, value)` of an entry line's tokens, or `None` for
/// a blank or comment line. Tokens past the value are ignored.
fn parse_entry<'a>(
    mut tokens: impl Iterator<Item = &'a [u8]>,
    pattern: bool,
) -> Result<Option<(usize, usize, f64)>, MmError> {
    let Some(row) = tokens.next() else {
        return Ok(None);
    };
    if row[0] == b'%' {
        return Ok(None);
    }
    let r = parse_index(row).ok_or_else(|| parse_err("bad row index"))?;
    let c = parse_index(tokens.next().ok_or_else(|| parse_err("missing col"))?)
        .ok_or_else(|| parse_err("bad col index"))?;
    let v = if pattern {
        1.0
    } else {
        let token = tokens.next().ok_or_else(|| parse_err("missing value"))?;
        std::str::from_utf8(token)
            .ok()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err("bad value"))?
    };
    Ok(Some((r, c, v)))
}

/// Parses exactly what `usize::from_str` accepts: an optional `+`, then
/// one or more ASCII digits, without overflow.
fn parse_index(token: &[u8]) -> Option<usize> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0usize, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(usize::from(d))
    })
}

fn too_many_rows(rows: usize) -> MmError {
    parse_err(format!("row pointers for {rows} rows do not fit in memory"))
}

/// Writes a matrix in Matrix Market `coordinate real general` format.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_matrix_market<W: Write>(m: &Csr, mut writer: W) -> Result<(), MmError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by nbwp-sparse")?;
    writeln!(writer, "{} {} {}", m.rows(), m.cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(writer, "{} {} {v}", r + 1, c + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(s: &str) -> Result<Csr, MmError> {
        read_matrix_market(BufReader::new(s.as_bytes()))
    }

    #[test]
    fn roundtrip_general() {
        let m = crate::gen::uniform_random(50, 5, 3);
        let mut buf = Vec::new();
        write_matrix_market(&m, &mut buf).unwrap();
        let back = read_matrix_market(BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn reads_symmetric_expansion() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n1 1 3.0\n2 1 4.0\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.get(0, 1), 4.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn reads_pattern_as_ones() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n\
                    2 3 2\n1 3\n2 1\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(0, 2), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\n2 2 1\n% mid comment\n2 2 7.5\n";
        let m = parse(text).unwrap();
        assert_eq!(m.get(1, 1), 7.5);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("%%NotMatrixMarket x y z w\n1 1 0\n").is_err());
        assert!(parse("%%MatrixMarket matrix array real general\n1 1 1\n").is_err());
        assert!(parse("%%MatrixMarket matrix coordinate complex general\n1 1 0\n").is_err());
    }

    #[test]
    fn rejects_out_of_bounds_and_wrong_count() {
        let oob = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(parse(oob).is_err());
        let zero_based = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(zero_based.parse::<i32>().is_err() || parse(zero_based).is_err());
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n";
        assert!(parse(short).is_err());
    }

    #[test]
    fn rejects_empty_file() {
        assert!(parse("").is_err());
    }
}
