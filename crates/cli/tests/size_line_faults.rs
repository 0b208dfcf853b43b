//! A MatrixMarket size line that claims more entries than any memory could
//! back, or whose dimensions do not fit the `u32` column indices, is a
//! parse error with exit code 1 — never a panic (exit 101) or an
//! allocation abort.

use std::process::Command;

#[test]
fn size_line_faults_exit_1_with_a_parse_error() {
    let dir = std::env::temp_dir().join("nbwp_cli_size_line_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let header = "%%MatrixMarket matrix coordinate real general\n";
    let cases = [
        (
            "huge_nnz",
            "2 2 999999999999999999\n1 1 1\n",
            "expected 999999999999999999 entries, found 1",
        ),
        (
            "wide_dims",
            "5000000000 5000000000 1\n1 1 1\n",
            "5000000000x5000000000 exceeds the u32 index range",
        ),
    ];
    for (name, body, message) in cases {
        let path = dir.join(format!("{name}.mtx"));
        std::fs::write(&path, format!("{header}{body}")).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_nbwp"))
            .args(["estimate", "spmm", "--input"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("parse failed: parse error: {message}"),
            "{name}"
        );
        std::fs::remove_file(&path).ok();
    }
}
