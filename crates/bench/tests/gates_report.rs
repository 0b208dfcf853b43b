//! The committed `BENCH_gates.json` is a passing full-mode run of every
//! section of the `gates` runner.

use serde_json::Value;

#[test]
fn committed_report_is_a_passing_full_run() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gates.json");
    let text = std::fs::read_to_string(path).expect("BENCH_gates.json is committed");
    let r: Value = serde_json::from_str(&text).expect("report parses");
    let field = |k: &str| r.get(k).unwrap_or_else(|| panic!("missing {k}"));
    assert_eq!(field("schema").as_str(), Some(nbwp_bench::gates::SCHEMA));
    assert_eq!(field("quick"), &Value::Bool(false));
    assert_eq!(field("ok"), &Value::Bool(true));
    assert_eq!(field("violations").as_array().map(<[Value]>::len), Some(0));

    let gates = field("gates").as_array().expect("gates array");
    assert!(!gates.is_empty());
    for g in gates {
        assert_eq!(g.get("passed"), Some(&Value::Bool(true)), "{g:?}");
    }
    for (name, _) in nbwp_bench::gates::SECTIONS {
        assert!(field("sections").get(name).is_some(), "section {name}");
        let prefix = format!("{name}.");
        assert!(
            gates.iter().any(|g| g
                .get("label")
                .and_then(Value::as_str)
                .is_some_and(|l| l.starts_with(&prefix))),
            "no gate for section {name}"
        );
    }
}
