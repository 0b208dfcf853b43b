//! Shared plumbing of the gate runner (`gates`) and the end-to-end
//! benchmark: min-of-K timing, percentiles, estimate digests, and the
//! [`Gate`] every check of the runner is recorded as.
//!
//! The convention: **bitwise parity gates are always
//! enforced** — any mismatch exits nonzero in every mode. **Wall-clock
//! ratio gates are enforced in full mode and skipped in `--quick`**,
//! where input sizes are small enough that timer noise could flake CI;
//! a skipped gate is still measured and lands in the JSON with its
//! skip reason, so regressions stay visible even when not enforced.

use std::fmt::Display;
use std::time::Instant;

use nbwp_core::prelude::{SamplingEstimate, SimTime};
use serde::Serialize;

/// Hardware threads available to this process (1 when undetectable) —
/// recorded in every gate report so single-core containers are legible.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds (min-of-K filters
/// scheduler noise; K interleaves naturally when callers alternate the
/// compared variants).
pub fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let started = Instant::now();
        f();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Nearest-rank percentile over a copy of `values` (`q` in `[0, 1]`).
#[must_use]
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Bitwise digest of a full estimate (decision + accounting) for the
/// exactness-contract comparisons.
#[must_use]
pub fn estimate_bits(e: &SamplingEstimate) -> (u64, u64, SimTime, usize, usize, usize) {
    (
        e.threshold.to_bits(),
        e.sample_threshold.to_bits(),
        e.overhead,
        e.evaluations,
        e.sample_size,
        e.grad_probes,
    )
}

/// One check of the gate runner, serialized into the report's `gates`.
#[derive(Clone, Debug, Serialize)]
pub struct Gate {
    /// `<section>.<check>`; stable across runs.
    pub label: String,
    /// Measured value (a ratio, a count, or 1/0 for a `bool` check).
    pub measured: f64,
    /// Threshold the measurement is held to.
    pub required: f64,
    /// `"min"` (measured ≥ required), `"max"` (≤), or `"bool"` (the
    /// check held: measured 1, required 1).
    pub direction: &'static str,
    /// Whether a violation fails the run.
    pub enforced: bool,
    /// Whether the measurement met the threshold (recorded even when
    /// the gate is skipped).
    pub passed: bool,
    /// Why the gate was not enforced, when it was not.
    pub skipped: Option<String>,
}

impl Gate {
    /// Measures but stops enforcing the gate when `skip` holds, recording
    /// `reason`.
    pub fn skip_if(&mut self, skip: bool, reason: &str) -> &mut Self {
        if skip {
            self.enforced = false;
            self.skipped = Some(reason.to_string());
        }
        self
    }

    /// Whether the gate fails the run: enforced and not passed.
    #[must_use]
    pub fn violated(&self) -> bool {
        self.enforced && !self.passed
    }
}

/// The gates one section records, each labelled `<section>.<label>` and
/// enforced unless [`Gate::skip_if`] says otherwise.
pub struct Gates {
    section: &'static str,
    list: Vec<Gate>,
}

impl Gates {
    /// An empty gate list for `section`.
    #[must_use]
    pub fn new(section: &'static str) -> Self {
        Gates {
            section,
            list: Vec::new(),
        }
    }

    fn push(
        &mut self,
        label: impl Display,
        measured: f64,
        required: f64,
        direction: &'static str,
        passed: bool,
    ) -> &mut Gate {
        self.list.push(Gate {
            label: format!("{}.{label}", self.section),
            measured,
            required,
            direction,
            enforced: true,
            passed,
            skipped: None,
        });
        self.list.last_mut().expect("just pushed")
    }

    /// Requires `measured >= required`.
    pub fn min(&mut self, label: impl Display, measured: f64, required: f64) -> &mut Gate {
        self.push(label, measured, required, "min", measured >= required)
    }

    /// Requires `measured <= required`.
    pub fn max(&mut self, label: impl Display, measured: f64, required: f64) -> &mut Gate {
        self.push(label, measured, required, "max", measured <= required)
    }

    /// Requires `held`.
    pub fn check(&mut self, label: impl Display, held: bool) -> &mut Gate {
        self.push(label, f64::from(u8::from(held)), 1.0, "bool", held)
    }

    /// The number of gates recorded so far, as a mark for
    /// [`Gates::clean_since`].
    #[must_use]
    pub fn mark(&self) -> usize {
        self.list.len()
    }

    /// Whether no gate recorded after `mark` is violated.
    #[must_use]
    pub fn clean_since(&self, mark: usize) -> bool {
        !self.list[mark..].iter().any(Gate::violated)
    }

    /// The recorded gates, in order.
    #[must_use]
    pub fn into_vec(self) -> Vec<Gate> {
        self.list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_max_and_bool_gates_pass_and_fail() {
        let mut g = Gates::new("t");
        assert!(g.min("a", 5.0, 5.0).passed);
        assert!(!g.min("b", 4.9, 5.0).passed);
        assert!(g.max("c", 1.1, 1.1).passed);
        assert!(!g.max("d", 1.2, 1.1).passed);
        assert!(!g.min("nan", f64::NAN, 0.0).passed);
        let yes = g.check("e", true).clone();
        assert!(yes.passed && yes.measured == 1.0 && yes.direction == "bool");
        let no = g.check("f", false).clone();
        assert!(!no.passed && no.measured == 0.0);
        let labels: Vec<String> = g.into_vec().into_iter().map(|g| g.label).collect();
        assert_eq!(labels, ["t.a", "t.b", "t.c", "t.d", "t.nan", "t.e", "t.f"]);
    }

    #[test]
    fn skipped_gates_are_measured_but_never_violated() {
        let mut g = Gates::new("t");
        let failed = g.min("wall", 1.0, 2.0).clone();
        assert!(failed.enforced && failed.violated() && failed.skipped.is_none());
        let skipped = g.min("wall", 1.0, 2.0).skip_if(true, "quick").clone();
        assert!(!skipped.enforced && !skipped.passed && !skipped.violated());
        assert_eq!(skipped.skipped.as_deref(), Some("quick"));
        let kept = g.min("wall", 3.0, 2.0).skip_if(false, "quick").clone();
        assert!(kept.enforced && kept.passed && kept.skipped.is_none());
    }

    #[test]
    fn clean_since_covers_only_later_enforced_gates() {
        let mut g = Gates::new("t");
        g.check("early", false);
        let mark = g.mark();
        g.check("late", true);
        g.max("skipped", 2.0, 1.0).skip_if(true, "quick");
        assert!(g.clean_since(mark));
        g.max("later", 2.0, 1.0);
        assert!(!g.clean_since(mark));
    }
}
