//! # nbwp-cli — command-line interface
//!
//! `nbwp` brings the sampling-based partitioner to the shell: generate the
//! synthetic Table II datasets as Matrix Market files, and estimate
//! CPU/GPU work-split thresholds for any Matrix Market input.
//!
//! ```text
//! nbwp datasets
//! nbwp gen --dataset cant --scale 0.02 --out cant.mtx
//! nbwp estimate cc   --input cant.mtx
//! nbwp estimate spmm --input cant.mtx --seed 7
//! nbwp estimate hh   --input web.mtx
//! # Partition across a k-way device topology (per-device work fractions):
//! nbwp estimate spmm --input cant.mtx --devices dual-cpu-dual-gpu
//! # Serve many requests through the fingerprint-deduped batch path with
//! # a shared threshold cache (one Matrix Market path per line):
//! nbwp estimate spmm --batch requests.txt --cache-size 64
//! # Capture a Chrome trace of the whole pipeline and check it:
//! nbwp estimate cc --input cant.mtx --trace-out cc-trace.json --metrics
//! nbwp trace cc-trace.json
//! ```
//!
//! `--trace-out` writes Chrome trace-event JSON (open it in Perfetto or
//! `chrome://tracing`); a path ending in `.jsonl` selects the JSONL stream
//! format instead. `--metrics` prints the metrics/summary view to stdout.
//! `nbwp trace <file>` validates a captured Chrome trace structurally
//! (used by CI).
//!
//! The binary is a thin shell over [`run`], which is unit-tested directly.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use nbwp_core::prelude::*;
use nbwp_datasets::Dataset;
use nbwp_graph::delta::GraphDelta;
use nbwp_graph::Graph;
use nbwp_sim::PcieModel;
use nbwp_sparse::delta::{CsrDelta, RowOp};
use nbwp_sparse::{io, Csr};

/// A CLI failure with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the Table II registry.
    Datasets,
    /// Generate a dataset to a Matrix Market file.
    Gen {
        /// Registry name.
        dataset: String,
        /// Scale in (0, 1].
        scale: f64,
        /// Seed.
        seed: u64,
        /// Output path.
        out: String,
    },
    /// Estimate a threshold (or a k-way partition) for Matrix Market input.
    Estimate(EstimateRequest),
    /// Validate a captured artifact: a Chrome trace from `--trace-out`, an
    /// audit JSONL log from `--audit-out`, or a `.prom` metrics export from
    /// `--metrics-out`.
    Trace {
        /// Path of the trace JSON / audit JSONL / Prometheus text file.
        input: String,
    },
    /// Render an audit log (and optionally a metrics snapshot) as a text
    /// dashboard: hit/miss mix, latency and shadow-regret percentiles per
    /// workload kind.
    Report {
        /// Path of the audit JSONL log.
        audit: String,
        /// Optional metrics snapshot (`.prom` or JSON) to fold in.
        metrics: Option<String>,
    },
}

/// A case study `nbwp estimate` serves. Its paper configuration — the
/// default Identify strategy and the exhaustive reference step — is
/// [`ExperimentConfig`]'s; only the name and the threshold unit live here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hybrid connected components (§III): `cc`.
    Cc,
    /// Hybrid sparse matrix-matrix multiply (§IV): `spmm`.
    Spmm,
    /// Scale-free spmm, heavy rows split by density (§V): `hh`.
    Hh,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Cc => "cc",
            Workload::Spmm => "spmm",
            Workload::Hh => "hh",
        }
    }

    /// What the scalar threshold measures.
    fn unit(self) -> &'static str {
        match self {
            Workload::Cc => "CPU vertex share %",
            Workload::Spmm => "CPU work share %",
            Workload::Hh => "row-density threshold",
        }
    }

    fn config(self, seed: u64) -> ExperimentConfig {
        match self {
            Workload::Cc => ExperimentConfig::cc(seed),
            Workload::Spmm => ExperimentConfig::spmm(seed),
            Workload::Hh => ExperimentConfig::scalefree(seed),
        }
    }
}

/// A parsed `nbwp estimate` request. [`parse_args`] validates the flags
/// and resolves the strategy once; a combination it rejects has no value
/// of this type.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// Case study.
    pub workload: Workload,
    /// Identify strategy: `--strategy <name>` or `--analytic` (subgradient
    /// descent on the profiled cost curve), else the workload's paper
    /// default; always analytic with a k-way `devices` set. A drift replay
    /// does not read it: the drift server runs its own curve search.
    pub strategy: Strategy,
    /// Sampling seed.
    pub seed: u64,
    /// The k-way topology of `--devices` (a preset name or a `.json`
    /// topology file with per-link transfer models); `None` on the
    /// canonical CPU+GPU pair, the topology every serving path assumes by
    /// default. A k-way set runs the analytic partition search: per-device
    /// work fractions on one `--input`, partition-aware cache serving with
    /// `--batch`, and warm cut-vector serving with `--drift`.
    pub devices: Option<DeviceSet>,
    /// What is served.
    pub source: Source,
    /// Where the observability artifacts go.
    pub sinks: Sinks,
}

/// The input side of an [`EstimateRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// `--input`: one cold estimate.
    Input {
        /// Matrix Market path.
        path: String,
        /// `--exhaustive`: compare against the exhaustive best (slower).
        exhaustive: bool,
    },
    /// `--batch`: one Matrix Market path per line (blank lines and `#`
    /// comments skipped), served behind one shared threshold cache.
    Batch {
        /// Request file path.
        path: String,
        /// `--cache-size`: capacity of the threshold cache (default
        /// [`ThresholdCache::default`]'s).
        cache_size: Option<usize>,
    },
    /// `--input` with `--drift`: replay a JSONL delta script against the
    /// input through the incremental drift server, one decision line per
    /// step (patched / nudged / rebuilt, probes saved, staleness regret).
    Drift {
        /// Matrix Market path.
        input: String,
        /// Delta script path.
        script: String,
    },
}

/// Where `estimate` routes its observability artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct Sinks {
    /// `--trace-out`: a trace of the estimation pipeline (Chrome
    /// trace-event JSON, or JSONL when the path ends in `.jsonl`).
    pub trace_out: Option<String>,
    /// `--metrics`: print the metrics / summary view to stdout.
    pub metrics: bool,
    /// `--metrics-out`: a machine-readable metrics snapshot (Prometheus
    /// text exposition when the path ends in `.prom`, versioned JSON
    /// otherwise).
    pub metrics_out: Option<String>,
    /// `--audit-out`: record every served request in a flight recorder and
    /// dump the audit log (JSONL) here.
    pub audit_out: Option<String>,
}

/// Parses an argument vector (without the program name).
///
/// # Errors
/// Returns a usage message on malformed input.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let sub = it.next().ok_or_else(|| err(USAGE))?;
    match sub.as_str() {
        "datasets" => Ok(Command::Datasets),
        "gen" => {
            let mut dataset = None;
            let mut scale = 0.02;
            let mut seed = 42;
            let mut out = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--dataset" => dataset = Some(next_val(&mut it, flag)?),
                    "--scale" => scale = parse_num(&next_val(&mut it, flag)?)?,
                    "--seed" => seed = parse_num(&next_val(&mut it, flag)?)?,
                    "--out" => out = Some(next_val(&mut it, flag)?),
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            Ok(Command::Gen {
                dataset: dataset.ok_or_else(|| err("gen requires --dataset"))?,
                scale,
                seed,
                out: out.ok_or_else(|| err("gen requires --out"))?,
            })
        }
        "estimate" => {
            let workload = match it.next().map(String::as_str) {
                None => return Err(err("estimate requires a workload: cc | spmm | hh")),
                Some("cc") => Workload::Cc,
                Some("spmm") => Workload::Spmm,
                Some("hh") => Workload::Hh,
                Some(other) => {
                    return Err(err(format!("unknown workload {other}; use cc | spmm | hh")))
                }
            };
            let (mut input, mut batch, mut cache_size, mut drift) = (None, None, None, None);
            let (mut seed, mut exhaustive, mut strategy, mut analytic) = (42, false, None, false);
            let mut devices = None;
            let mut sinks = Sinks {
                trace_out: None,
                metrics: false,
                metrics_out: None,
                audit_out: None,
            };
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--input" => input = Some(next_val(&mut it, flag)?),
                    "--batch" => batch = Some(next_val(&mut it, flag)?),
                    "--cache-size" => cache_size = Some(parse_num(&next_val(&mut it, flag)?)?),
                    "--seed" => seed = parse_num(&next_val(&mut it, flag)?)?,
                    "--exhaustive" => exhaustive = true,
                    "--strategy" => strategy = Some(next_val(&mut it, flag)?),
                    "--analytic" => analytic = true,
                    "--trace-out" => sinks.trace_out = Some(next_val(&mut it, flag)?),
                    "--metrics" => sinks.metrics = true,
                    "--metrics-out" => sinks.metrics_out = Some(next_val(&mut it, flag)?),
                    "--audit-out" => sinks.audit_out = Some(next_val(&mut it, flag)?),
                    "--drift" => drift = Some(next_val(&mut it, flag)?),
                    "--devices" => {
                        let name = next_val(&mut it, flag)?;
                        // 1-based position of the value in the argument
                        // vector, so a typo in a long command line is easy
                        // to find.
                        let pos = args.len() - it.len();
                        let set = if name.ends_with(".json") {
                            load_device_set_json(&name)
                        } else {
                            name.parse::<DeviceSet>().map_err(|e| e.to_string())
                        }
                        .map_err(|e| err(format!("argument {pos} (--devices): {e}\n{USAGE}")))?;
                        devices = Some(set).filter(|s| !s.is_canonical_pair());
                    }
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            let source = match (input, batch) {
                (Some(path), None) => {
                    if cache_size.is_some() {
                        return Err(err("--cache-size requires --batch"));
                    }
                    match drift {
                        Some(script) => {
                            if exhaustive || strategy.is_some() || analytic {
                                return Err(err("--drift serves through the incremental drift \
                                     server; it takes no --exhaustive/--strategy/--analytic"));
                            }
                            Source::Drift {
                                input: path,
                                script,
                            }
                        }
                        None if exhaustive && devices.is_some() => return Err(err(
                            "--exhaustive sweeps the scalar threshold; it takes no k-way --devices",
                        )),
                        None => Source::Input { path, exhaustive },
                    }
                }
                (None, Some(path)) => {
                    if exhaustive {
                        return Err(err("--exhaustive applies to a single --input"));
                    }
                    if drift.is_some() {
                        return Err(err("--drift replays against a single --input"));
                    }
                    Source::Batch { path, cache_size }
                }
                _ => return Err(err("estimate requires exactly one of --input or --batch")),
            };
            let kway = match source {
                Source::Drift { .. } => None,
                _ => devices.as_ref(),
            };
            let strategy = resolve_strategy(workload, seed, strategy.as_deref(), analytic, kway)?;
            Ok(Command::Estimate(EstimateRequest {
                workload,
                strategy,
                seed,
                devices,
                source,
                sinks,
            }))
        }
        "trace" => {
            let input = it
                .next()
                .ok_or_else(|| err("trace requires a file: nbwp trace <trace.json>"))?
                .clone();
            if let Some(extra) = it.next() {
                return Err(err(format!("unexpected argument {extra}\n{USAGE}")));
            }
            Ok(Command::Trace { input })
        }
        "report" => {
            let audit = it
                .next()
                .ok_or_else(|| err("report requires a file: nbwp report <audit.jsonl>"))?
                .clone();
            let mut metrics = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--metrics" => metrics = Some(next_val(&mut it, flag)?),
                    other => return Err(err(format!("unknown flag {other}\n{USAGE}"))),
                }
            }
            Ok(Command::Report { audit, metrics })
        }
        "--help" | "-h" | "help" => Err(err(USAGE)),
        other => Err(err(format!("unknown subcommand {other}\n{USAGE}"))),
    }
}

/// CLI usage text.
pub const USAGE: &str = "usage:
  nbwp datasets
  nbwp gen --dataset <name> [--scale f] [--seed u64] --out <file.mtx>
  nbwp estimate <cc|spmm|hh> (--input <file.mtx> | --batch <requests.txt>)
                [--cache-size N] [--seed u64] [--exhaustive]
                [--strategy <exhaustive|coarse_to_fine|race_then_fine|gradient_descent|analytic>]
                [--analytic] [--trace-out <trace.json|trace.jsonl>] [--metrics]
                [--metrics-out <metrics.json|metrics.prom>] [--audit-out <audit.jsonl>]
                [--drift <deltas.jsonl>]
                [--devices <cpu-gpu|dual-cpu-dual-gpu|quad-cpu-quad-gpu|topology.json>]
  nbwp trace <trace.json | audit.jsonl | metrics.prom>
  nbwp report <audit.jsonl> [--metrics <metrics.json|metrics.prom>]";

fn next_val<'a>(it: &mut impl Iterator<Item = &'a String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| err(format!("{flag} needs a value")))
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| err(format!("bad numeric value {s}")))
}

/// Loads a device topology from a JSON file:
///
/// ```json
/// {"name": "my-rig", "devices": [
///   {"kind": "cpu"},
///   {"kind": "cpu", "speed": 0.5},
///   {"kind": "gpu", "link": "platform-pcie"},
///   {"kind": "gpu", "speed": 0.75, "link": {"latency_us": 5.0, "bw_gbs": 8.0}}
/// ]}
/// ```
///
/// `name` defaults to the file stem, `speed` to `1.0`, and `link` to
/// `"host"` for CPUs and `"platform-pcie"` for GPUs; an object link is a
/// dedicated transfer model (a second PCIe slot, or a NIC-attached remote
/// accelerator). Unknown keys are rejected at every level. Every
/// structural error names the offending device position (`devices[i]:
/// ...`), including the ordering and range rules enforced by
/// [`DeviceSet::try_new`].
fn load_device_set_json(path: &str) -> Result<DeviceSet, String> {
    let text =
        std::fs::read_to_string(Path::new(path)).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let keys = |v: &serde_json::Value, allowed: &[&str], what: &str| match unknown_key(v, allowed) {
        Some(k) => Err(format!(
            "{what}: unknown key \"{k}\" (expected {})",
            allowed.join(" | ")
        )),
        None => Ok(()),
    };
    keys(&v, &["name", "devices"], path)?;
    let name = match v.get("name") {
        None => Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("custom")
            .to_string(),
        Some(n) => n
            .as_str()
            .ok_or_else(|| "\"name\" must be a string".to_string())?
            .to_string(),
    };
    let list = v
        .get("devices")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| format!("{path}: a topology needs a \"devices\" array"))?;
    let mut devices = Vec::with_capacity(list.len());
    for (i, d) in list.iter().enumerate() {
        keys(d, &["kind", "speed", "link"], &format!("devices[{i}]"))?;
        if let Some(l @ serde_json::Value::Object(_)) = d.get("link") {
            keys(l, &["latency_us", "bw_gbs"], &format!("devices[{i}].link"))?;
        }
        let kind = d
            .get("kind")
            .and_then(serde_json::Value::as_str)
            .ok_or_else(|| format!("devices[{i}]: \"kind\" must be \"cpu\" or \"gpu\""))?;
        let mut dev = match kind {
            "cpu" => Device::cpu(),
            "gpu" => Device::gpu(),
            other => {
                return Err(format!(
                    "devices[{i}]: unknown kind \"{other}\" (expected \"cpu\" or \"gpu\")"
                ))
            }
        };
        if let Some(s) = d.get("speed") {
            // Range rules live in `try_new`, which reports them with the
            // same position; only the type is checked here.
            dev.speed = s
                .as_f64()
                .ok_or_else(|| format!("devices[{i}]: \"speed\" must be a number"))?;
        }
        if let Some(l) = d.get("link") {
            dev.link = parse_link_json(l, i)?;
        }
        devices.push(dev);
    }
    DeviceSet::try_new(name, devices)
}

/// One device's `link` field: a preset name or a `{latency_us, bw_gbs}`
/// transfer model.
fn parse_link_json(v: &serde_json::Value, i: usize) -> Result<Link, String> {
    if let Some(name) = v.as_str() {
        return match name {
            "host" => Ok(Link::Host),
            "platform-pcie" => Ok(Link::PlatformPcie),
            other => Err(format!(
                "devices[{i}]: unknown link \"{other}\" (expected \"host\", \
                 \"platform-pcie\", or {{\"latency_us\", \"bw_gbs\"}})"
            )),
        };
    }
    let field = |key: &str| {
        v.get(key)
            .and_then(serde_json::Value::as_f64)
            .ok_or_else(|| format!("devices[{i}]: a link object needs a numeric \"{key}\""))
    };
    Ok(Link::Pcie(PcieModel {
        latency_us: field("latency_us")?,
        bw_gbs: field("bw_gbs")?,
    }))
}

/// Executes a command, returning the text to print.
///
/// # Errors
/// Returns a [`CliError`] on I/O or input problems.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Datasets => Ok(list_datasets()),
        Command::Gen {
            dataset,
            scale,
            seed,
            out,
        } => gen_dataset(dataset, *scale, *seed, out),
        Command::Estimate(req) => estimate_cmd(req),
        Command::Trace { input } => trace_cmd(input),
        Command::Report { audit, metrics } => report_cmd(audit, metrics.as_deref()),
    }
}

impl Sinks {
    /// A span recorder is needed whenever anything reads its trace/metrics.
    fn recorder(&self) -> Recorder {
        if self.trace_out.is_some() || self.metrics || self.metrics_out.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        }
    }

    /// A flight recorder is needed only when the audit log is requested.
    fn flight_recorder(&self) -> FlightRecorder {
        if self.audit_out.is_some() {
            FlightRecorder::new()
        } else {
            FlightRecorder::disabled()
        }
    }

    /// Writes the requested artifacts (trace, metrics snapshot, audit log)
    /// and appends one confirmation line per file. `audit.flush_metrics`
    /// must already have run — this consumes a finished trace.
    fn write(
        &self,
        out: &mut String,
        trace: &Trace,
        audit: &FlightRecorder,
    ) -> Result<(), CliError> {
        if self.metrics {
            out.push('\n');
            out.push_str(&trace.summary(60));
        }
        if let Some(path) = &self.trace_out {
            let text = if path.ends_with(".jsonl") {
                trace.to_jsonl()
            } else {
                trace.to_chrome_trace()
            };
            std::fs::write(Path::new(path), text)
                .map_err(|e| err(format!("cannot write trace to {path}: {e}")))?;
            let _ = writeln!(out, "wrote trace ({} spans) to {path}", trace.spans.len());
        }
        if let Some(path) = &self.metrics_out {
            let text = if path.ends_with(".prom") {
                nbwp_trace::prometheus_text(&trace.metrics)
            } else {
                nbwp_trace::metrics_json(&trace.metrics)
            };
            std::fs::write(Path::new(path), text)
                .map_err(|e| err(format!("cannot write metrics to {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote metrics ({} counters, {} histograms) to {path}",
                trace.metrics.counters.len(),
                trace.metrics.histograms.len()
            );
        }
        if let Some(path) = &self.audit_out {
            std::fs::write(Path::new(path), audit.to_jsonl())
                .map_err(|e| err(format!("cannot write audit log to {path}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote audit log ({} events, {} requests) to {path}",
                audit.len(),
                audit.totals().requests
            );
        }
        Ok(())
    }
}

fn list_datasets() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>10} {:>11} {:>8} {:>6}",
        "name", "n", "nnz", "family", "SF?"
    );
    for d in Dataset::all() {
        let _ = writeln!(
            out,
            "{:<18} {:>10} {:>11} {:>8} {:>6}",
            d.name,
            d.paper_n,
            d.paper_nnz,
            format!("{:?}", d.family),
            if d.scale_free { "yes" } else { "no" }
        );
    }
    out
}

fn gen_dataset(name: &str, scale: f64, seed: u64, out: &str) -> Result<String, CliError> {
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(err(format!("--scale must be in (0, 1], got {scale}")));
    }
    let d = Dataset::by_name(name)
        .ok_or_else(|| err(format!("unknown dataset {name}; run `nbwp datasets`")))?;
    let m = d.matrix(scale, seed);
    let file =
        File::create(Path::new(out)).map_err(|e| err(format!("cannot create {out}: {e}")))?;
    io::write_matrix_market(&m, BufWriter::new(file))
        .map_err(|e| err(format!("write failed: {e}")))?;
    Ok(format!(
        "wrote {} ({} rows, {} nonzeros, scale {scale}, seed {seed})\n",
        out,
        m.rows(),
        m.nnz()
    ))
}

fn load_matrix(path: &str) -> Result<Csr, CliError> {
    let file = File::open(Path::new(path)).map_err(|e| err(format!("cannot open {path}: {e}")))?;
    io::read_matrix_market(BufReader::new(file)).map_err(|e| err(format!("parse failed: {e}")))
}

fn load_square(path: &str) -> Result<Csr, CliError> {
    let a = load_matrix(path)?;
    if a.rows() != a.cols() {
        return Err(err(format!(
            "{path} is {}x{}; the case studies need a square matrix",
            a.rows(),
            a.cols()
        )));
    }
    Ok(a)
}

/// Resolves a request's Identify strategy: `--analytic` and `--strategy
/// <name>` override the workload's paper default. A k-way set routes
/// through the analytic partition search, which prices bands off the cost
/// curve: an explicit non-analytic strategy conflicts with it, and hh —
/// partitioned by a density predicate, not by contiguous spans — cannot
/// take it at all.
fn resolve_strategy(
    workload: Workload,
    seed: u64,
    strategy: Option<&str>,
    analytic: bool,
    kway: Option<&DeviceSet>,
) -> Result<Strategy, CliError> {
    if analytic && strategy.is_some() {
        return Err(err("--analytic and --strategy are mutually exclusive"));
    }
    let resolved = match strategy {
        _ if analytic => Strategy::Analytic { step: None },
        Some(name) => name
            .parse::<Strategy>()
            .map_err(|e| err(format!("{e}\n{USAGE}")))?,
        None => workload.config(seed).strategy,
    };
    let Some(set) = kway else {
        return Ok(resolved);
    };
    if strategy.is_some() && !matches!(resolved, Strategy::Analytic { .. }) {
        return Err(err(format!(
            "--devices {} prices bands from the cost curve; \
             use --analytic (or drop --strategy)",
            set.name()
        )));
    }
    if workload == Workload::Hh {
        return Err(err(format!(
            "hh partitions rows by a density predicate, not by contiguous \
             spans; --devices {} supports cc | spmm",
            set.name()
        )));
    }
    Ok(Strategy::Analytic { step: None })
}

/// `estimate`: loads the inputs, builds the workloads, and serves them
/// through [`serve`]; a drift replay goes to [`drift_cmd`].
fn estimate_cmd(req: &EstimateRequest) -> Result<String, CliError> {
    let (paths, batch) = match &req.source {
        Source::Input { path, .. } => (vec![path.clone()], None),
        Source::Batch { path, .. } => {
            let text = std::fs::read_to_string(Path::new(path))
                .map_err(|e| err(format!("cannot read {path}: {e}")))?;
            let paths: Vec<String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect();
            if paths.is_empty() {
                return Err(err(format!("{path} lists no inputs")));
            }
            (paths, Some(path))
        }
        Source::Drift { input, script } => return drift_cmd(req, input, script),
    };
    let mats = paths
        .iter()
        .map(|p| load_square(p))
        .collect::<Result<Vec<_>, _>>()?;
    let subject = match batch {
        Some(batch) => format!("{batch}: {} requests", paths.len()),
        None => format!(
            "{}: {} rows, {} nonzeros",
            paths[0],
            mats[0].rows(),
            mats[0].nnz()
        ),
    };
    let out = format!(
        "{subject} — {} ({}) on the simulated K40c + Xeon\n",
        req.workload.name(),
        req.strategy.name()
    );
    let platform = Platform::k40c_xeon_e5_2650();
    let mats = mats.into_iter();
    match req.workload {
        Workload::Cc => {
            let ws: Vec<_> = mats
                .map(|a| CcWorkload::new(Graph::from_matrix(&a), platform))
                .collect();
            serve(req, &paths, &ws, out)
        }
        Workload::Spmm => {
            let ws: Vec<_> = mats.map(|a| SpmmWorkload::new(a, platform)).collect();
            serve(req, &paths, &ws, out)
        }
        Workload::Hh => {
            let ws: Vec<_> = mats.map(|a| HhWorkload::new(a, platform)).collect();
            serve(req, &paths, &ws, out)
        }
    }
}

/// Serves one decision per workload in `ws` (one per line of `paths`) and
/// appends the report and the requested artifacts to `out`.
///
/// A single `--input` runs cold through the serving path with no cache
/// attached — `run_cached`, or `run_partition_cached` on a k-way set —
/// traced into the span recorder. A `--batch` runs `run_batch`, or
/// per-request `run_partition_cached`, behind one shared
/// [`ThresholdCache`]. [`Strategy::Analytic`] routes through the profiled
/// pipeline it requires. An enabled flight recorder records one audit
/// event per served request; results are identical either way.
fn serve<W>(
    req: &EstimateRequest,
    paths: &[String],
    ws: &[W],
    mut out: String,
) -> Result<String, CliError>
where
    W: Sampleable + Profilable + Fingerprinted,
    W::Sample: Profilable,
{
    let rec = req.sinks.recorder();
    let audit = req.sinks.flight_recorder();
    let cache = match req.source {
        Source::Batch { cache_size, .. } => {
            Some(cache_size.map_or_else(ThresholdCache::default, ThresholdCache::new))
        }
        _ => None,
    };
    let mut e = Estimator::new(req.strategy).seed(req.seed).audit(&audit);
    if let Some(set) = &req.devices {
        e = e.devices(set);
    }
    // No recorder on a batch: `run_batch` would flush (reset) the cache
    // counters into it before the summary below reads them. The totals are
    // read first, then flushed to the metrics view by hand.
    let e = match &cache {
        Some(cache) => e.cache(cache),
        None => e.recorder(&rec),
    };
    let analytic = matches!(req.strategy, Strategy::Analytic { .. });
    match (&cache, &req.devices) {
        (None, None) => {
            let w = &ws[0];
            let est = if analytic {
                e.profiled().run_cached(w)
            } else {
                e.run_cached(w)
            };
            let _ = writeln!(
                out,
                "estimated threshold: {:.1} ({})\n  sample size {}, {} miniature runs, estimation cost {}",
                est.threshold, req.workload.unit(), est.sample_size, est.evaluations, est.overhead
            );
            let time = w.time_at(est.threshold);
            let _ = writeln!(out, "  run at estimated threshold: {time}");
            if let Source::Input {
                exhaustive: true, ..
            } = req.source
            {
                let step = req.workload.config(req.seed).exhaustive_step;
                let best = Searcher::new(Strategy::Exhaustive { step: Some(step) }).run(w);
                rec.gauge_set("threshold.diff_pct", (est.threshold - best.best_t).abs());
                let _ = writeln!(
                    out,
                    "  exhaustive best: {:.1} → {} ({} full runs; penalty of the estimate: {:.1}%)",
                    best.best_t,
                    best.best_time,
                    best.evaluations(),
                    time.pct_diff_from(best.best_time)
                );
            }
        }
        // The fractions are also exported as `partition.fraction.d<i>`
        // gauges, which `nbwp report --metrics` renders as one row.
        (None, Some(set)) => {
            let o = e.profiled().run_partition_cached(&ws[0]);
            let _ = writeln!(
                out,
                "k-way partition over {} (k = {}): predicted total {}\n  cut thresholds [{}] — {} curve probes, {} descent sweeps",
                set.name(),
                set.len(),
                o.total,
                fmt_cuts(&o.cuts),
                o.probes,
                o.sweeps
            );
            for (i, (d, f)) in set.devices().iter().zip(&o.fractions).enumerate() {
                let kind = match d.kind {
                    DeviceKind::Cpu => "cpu",
                    DeviceKind::Gpu => "gpu",
                };
                let _ = writeln!(
                    out,
                    "  device {i} ({kind} ×{:.2}): {:.1}% of the work",
                    d.speed,
                    f * 100.0
                );
                rec.gauge_set(&format!("partition.fraction.d{i}"), f * 100.0);
            }
        }
        (Some(cache), None) => {
            let ests = if analytic {
                e.profiled().run_batch(ws)
            } else {
                e.run_batch(ws)
            };
            for (path, est) in paths.iter().zip(&ests) {
                let _ = writeln!(
                    out,
                    "{path}: threshold {:.1} ({}), sample size {}, estimation cost {}",
                    est.threshold,
                    req.workload.unit(),
                    est.sample_size,
                    est.overhead
                );
            }
            // Duplicates inside one batch are deduped by fingerprint before
            // the cache is consulted, so they never show up in the hit/miss
            // counters.
            let st = cache.stats();
            let served = st.exact_hits + st.near_hits + st.misses;
            let _ = writeln!(
                out,
                "cache: {} exact hits, {} warm starts, {} misses; {} of {} requests deduped in-batch",
                st.exact_hits,
                st.near_hits,
                st.misses,
                paths.len() as u64 - served,
                paths.len()
            );
        }
        // Unlike the scalar batch there is no in-batch dedup: repeated
        // inputs hit the cache as exact partition hits and return the
        // stored cut vector bitwise.
        (Some(cache), Some(set)) => {
            let served = e.profiled();
            for (path, w) in paths.iter().zip(ws) {
                let o = served.run_partition_cached(w);
                let _ = writeln!(
                    out,
                    "{path}: cuts [{}] (k = {}), predicted total {}, {} curve probes",
                    fmt_cuts(&o.cuts),
                    set.len(),
                    o.total,
                    o.probes
                );
            }
            let st = cache.stats();
            let _ = writeln!(
                out,
                "cache: {} k-way exact hits, {} warm starts, {} misses; {} probes saved",
                st.kway_exact_hits, st.kway_near_hits, st.kway_misses, st.probes_saved
            );
        }
    }
    if let Some(cache) = &cache {
        cache.flush_metrics(&rec);
    }
    audit.flush_metrics(&rec);
    let trace = rec.finish();
    req.sinks.write(&mut out, &trace, &audit)?;
    Ok(out)
}

/// `estimate --drift`: replay a JSONL delta script against one input
/// through the incremental [`DriftServer`], one decision line per step.
///
/// Script format — one JSON object per line (blank lines and `#` comments
/// skipped):
/// - cc: `{"insert": [[u, v], ...], "delete": [[u, v], ...]}` (either key
///   optional; duplicate inserts and absent deletes are legal no-ops)
/// - spmm: `{"replace": [{"row": r, "cols": [...], "vals": [...]}, ...],
///   "scale": [{"row": r, "factor": f}, ...]}` (either key optional;
///   `vals` defaults to ones; replaces apply before scales within a line)
///
/// `{}` is a legal empty step. A line that is not an object, or carries
/// any key outside these, fails with its line number.
fn drift_cmd(req: &EstimateRequest, input: &str, ops: &str) -> Result<String, CliError> {
    let a = load_square(input)?;
    let text = std::fs::read_to_string(Path::new(ops))
        .map_err(|e| err(format!("cannot read {ops}: {e}")))?;
    let platform = Platform::k40c_xeon_e5_2650();
    let rec = req.sinks.recorder();
    let audit = req.sinks.flight_recorder();
    // The cache is the metrics sink for patched/nudged/rebuilt counters and
    // the shadow-regret histogram; the drift server bumps its generation.
    let cache = ThresholdCache::default();
    let workload = req.workload.name();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{input}: {} rows, {} nonzeros — {workload} drift replay of {ops} on the simulated K40c + Xeon",
        a.rows(),
        a.nnz()
    );
    match req.workload {
        Workload::Cc => {
            let deltas = parse_graph_deltas(&text, a.rows())?;
            let w = CcWorkload::new(Graph::from_matrix(&a), platform);
            replay_drift(&mut out, w, &deltas, req, &cache, &audit);
        }
        Workload::Spmm => {
            let deltas = parse_csr_deltas(&text, a.rows(), a.cols())?;
            let w = SpmmWorkload::new(a, platform);
            replay_drift(&mut out, w, &deltas, req, &cache, &audit);
        }
        Workload::Hh => {
            return Err(err(format!(
                "--drift supports cc | spmm (got {workload}: hh has no delta form)"
            )))
        }
    }
    cache.flush_metrics(&rec);
    audit.flush_metrics(&rec);
    let trace = rec.finish();
    req.sinks.write(&mut out, &trace, &audit)?;
    Ok(out)
}

/// Serves `deltas` through a [`DriftServer`] with cache + audit hooks
/// attached, appending one line per step and a decision summary. A k-way
/// `devices` set swaps the scalar threshold column for the served cut
/// vector; every step also carries its patch-vs-rebuild reason (the
/// delta's span fraction against the policy's crossover estimate).
fn replay_drift<W: DriftWorkload>(
    out: &mut String,
    w: W,
    deltas: &[W::Delta],
    req: &EstimateRequest,
    cache: &ThresholdCache,
    audit: &FlightRecorder,
) {
    let mut server = DriftServer::new(w).with_cache(cache).with_audit(audit);
    if let Some(set) = &req.devices {
        server = server.with_devices(set.clone());
    }
    let kway = server.devices().len() > 2;
    if kway {
        let _ = writeln!(
            out,
            "base: cuts [{}] over {} (k = {}), predicted total {}",
            fmt_cuts(server.cuts()),
            server.devices().name(),
            server.devices().len(),
            server.total()
        );
    } else {
        let _ = writeln!(
            out,
            "base: threshold {:.1} ({}), predicted total {}",
            server.cuts()[0],
            req.workload.unit(),
            server.total()
        );
    }
    for (i, d) in deltas.iter().enumerate() {
        let step = server.apply(d);
        let position = if kway {
            format!("cuts [{}]", fmt_cuts(&step.cuts))
        } else {
            format!("threshold {:.1}", step.cuts[0])
        };
        let _ = writeln!(
            out,
            "step {i:>3}: {:<8} span {}..{} ({} units, {:.1}% vs crossover {:.1}%), {position}, total {}, probes saved {}, staleness regret {:.2}%",
            step.decision.name(),
            step.span.start,
            step.span.end,
            step.span.len(),
            100.0 * step.span_fraction,
            100.0 * step.crossover_estimate,
            step.total,
            step.probes_saved,
            step.regret_pct
        );
    }
    let st = cache.stats();
    let _ = writeln!(
        out,
        "drift: {} steps — {} patched, {} nudged, {} rebuilt; {} probes saved, {} stale cache entries evicted",
        server.steps(),
        st.patched_hits,
        st.patched_nudges,
        st.patched_rebuilds,
        st.probes_saved,
        st.stale_evictions
    );
}

/// Formats a cut-threshold vector as `a, b, c` with one decimal.
fn fmt_cuts(cuts: &[f64]) -> String {
    let v: Vec<String> = cuts.iter().map(|c| format!("{c:.1}")).collect();
    v.join(", ")
}

/// Parses the payload lines of a delta script (blanks / `#` comments out).
fn script_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
}

/// One parsed JSONL line, with the line number folded into any error.
fn script_value(lineno: usize, line: &str) -> Result<serde_json::Value, CliError> {
    serde_json::from_str(line).map_err(|e| err(format!("drift script line {lineno}: {e}")))
}

/// Checks that `v` is a JSON object whose keys all appear in `allowed`;
/// `what` names the object in the error. A misspelled or unknown key is
/// an error rather than a silently empty delta.
fn script_keys(
    v: &serde_json::Value,
    allowed: &[&str],
    what: &str,
    lineno: usize,
) -> Result<(), CliError> {
    if !matches!(v, serde_json::Value::Object(_)) {
        return Err(err(format!(
            "drift script line {lineno}: {what} must be a JSON object"
        )));
    }
    match unknown_key(v, allowed) {
        Some(k) => Err(err(format!(
            "drift script line {lineno}: unknown key \"{k}\" in {what} (expected {})",
            allowed.join(" | ")
        ))),
        None => Ok(()),
    }
}

/// The first key of a JSON object outside `allowed` (`None` when every
/// key is known, or `v` is not an object).
fn unknown_key<'v>(v: &'v serde_json::Value, allowed: &[&str]) -> Option<&'v str> {
    match v {
        serde_json::Value::Object(pairs) => pairs
            .iter()
            .map(|(k, _)| k.as_str())
            .find(|k| !allowed.contains(k)),
        _ => None,
    }
}

/// Extracts `key` as an array, defaulting to empty when absent.
fn script_list<'v>(
    v: &'v serde_json::Value,
    key: &str,
    lineno: usize,
) -> Result<&'v [serde_json::Value], CliError> {
    match v.get(key) {
        None => Ok(&[]),
        Some(serde_json::Value::Array(items)) => Ok(items),
        Some(_) => Err(err(format!(
            "drift script line {lineno}: \"{key}\" must be an array"
        ))),
    }
}

/// A non-negative integer below `bound`, the loaded input's extent in
/// `unit`s; `what` names the field in the error.
fn script_index(
    v: &serde_json::Value,
    what: &str,
    (bound, unit): (usize, &str),
    lineno: usize,
) -> Result<usize, CliError> {
    let i = v.as_u64().ok_or_else(|| {
        err(format!(
            "drift script line {lineno}: {what} must be an integer"
        ))
    })?;
    usize::try_from(i)
        .ok()
        .filter(|&i| i < bound)
        .ok_or_else(|| {
            err(format!(
                "drift script line {lineno}: {what} {i} is out of range (the input has {bound} {unit})"
            ))
        })
}

/// [`script_index`] as a `u32` vertex or column id: ids past `u32::MAX`
/// are rejected, never truncated.
fn script_id(
    v: &serde_json::Value,
    what: &str,
    extent: (usize, &str),
    lineno: usize,
) -> Result<u32, CliError> {
    let i = script_index(v, what, extent, lineno)?;
    u32::try_from(i).map_err(|_| {
        err(format!(
            "drift script line {lineno}: {what} {i} exceeds u32::MAX"
        ))
    })
}

/// `{"insert": [[u, v], ...], "delete": [[u, v], ...]}` per line over an
/// `n`-vertex graph; any other key, or an endpoint `>= n`, is rejected.
fn parse_graph_deltas(text: &str, n: usize) -> Result<Vec<GraphDelta>, CliError> {
    let pair = |v: &serde_json::Value, lineno: usize| -> Result<(u32, u32), CliError> {
        let vertices = (n, "vertices");
        match v.as_array() {
            Some([u, v]) => Ok((
                script_id(u, "edge endpoint", vertices, lineno)?,
                script_id(v, "edge endpoint", vertices, lineno)?,
            )),
            _ => Err(err(format!(
                "drift script line {lineno}: edges must be [u, v] pairs"
            ))),
        }
    };
    script_lines(text)
        .map(|(lineno, line)| {
            let v = script_value(lineno, line)?;
            script_keys(&v, &["insert", "delete"], "a cc delta", lineno)?;
            let mut d = GraphDelta::default();
            for e in script_list(&v, "insert", lineno)? {
                d.insert.push(pair(e, lineno)?);
            }
            for e in script_list(&v, "delete", lineno)? {
                d.delete.push(pair(e, lineno)?);
            }
            Ok(d)
        })
        .collect()
}

/// `{"replace": [{"row", "cols", "vals"?}], "scale": [{"row", "factor"}]}`
/// per line over a `rows x cols` matrix; any other key, at either level,
/// an out-of-range row or column, or replacement columns that are not
/// strictly increasing are rejected.
fn parse_csr_deltas(text: &str, rows: usize, cols: usize) -> Result<Vec<CsrDelta>, CliError> {
    let (rows, columns) = ((rows, "rows"), (cols, "columns"));
    script_lines(text)
        .map(|(lineno, line)| {
            let v = script_value(lineno, line)?;
            script_keys(&v, &["replace", "scale"], "an spmm delta", lineno)?;
            let mut ops = Vec::new();
            for r in script_list(&v, "replace", lineno)? {
                script_keys(r, &["row", "cols", "vals"], "a replace entry", lineno)?;
                let row = script_index(
                    r.get("row").unwrap_or(&serde_json::Value::Null),
                    "replace.row",
                    rows,
                    lineno,
                )?;
                let cols = script_list(r, "cols", lineno)?
                    .iter()
                    .map(|c| script_id(c, "replace.cols", columns, lineno))
                    .collect::<Result<Vec<_>, _>>()?;
                if !cols.windows(2).all(|w| w[0] < w[1]) {
                    return Err(err(format!(
                        "drift script line {lineno}: replace row {row} cols must be strictly increasing"
                    )));
                }
                let vals = match r.get("vals") {
                    None => vec![1.0; cols.len()],
                    Some(_) => script_list(r, "vals", lineno)?
                        .iter()
                        .map(|x| {
                            x.as_f64().ok_or_else(|| {
                                err(format!(
                                    "drift script line {lineno}: replace.vals must be numbers"
                                ))
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                };
                if vals.len() != cols.len() {
                    return Err(err(format!(
                        "drift script line {lineno}: replace row {row} has {} cols but {} vals",
                        cols.len(),
                        vals.len()
                    )));
                }
                ops.push(RowOp::Replace { row, cols, vals });
            }
            for s in script_list(&v, "scale", lineno)? {
                script_keys(s, &["row", "factor"], "a scale entry", lineno)?;
                let row = script_index(
                    s.get("row").unwrap_or(&serde_json::Value::Null),
                    "scale.row",
                    rows,
                    lineno,
                )?;
                let factor = s
                    .get("factor")
                    .and_then(serde_json::Value::as_f64)
                    .ok_or_else(|| {
                        err(format!(
                            "drift script line {lineno}: scale.factor must be a number"
                        ))
                    })?;
                ops.push(RowOp::Scale { row, factor });
            }
            Ok(CsrDelta { ops })
        })
        .collect()
}

/// Lane and pipeline span names every `estimate --trace-out` capture must
/// contain (checked by `nbwp trace`, exercised in CI).
const REQUIRED_SPANS: [&str; 11] = [
    "estimate",
    "sample",
    "identify",
    "identify.eval",
    "extrapolate",
    "partition",
    "transfer_in",
    "cpu_compute",
    "gpu_compute",
    "transfer_out",
    "merge",
];

fn trace_cmd(input: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(Path::new(input))
        .map_err(|e| err(format!("cannot read {input}: {e}")))?;
    // Dispatch on content, not just extension: audit logs are JSONL whose
    // header is typed, and Prometheus exports are `# TYPE`-led text.
    if is_audit_log(&text) {
        let check = nbwp_trace::validate_audit_jsonl(&text)
            .map_err(|e| err(format!("{input}: invalid audit log: {e}")))?;
        let t = check.totals;
        return Ok(format!(
            "{input}: valid audit log — {} events retained of {} requests \
             ({} exact hits, {} drift-patched, {} warm starts, {} cold, {} shadow runs, \
             {} dropped)\n",
            check.events.len(),
            t.requests,
            t.exact_hits,
            t.patched,
            t.near_hits,
            t.cold,
            t.shadow_runs,
            t.dropped
        ));
    }
    if input.ends_with(".prom") {
        let check = nbwp_trace::validate_prometheus(&text)
            .map_err(|e| err(format!("{input}: invalid Prometheus exposition: {e}")))?;
        return Ok(format!(
            "{input}: valid Prometheus exposition — {} metric families, {} samples\n",
            check.families.len(),
            check.samples
        ));
    }
    let check = nbwp_trace::validate_chrome_trace(&text)
        .map_err(|e| err(format!("{input}: invalid trace: {e}")))?;
    let missing: Vec<&str> = REQUIRED_SPANS
        .iter()
        .copied()
        .filter(|name| check.count(name) == 0)
        .collect();
    if !missing.is_empty() {
        return Err(err(format!(
            "{input}: structurally valid but missing expected spans: {}",
            missing.join(", ")
        )));
    }
    Ok(format!(
        "{input}: valid Chrome trace — {} events, {} spans, {} candidate evaluations\n",
        check.events,
        check.complete_spans,
        check.count("identify.eval")
    ))
}

/// Whether a captured file is an audit JSONL log: its first line is the
/// typed header written by the flight recorder.
fn is_audit_log(text: &str) -> bool {
    text.lines()
        .next()
        .is_some_and(|l| l.contains("\"type\":\"audit\""))
}

/// Nearest-rank percentile of an unsorted sample; 0.0 on an empty one.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q <= 0.0 {
        return sorted[0];
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Per-workload-kind accumulator for the `report` dashboard.
#[derive(Default)]
struct KindAgg {
    requests: u64,
    exact: u64,
    patched: u64,
    near: u64,
    cold: u64,
    latencies: Vec<f64>,
    regrets: Vec<f64>,
    sim_cost_ms: f64,
}

/// `nbwp report`: renders an audit log (validated + replayed first) and an
/// optional metrics snapshot as a text dashboard.
fn report_cmd(audit_path: &str, metrics_path: Option<&str>) -> Result<String, CliError> {
    let text = std::fs::read_to_string(Path::new(audit_path))
        .map_err(|e| err(format!("cannot read {audit_path}: {e}")))?;
    let check = nbwp_trace::validate_audit_jsonl(&text)
        .map_err(|e| err(format!("{audit_path}: invalid audit log: {e}")))?;
    let t = check.totals;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "audit: {} requests — {} exact hits, {} drift-patched, {} warm starts, {} cold ({} events retained, {} dropped)",
        t.requests, t.exact_hits, t.patched, t.near_hits, t.cold, check.events.len(), t.dropped
    );
    let served = t.requests.max(1) as f64;
    let _ = writeln!(
        out,
        "  hit rate {:.1}% exact / {:.1}% patched / {:.1}% warm; {} evaluations, {} curve probes across the stream",
        100.0 * t.exact_hits as f64 / served,
        100.0 * t.patched as f64 / served,
        100.0 * t.near_hits as f64 / served,
        t.evaluations,
        t.grad_probes
    );

    // Aggregate the retained window per workload kind (sorted for output).
    let mut kinds: std::collections::BTreeMap<String, KindAgg> = std::collections::BTreeMap::new();
    for ev in &check.events {
        let agg = kinds.entry(ev.kind.clone()).or_default();
        agg.requests += 1;
        match ev.decision {
            CacheDecision::ExactHit => agg.exact += 1,
            CacheDecision::Patched => agg.patched += 1,
            CacheDecision::NearHit => agg.near += 1,
            CacheDecision::Cold => agg.cold += 1,
        }
        if let Some(l) = ev.latency_us {
            agg.latencies.push(l);
        }
        if let Some(r) = ev.shadow_regret_pct {
            agg.regrets.push(r);
        }
        agg.sim_cost_ms += ev.sim_cost_ms;
    }
    let _ = writeln!(
        out,
        "\n{:<6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>11} {:>11} {:>11} {:>11}",
        "kind",
        "reqs",
        "exact",
        "patch",
        "warm",
        "cold",
        "lat p50 µs",
        "lat p95 µs",
        "lat max µs",
        "sim ms"
    );
    for (kind, agg) in &kinds {
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>6} {:>5} {:>5} {:>5} {:>11.2} {:>11.2} {:>11.2} {:>11.3}",
            kind,
            agg.requests,
            agg.exact,
            agg.patched,
            agg.near,
            agg.cold,
            percentile(&agg.latencies, 0.5),
            percentile(&agg.latencies, 0.95),
            percentile(&agg.latencies, 1.0),
            agg.sim_cost_ms
        );
    }

    // Drift steps carry their patch-vs-rebuild reason: the delta's span
    // fraction against the policy's crossover estimate at decision time.
    // Rebuilds are rare enough to explain individually.
    let reasons: Vec<(f64, f64, CacheDecision, u64)> = check
        .events
        .iter()
        .filter_map(|ev| {
            Some((
                ev.span_fraction?,
                ev.crossover_estimate.unwrap_or(f64::NAN),
                ev.decision,
                ev.arity,
            ))
        })
        .collect();
    if !reasons.is_empty() {
        let spans: Vec<f64> = reasons.iter().map(|r| 100.0 * r.0).collect();
        let _ = writeln!(
            out,
            "\ndrift decisions ({} audited steps): span fraction p50 {:.1}% / max {:.1}%",
            reasons.len(),
            percentile(&spans, 0.5),
            percentile(&spans, 1.0)
        );
        let mut rebuilds = 0;
        for (span, crossover, decision, arity) in &reasons {
            if *decision == CacheDecision::Cold {
                rebuilds += 1;
                let _ = writeln!(
                    out,
                    "  rebuild (arity {arity}): span {:.1}% of the input exceeded the \
                     crossover estimate {:.1}%",
                    100.0 * span,
                    100.0 * crossover
                );
            }
        }
        if rebuilds == 0 {
            let _ = writeln!(
                out,
                "  no rebuilds: every span stayed under the crossover estimate"
            );
        }
    }

    let all_regrets: Vec<f64> = kinds.values().flat_map(|a| a.regrets.clone()).collect();
    if all_regrets.is_empty() {
        let _ = writeln!(out, "\nshadow regret: no samples in the retained window");
    } else {
        let _ = writeln!(
            out,
            "\nshadow regret ({} samples): p50 {:.2}% p95 {:.2}% max {:.2}%",
            all_regrets.len(),
            percentile(&all_regrets, 0.5),
            percentile(&all_regrets, 0.95),
            percentile(&all_regrets, 1.0)
        );
    }

    if let Some(path) = metrics_path {
        let mtext = std::fs::read_to_string(Path::new(path))
            .map_err(|e| err(format!("cannot read {path}: {e}")))?;
        if path.ends_with(".prom") {
            let check = nbwp_trace::validate_prometheus(&mtext)
                .map_err(|e| err(format!("{path}: invalid Prometheus exposition: {e}")))?;
            let _ = writeln!(
                out,
                "\nmetrics: {} — {} families, {} samples (Prometheus text)",
                path,
                check.families.len(),
                check.samples
            );
        } else {
            let snap = nbwp_trace::parse_metrics_json(&mtext)
                .map_err(|e| err(format!("{path}: invalid metrics snapshot: {e}")))?;
            let _ = writeln!(out, "\nmetrics: {path}");
            for (name, v) in &snap.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
            // The k-way estimate path exports per-device work fractions as
            // `partition.fraction.d<i>` gauges; render them as one row.
            let fractions: Vec<String> = snap
                .gauges
                .iter()
                .filter_map(|(name, v)| {
                    name.strip_prefix("partition.fraction.")
                        .map(|d| format!("{d} {v:.1}%"))
                })
                .collect();
            if !fractions.is_empty() {
                let _ = writeln!(out, "  work fractions: {}", fractions.join("  "));
            }
            for (name, h) in &snap.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: n={} p50={:.2} p95={:.2} max={:.2}",
                    h.count,
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.max
                );
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// Parses and runs one command line.
    fn exec(line: &str) -> Result<String, CliError> {
        run(&parse_args(&args(line))?)
    }

    /// The request an `estimate …` line parses to.
    fn request(line: &str) -> EstimateRequest {
        match parse_args(&args(line)).unwrap() {
            Command::Estimate(req) => req,
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn parse_all_subcommands() {
        assert_eq!(parse_args(&args("datasets")).unwrap(), Command::Datasets);
        let g = parse_args(&args(
            "gen --dataset cant --scale 0.01 --seed 7 --out /tmp/x.mtx",
        ))
        .unwrap();
        assert_eq!(
            g,
            Command::Gen {
                dataset: "cant".into(),
                scale: 0.01,
                seed: 7,
                out: "/tmp/x.mtx".into()
            }
        );
        assert_eq!(
            request("estimate spmm --input /tmp/x.mtx --exhaustive"),
            EstimateRequest {
                workload: Workload::Spmm,
                strategy: Strategy::RaceThenFine,
                seed: 42,
                devices: None,
                source: Source::Input {
                    path: "/tmp/x.mtx".into(),
                    exhaustive: true
                },
                sinks: Sinks {
                    trace_out: None,
                    metrics: false,
                    metrics_out: None,
                    audit_out: None
                },
            }
        );
        let t = request("estimate cc --input x.mtx --trace-out t.json --metrics --seed 7");
        assert_eq!((t.workload, t.seed), (Workload::Cc, 7));
        assert_eq!(
            t.sinks,
            Sinks {
                trace_out: Some("t.json".into()),
                metrics: true,
                metrics_out: None,
                audit_out: None
            }
        );
        assert_eq!(
            parse_args(&args("trace t.json")).unwrap(),
            Command::Trace {
                input: "t.json".into()
            }
        );
    }

    /// The strategy is resolved once, at parse time: the workload's paper
    /// default, a `--strategy` name, or `--analytic` (never both).
    #[test]
    fn parse_strategy_flags() {
        let gradient = Strategy::GradientDescent {
            max_evals: DEFAULT_GRADIENT_EVALS,
        };
        let analytic = Strategy::Analytic { step: None };
        for (line, strategy) in [
            ("estimate cc --input x.mtx", Strategy::CoarseToFine),
            ("estimate spmm --input x.mtx", Strategy::RaceThenFine),
            ("estimate hh --batch b.txt", gradient),
            (
                "estimate cc --input x.mtx --strategy gradient_descent",
                gradient,
            ),
            ("estimate cc --input x.mtx --strategy analytic", analytic),
            ("estimate spmm --input x.mtx --analytic", analytic),
        ] {
            assert_eq!(request(line).strategy, strategy, "{line}");
        }
        let conflict = parse_args(&args(
            "estimate cc --input x.mtx --strategy exhaustive --analytic",
        ))
        .unwrap_err();
        assert!(conflict.0.contains("mutually exclusive"), "{}", conflict.0);
        let unknown = parse_args(&args(
            "estimate cc --input x.mtx --strategy simulated_annealing",
        ))
        .unwrap_err();
        assert!(unknown.0.contains("simulated_annealing"), "{}", unknown.0);
    }

    #[test]
    fn resolve_strategy_defaults_names_and_conflicts() {
        let resolve = |w, name, analytic| resolve_strategy(w, 42, name, analytic, None);
        assert_eq!(
            resolve(Workload::Cc, None, false).unwrap(),
            Strategy::CoarseToFine
        );
        assert_eq!(
            resolve(Workload::Spmm, None, false).unwrap(),
            Strategy::RaceThenFine
        );
        assert_eq!(
            resolve(Workload::Hh, None, false).unwrap(),
            Strategy::GradientDescent {
                max_evals: DEFAULT_GRADIENT_EVALS
            }
        );
        assert_eq!(
            resolve(Workload::Cc, Some("analytic"), false).unwrap(),
            Strategy::Analytic { step: None }
        );
        assert_eq!(
            resolve(Workload::Cc, None, true).unwrap(),
            Strategy::Analytic { step: None }
        );
        let conflict = resolve(Workload::Cc, Some("exhaustive"), true).unwrap_err();
        assert!(conflict.0.contains("mutually exclusive"), "{}", conflict.0);
        let unknown = resolve(Workload::Cc, Some("simulated_annealing"), false).unwrap_err();
        assert!(unknown.0.contains("simulated_annealing"), "{}", unknown.0);
        // A k-way set forces the analytic search; an explicit non-analytic
        // strategy conflicts with it, and hh cannot take a set at all.
        let set = DeviceSet::dual_cpu_dual_gpu();
        assert_eq!(
            resolve_strategy(Workload::Spmm, 42, None, false, Some(&set)).unwrap(),
            Strategy::Analytic { step: None }
        );
        assert!(resolve_strategy(Workload::Cc, 42, Some("exhaustive"), false, Some(&set)).is_err());
        assert!(resolve_strategy(Workload::Hh, 42, None, true, Some(&set)).is_err());
    }

    #[test]
    fn parse_batch_flags() {
        assert_eq!(
            request("estimate spmm --batch reqs.txt --cache-size 64").source,
            Source::Batch {
                path: "reqs.txt".into(),
                cache_size: Some(64)
            }
        );
        // --input and --batch are mutually exclusive; one is required.
        assert!(parse_args(&args("estimate cc --input x.mtx --batch b.txt")).is_err());
        assert!(parse_args(&args("estimate cc")).is_err());
        // --cache-size and --exhaustive are single/batch specific.
        assert!(parse_args(&args("estimate cc --input x.mtx --cache-size 8")).is_err());
        assert!(parse_args(&args("estimate cc --batch b.txt --exhaustive")).is_err());
    }

    #[test]
    fn parse_drift_flags() {
        assert_eq!(
            request("estimate cc --input x.mtx --drift ops.jsonl").source,
            Source::Drift {
                input: "x.mtx".into(),
                script: "ops.jsonl".into()
            }
        );
        // --drift replays one input and owns the search path.
        assert!(parse_args(&args("estimate cc --batch b.txt --drift ops.jsonl")).is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --exhaustive"
        ))
        .is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --analytic"
        ))
        .is_err());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --strategy analytic"
        ))
        .is_err());
    }

    /// End-to-end `estimate --drift`: replay JSONL delta scripts for cc and
    /// spmm, check the per-step decision lines and summary, round-trip the
    /// audit log through `nbwp trace` + `nbwp report`, and fail loudly on
    /// malformed scripts and unsupported workloads.
    #[test]
    fn drift_replay_reports_decisions() {
        let dir = std::env::temp_dir().join("nbwp_cli_drift_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("rma10.mtx");
        run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: mtx.to_str().unwrap().into(),
        })
        .unwrap();
        let estimate = |workload: &str, drift: &std::path::Path, audit: &str| {
            exec(&format!(
                "estimate {workload} --input {} --seed 3 --drift {} {audit}",
                mtx.display(),
                drift.display()
            ))
        };

        // cc: local edge edits, a deletion, and an empty step (a no-op the
        // server must still serve as a patched decision).
        let cc_ops = dir.join("cc.jsonl");
        std::fs::write(
            &cc_ops,
            "# cc deltas\n{\"insert\": [[1, 2], [2, 3]]}\n\n{\"delete\": [[1, 2]]}\n{}\n",
        )
        .unwrap();
        let text = estimate("cc", &cc_ops, "").unwrap();
        assert!(text.contains("drift replay"), "{text}");
        assert!(text.contains("base: threshold"), "{text}");
        assert_eq!(text.matches("step ").count(), 3, "{text}");
        assert!(text.contains("3 steps"), "{text}");
        assert!(text.contains("patched"), "{text}");

        // spmm: replaces (vals defaulting to ones) and a value-only scale;
        // the audit log round-trips through trace validation + report.
        let sp_ops = dir.join("spmm.jsonl");
        std::fs::write(
            &sp_ops,
            "{\"replace\": [{\"row\": 1, \"cols\": [0, 2], \"vals\": [1.5, 2.0]}]}\n\
             {\"replace\": [{\"row\": 4, \"cols\": [1]}], \"scale\": [{\"row\": 0, \"factor\": 2.0}]}\n",
        )
        .unwrap();
        let audit = dir.join("drift.jsonl");
        let text = estimate("spmm", &sp_ops, &format!("--audit-out {}", audit.display())).unwrap();
        assert_eq!(text.matches("step ").count(), 2, "{text}");
        assert!(text.contains("wrote audit log (2 events"), "{text}");
        let checked = run(&Command::Trace {
            input: audit.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(checked.contains("valid audit log"), "{checked}");
        let report = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: None,
        })
        .unwrap();
        assert!(report.contains("drift-patched"), "{report}");
        assert!(report.contains("spmm"), "{report}");

        // Malformed scripts name the offending line; hh has no delta form.
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"insert\": [[1, 2]]}\nnonsense\n").unwrap();
        let e = estimate("cc", &bad, "").unwrap_err();
        assert!(e.0.contains("line 2"), "{}", e.0);
        let e = estimate("hh", &cc_ops, "").unwrap_err();
        assert!(e.0.contains("no delta form"), "{}", e.0);

        for f in [&mtx, &cc_ops, &sp_ops, &audit, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    /// Unknown keys, at the top level or inside a replace/scale entry, and
    /// non-object lines are line-numbered errors; `{}` stays a legal empty
    /// step.
    #[test]
    fn drift_scripts_reject_unknown_keys() {
        let graph_err = |text: &str| parse_graph_deltas(text, 8).unwrap_err().0;
        let csr_err = |text: &str| parse_csr_deltas(text, 8, 8).unwrap_err().0;

        let e = graph_err("{\"op\": \"bogus\"}\n");
        assert!(
            e.contains("line 1") && e.contains("unknown key \"op\""),
            "{e}"
        );
        let e = graph_err("{\"insert\": [[1, 2]]}\n# comment\n{\"inserts\": [[2, 3]]}\n");
        assert!(e.contains("line 3") && e.contains("\"inserts\""), "{e}");
        let e = graph_err("[[1, 2]]\n");
        assert!(e.contains("line 1") && e.contains("JSON object"), "{e}");

        let e = csr_err("{\"replac\": []}\n");
        assert!(e.contains("line 1") && e.contains("\"replac\""), "{e}");
        let e = csr_err("{}\n{\"replace\": [{\"row\": 1, \"col\": [2]}]}\n");
        assert!(e.contains("line 2") && e.contains("\"col\""), "{e}");
        let e = csr_err("{\"scale\": [{\"row\": 0, \"factor\": 2.0, \"by\": 3}]}\n");
        assert!(e.contains("line 1") && e.contains("\"by\""), "{e}");
        let e = csr_err("{\"replace\": [7]}\n");
        assert!(e.contains("line 1") && e.contains("JSON object"), "{e}");
        let e = csr_err("\"scale\"\n");
        assert!(e.contains("line 1") && e.contains("JSON object"), "{e}");

        let empty = parse_graph_deltas("{}\n", 0).unwrap();
        assert_eq!(empty.len(), 1);
        assert!(empty[0].insert.is_empty() && empty[0].delete.is_empty());
        let empty = parse_csr_deltas("{}\n", 0, 0).unwrap();
        assert_eq!(empty.len(), 1);
        assert!(empty[0].ops.is_empty());

        // Through the CLI: the bogus step fails the request instead of
        // being served as a "patched" empty delta.
        let dir = std::env::temp_dir().join("nbwp_cli_drift_keys_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("rma10.mtx");
        let ops = dir.join("bogus.jsonl");
        run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: mtx.to_str().unwrap().into(),
        })
        .unwrap();
        std::fs::write(&ops, "{\"op\": \"bogus\"}\n").unwrap();
        let e = exec(&format!(
            "estimate cc --input {} --seed 3 --drift {}",
            mtx.display(),
            ops.display()
        ))
        .unwrap_err();
        assert!(e.0.contains("line 1") && e.0.contains("\"op\""), "{}", e.0);
        for f in [&mtx, &ops] {
            std::fs::remove_file(f).ok();
        }
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn batch_estimate_serves_and_reports_cache_totals() {
        let dir = std::env::temp_dir().join("nbwp_cli_batch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        // Duplicates, blank lines, and comments in the request file.
        let reqs = dir.join("reqs.txt");
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());
        std::fs::write(&reqs, format!("# batch\n{p1}\n\n{p2}\n{p1}\n{p1}\n")).unwrap();

        for analytic in ["", "--analytic"] {
            let text = exec(&format!(
                "estimate spmm --batch {} --cache-size 8 --seed 3 {analytic}",
                reqs.display()
            ))
            .unwrap();
            assert!(text.contains("4 requests"), "{text}");
            assert_eq!(text.matches("threshold").count(), 4, "{text}");
            // Two distinct inputs → two misses; the two duplicate requests
            // are deduped inside the batch before the cache is consulted.
            assert!(text.contains("2 misses"), "{text}");
            assert!(text.contains("2 of 4 requests deduped in-batch"), "{text}");
        }

        // An unreadable request file and an empty one both fail loudly.
        let batch =
            |reqs: &std::path::Path| exec(&format!("estimate spmm --batch {}", reqs.display()));
        assert!(batch(&dir.join("nope.txt")).is_err());
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "# nothing\n\n").unwrap();
        assert!(batch(&empty).is_err());
        for f in [&m1, &m2, &reqs, &empty] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_observability_flags_and_report() {
        let e = request("estimate cc --input x.mtx --metrics-out m.prom --audit-out a.jsonl");
        assert_eq!(
            e.sinks,
            Sinks {
                trace_out: None,
                metrics: false,
                metrics_out: Some("m.prom".into()),
                audit_out: Some("a.jsonl".into()),
            }
        );
        assert_eq!(
            parse_args(&args("report a.jsonl")).unwrap(),
            Command::Report {
                audit: "a.jsonl".into(),
                metrics: None
            }
        );
        assert_eq!(
            parse_args(&args("report a.jsonl --metrics m.json")).unwrap(),
            Command::Report {
                audit: "a.jsonl".into(),
                metrics: Some("m.json".into())
            }
        );
        assert!(parse_args(&args("report")).is_err());
        assert!(parse_args(&args("report a.jsonl --frob x")).is_err());
    }

    /// The full observability loop: capture audit + metrics from single and
    /// batch estimates, validate every artifact through `nbwp trace`, and
    /// render the dashboard with `nbwp report`.
    #[test]
    fn audit_and_metrics_artifacts_round_trip() {
        let dir = std::env::temp_dir().join("nbwp_cli_audit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());

        // Single estimate: one cold request in the audit log, metrics in
        // both export formats.
        let audit = dir.join("single.jsonl");
        let prom = dir.join("single.prom");
        let text = exec(&format!(
            "estimate cc --input {p1} --seed 3 --metrics-out {} --audit-out {}",
            prom.display(),
            audit.display()
        ))
        .unwrap();
        assert!(text.contains("wrote audit log (1 events"), "{text}");
        assert!(text.contains("wrote metrics"), "{text}");
        for artifact in [&audit, &prom] {
            let report = run(&Command::Trace {
                input: artifact.to_str().unwrap().into(),
            })
            .unwrap();
            assert!(report.contains("valid"), "{report}");
        }
        let report = run(&Command::Trace {
            input: audit.to_str().unwrap().into(),
        })
        .unwrap();
        assert!(report.contains("1 cold"), "{report}");

        // Batch estimate: duplicates are deduped, so the audit log records
        // one event per distinct class; the dashboard renders both files.
        let reqs = dir.join("reqs.txt");
        std::fs::write(&reqs, format!("{p1}\n{p2}\n{p1}\n{p1}\n")).unwrap();
        let baudit = dir.join("batch.jsonl");
        let bmetrics = dir.join("batch.json");
        let text = exec(&format!(
            "estimate spmm --batch {} --cache-size 8 --seed 3 --analytic \
             --metrics-out {} --audit-out {}",
            reqs.display(),
            bmetrics.display(),
            baudit.display()
        ))
        .unwrap();
        assert!(text.contains("wrote audit log (2 events"), "{text}");
        let dash = run(&Command::Report {
            audit: baudit.to_str().unwrap().into(),
            metrics: Some(bmetrics.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(dash.contains("audit: 2 requests"), "{dash}");
        assert!(dash.contains("spmm"), "{dash}");
        assert!(dash.contains("audit.requests = 2"), "{dash}");
        // Tampering with the log is caught by the replay validator.
        let good = std::fs::read_to_string(&baudit).unwrap();
        std::fs::write(&baudit, good.replace("\"cold\":2", "\"cold\":3")).unwrap();
        assert!(run(&Command::Report {
            audit: baudit.to_str().unwrap().into(),
            metrics: None,
        })
        .is_err());

        for f in [&m1, &m2, &audit, &prom, &reqs, &baudit, &bmetrics] {
            std::fs::remove_file(f).ok();
        }
    }

    /// The serving audit + metrics export smoke test: a 4-request spmm
    /// batch (two distinct inputs) through the CLI, exported as audit
    /// JSONL and as Prometheus and JSON metrics, checked with the same
    /// validators `nbwp trace` uses.
    #[test]
    fn batch_audit_and_metrics_exports_validate() {
        let dir = std::env::temp_dir().join("nbwp_cli_audit_export_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let cli = |line: String| run(&parse_args(&args(&line)).unwrap()).unwrap();
        let (cant, rma10) = (path("cant.mtx"), path("rma10.mtx"));
        cli(format!(
            "gen --dataset cant --scale 0.01 --seed 42 --out {cant}"
        ));
        cli(format!(
            "gen --dataset rma10 --scale 0.01 --seed 43 --out {rma10}"
        ));
        let reqs = path("reqs.txt");
        std::fs::write(&reqs, format!("{cant}\n{rma10}\n{cant}\n{cant}\n")).unwrap();
        let serve = |audit: &str, metrics: &str| {
            cli(format!(
                "estimate spmm --analytic --batch {reqs} --cache-size 8 \
                 --audit-out {audit} --metrics-out {metrics}"
            ))
        };
        let (audit, prom) = (path("audit.jsonl"), path("metrics.prom"));
        let (audit2, json) = (path("audit2.jsonl"), path("metrics.json"));
        serve(&audit, &prom);
        serve(&audit2, &json);

        // Audit JSONL: header + one event per distinct batch input, with
        // the schema tag and a coherent decision mix.
        let text = std::fs::read_to_string(&audit).unwrap();
        let head = text.lines().next().unwrap();
        assert!(head.contains("\"schema\":\"nbwp-audit/v3\""), "{head}");
        let check = nbwp_trace::validate_audit_jsonl(&text).unwrap();
        let t = &check.totals;
        assert!(t.requests == 2 && check.events.len() == 2, "{t:?}");
        assert_eq!(t.exact_hits + t.patched + t.near_hits + t.cold, t.requests);
        for (i, ev) in check.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert!(ev.kind == "spmm" && ev.digest > 0, "{ev:?}");
        }

        // Prometheus exposition: well-formed lines, the audit counter with
        // its request count, the cache family, and a full histogram.
        let text = std::fs::read_to_string(&prom).unwrap();
        let check = nbwp_trace::validate_prometheus(&text).unwrap();
        assert!(text.lines().any(|l| l == "nbwp_audit_requests_total 2"));
        for (family, kind) in [
            ("nbwp_audit_requests_total", "counter"),
            ("nbwp_threshold_cache_hit_total", "counter"),
            ("nbwp_audit_sim_cost_ms", "histogram"),
        ] {
            assert_eq!(check.family_type(family), Some(kind), "{family}");
        }
        assert!(text.contains("nbwp_audit_sim_cost_ms_bucket{le=\"+Inf\"} "));
        assert!(text.contains("\nnbwp_audit_sim_cost_ms_count "));

        // JSON export: versioned schema, same counters as the audit log.
        let m = nbwp_trace::parse_metrics_json(&std::fs::read_to_string(&json).unwrap()).unwrap();
        assert_eq!(m.counter("audit.requests"), Some(2));
        assert!(m.counter("threshold_cache.insert").unwrap_or(0) >= 1);

        for f in [cant, rma10, reqs, audit, prom, audit2, json] {
            std::fs::remove_file(f).ok();
        }
    }

    /// Drift-script indices are checked against the loaded input: an
    /// out-of-range vertex, row or column, an id past `u32::MAX`, or
    /// non-increasing replacement columns is a line-numbered error, not a
    /// panic in the delta applier.
    #[test]
    fn drift_scripts_reject_out_of_range_indices() {
        let graph_err = |text: &str, n: usize| parse_graph_deltas(text, n).unwrap_err().0;
        let csr_err = |text: &str, n: usize| parse_csr_deltas(text, n, n).unwrap_err().0;
        let e = graph_err("{\"insert\": [[1, 2]]}", 0);
        assert!(
            e.contains("line 1") && e.contains("edge endpoint 1 is out of range"),
            "{e}"
        );
        let e = graph_err("{}\n{\"delete\": [[0, 3]]}", 3);
        assert!(
            e.contains("line 2") && e.contains("(the input has 3 vertices)"),
            "{e}"
        );
        let e = graph_err("{\"insert\": [[4294967296, 0]]}", usize::MAX);
        assert!(e.contains("exceeds u32::MAX"), "{e}");
        let e = csr_err("{\"replace\": [{\"row\": 50, \"cols\": [0]}]}", 1);
        assert!(e.contains("line 1") && e.contains("replace.row 50"), "{e}");
        let e = csr_err("{\"replace\": [{\"row\": 0, \"cols\": [90]}]}", 1);
        assert!(
            e.contains("replace.cols 90") && e.contains("1 columns"),
            "{e}"
        );
        let e = csr_err("{\"scale\": [{\"row\": 7, \"factor\": 2.0}]}", 7);
        assert!(e.contains("scale.row 7 is out of range"), "{e}");
        let e = csr_err("{\"replace\": [{\"row\": 0, \"cols\": [0, 0]}]}", 2);
        assert!(e.contains("strictly increasing"), "{e}");
        assert_eq!(
            parse_graph_deltas("{\"insert\": [[0, 2]]}", 3)
                .unwrap()
                .len(),
            1
        );

        // Through the CLI, on an empty and a 1x1 input.
        let dir = std::env::temp_dir().join("nbwp_cli_drift_range_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (empty, one, ops) = (path("empty.mtx"), path("one.mtx"), path("ops.jsonl"));
        let header = "%%MatrixMarket matrix coordinate real general\n";
        std::fs::write(&empty, format!("{header}0 0 0\n")).unwrap();
        std::fs::write(&one, format!("{header}1 1 1\n1 1 1.0\n")).unwrap();
        let drift = |workload: &str, input: &str, script: &str| {
            std::fs::write(&ops, script).unwrap();
            let line = format!("estimate {workload} --input {input} --drift {ops}");
            run(&parse_args(&args(&line)).unwrap()).unwrap_err().0
        };
        let e = drift("cc", &empty, "{\"insert\": [[1, 2]]}\n");
        assert!(e.contains("line 1") && e.contains("out of range"), "{e}");
        let e = drift(
            "spmm",
            &one,
            "{\"replace\": [{\"row\": 50, \"cols\": [90]}]}\n",
        );
        assert!(e.contains("line 1") && e.contains("replace.row 50"), "{e}");
        let e = drift(
            "spmm",
            &one,
            "{}\n{\"scale\": [{\"row\": 3, \"factor\": 2}]}\n",
        );
        assert!(e.contains("line 2") && e.contains("scale.row 3"), "{e}");
        let e = drift(
            "spmm",
            &one,
            "{\"replace\": [{\"row\": 0, \"cols\": [0, 0]}]}\n",
        );
        assert!(
            e.contains("line 1") && e.contains("strictly increasing"),
            "{e}"
        );
        for f in [empty, one, ops] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_devices_flag() {
        let e = request("estimate spmm --input x.mtx --devices dual-cpu-dual-gpu");
        assert_eq!(e.devices, Some(DeviceSet::dual_cpu_dual_gpu()));
        // Underscores are accepted interchangeably with hyphens.
        let e = request("estimate cc --input x.mtx --devices quad_cpu_quad_gpu");
        assert_eq!(e.devices, Some(DeviceSet::quad_cpu_quad_gpu()));
        // The canonical pair is every serving path's default topology.
        assert_eq!(
            request("estimate cc --input x.mtx --devices cpu-gpu").devices,
            None
        );

        // An unknown preset names its argument position and the valid names.
        let bad = parse_args(&args("estimate spmm --input x.mtx --devices warp-pool")).unwrap_err();
        assert!(bad.0.contains("argument 6 (--devices)"), "{}", bad.0);
        assert!(bad.0.contains("warp-pool"), "{}", bad.0);
        assert!(bad.0.contains("dual-cpu-dual-gpu"), "{}", bad.0);
        let bad =
            parse_args(&args("estimate spmm --seed 9 --input x.mtx --devices nope")).unwrap_err();
        assert!(bad.0.contains("argument 8 (--devices)"), "{}", bad.0);

        // k-way sets ride along with --batch (partition-aware cache
        // serving) and --drift (warm cut-vector serving); only the scalar
        // --exhaustive sweep still conflicts.
        assert!(parse_args(&args(
            "estimate spmm --batch b.txt --devices dual-cpu-dual-gpu"
        ))
        .is_ok());
        assert!(parse_args(&args(
            "estimate cc --input x.mtx --drift o.jsonl --devices quad-cpu-quad-gpu"
        ))
        .is_ok());
        assert!(parse_args(&args(
            "estimate spmm --input x.mtx --devices dual-cpu-dual-gpu --exhaustive"
        ))
        .is_err());
        assert!(parse_args(&args("estimate spmm --batch b.txt --devices cpu-gpu")).is_ok());
    }

    /// Renders a [`DeviceSet`] in the `--devices <file.json>` topology
    /// format (the test-side inverse of `load_device_set_json`).
    fn device_set_to_json(set: &DeviceSet) -> String {
        let devices: Vec<String> = set
            .devices()
            .iter()
            .map(|d| {
                let kind = match d.kind {
                    DeviceKind::Cpu => "cpu",
                    DeviceKind::Gpu => "gpu",
                };
                let link = match d.link {
                    Link::Host => "\"host\"".to_string(),
                    Link::PlatformPcie => "\"platform-pcie\"".to_string(),
                    Link::Pcie(m) => format!(
                        "{{\"latency_us\": {}, \"bw_gbs\": {}}}",
                        m.latency_us, m.bw_gbs
                    ),
                };
                format!(
                    "{{\"kind\": \"{kind}\", \"speed\": {}, \"link\": {link}}}",
                    d.speed
                )
            })
            .collect();
        format!(
            "{{\"name\": \"{}\", \"devices\": [{}]}}",
            set.name(),
            devices.join(", ")
        )
    }

    /// `--devices <file.json>`: a serialized topology loads back equal
    /// (round trip through the JSON format), defaults apply, and every
    /// structural error names the argument position and the offending
    /// device index.
    #[test]
    fn device_set_json_round_trips_and_validates() {
        let dir = std::env::temp_dir().join("nbwp_cli_devices_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let parse_with = |path: &std::path::Path| {
            parse_args(&args(&format!(
                "estimate spmm --input x.mtx --devices {}",
                path.to_str().unwrap()
            )))
        };
        let loaded = |cmd: Command| match cmd {
            Command::Estimate(req) => req.devices.expect("--devices parsed"),
            other => panic!("parsed {other:?}"),
        };

        // Round trip: custom speeds and a dedicated NIC-style link survive
        // serialization → file → loader bitwise (DeviceSet is PartialEq).
        let set = DeviceSet::new(
            "bench-rig",
            vec![
                Device::cpu(),
                Device::cpu().with_speed(0.5),
                Device::gpu(),
                Device::gpu()
                    .with_speed(0.75)
                    .with_link(Link::Pcie(PcieModel {
                        latency_us: 5.0,
                        bw_gbs: 8.0,
                    })),
            ],
        );
        let rig = dir.join("rig.json");
        std::fs::write(&rig, device_set_to_json(&set)).unwrap();
        assert_eq!(loaded(parse_with(&rig).unwrap()), set);

        // Defaults: name falls back to the file stem, speed to 1.0, link to
        // host (CPU) / platform PCIe (GPU). That is the canonical pair, which
        // a request carries as no k-way set.
        let pairish = dir.join("pairish.json");
        std::fs::write(
            &pairish,
            "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"gpu\"}]}",
        )
        .unwrap();
        assert_eq!(
            load_device_set_json(pairish.to_str().unwrap()),
            Ok(DeviceSet::new(
                "pairish",
                vec![Device::cpu(), Device::gpu()]
            ))
        );
        assert!(matches!(
            parse_with(&pairish),
            Ok(Command::Estimate(EstimateRequest { devices: None, .. }))
        ));

        // Structural errors carry the argument position and the device
        // index (the loader's own checks and `DeviceSet::try_new`'s alike).
        let bad = dir.join("bad.json");
        let cases = [
            (
                "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"tpu\"}]}",
                "devices[1]: unknown kind \"tpu\"",
            ),
            (
                "{\"devices\": [{\"kind\": \"cpu\", \"speed\": -1}, {\"kind\": \"gpu\"}]}",
                "devices[0]: speed must be finite and positive",
            ),
            (
                "{\"devices\": [{\"kind\": \"gpu\"}, {\"kind\": \"cpu\"}]}",
                "devices[1]: CPU-class devices must precede GPU-class",
            ),
            (
                "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"gpu\", \
                 \"link\": {\"latency_us\": 5.0}}]}",
                "devices[1]: a link object needs a numeric \"bw_gbs\"",
            ),
            ("{\"name\": \"x\"}", "needs a \"devices\" array"),
            // Unknown keys at every level: a misspelled `speed` is an
            // error, not a full-speed device.
            (
                "{\"devices\": [{\"kind\": \"cpu\", \"sped\": 0.1}, {\"kind\": \"gpu\"}]}",
                "devices[0]: unknown key \"sped\"",
            ),
            (
                "{\"nmae\": \"x\", \"devices\": [{\"kind\": \"cpu\"}]}",
                "unknown key \"nmae\"",
            ),
            (
                "{\"devices\": [{\"kind\": \"cpu\"}, {\"kind\": \"gpu\", \"link\": \
                 {\"latency_us\": 5.0, \"bw_gbs\": 8.0, \"bw\": 1.0}}]}",
                "devices[1].link: unknown key \"bw\"",
            ),
        ];
        for (text, needle) in cases {
            std::fs::write(&bad, text).unwrap();
            let e = parse_with(&bad).unwrap_err();
            assert!(e.0.contains("(--devices)"), "{}", e.0);
            assert!(e.0.contains(needle), "{needle} not in: {}", e.0);
        }
        let e = parse_with(&dir.join("missing.json")).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);

        for f in [&rig, &pairish, &bad] {
            std::fs::remove_file(f).ok();
        }
    }

    /// End-to-end warm k-way serving through the CLI: `--batch` with a
    /// k-way set serves repeats as exact partition hits from the cache,
    /// and `--drift` with a k-way set serves cut vectors with per-step
    /// patch-vs-rebuild reasons that `nbwp report` renders.
    #[test]
    fn kway_batch_and_drift_serve_partitions() {
        let dir = std::env::temp_dir().join("nbwp_cli_kway_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m1 = dir.join("rma10.mtx");
        let m2 = dir.join("cant.mtx");
        for (name, path) in [("rma10", &m1), ("cant", &m2)] {
            run(&Command::Gen {
                dataset: name.into(),
                scale: 0.005,
                seed: 3,
                out: path.to_str().unwrap().into(),
            })
            .unwrap();
        }
        let (p1, p2) = (m1.to_str().unwrap(), m2.to_str().unwrap());

        // Batch: the duplicate request returns the cached partition as an
        // exact hit (no dedup on this path — the cache itself serves it).
        let reqs = dir.join("reqs.txt");
        std::fs::write(&reqs, format!("{p1}\n{p1}\n{p2}\n")).unwrap();
        let batch = |workload: &str| {
            exec(&format!(
                "estimate {workload} --batch {} --cache-size 8 --seed 3 \
                 --devices dual-cpu-dual-gpu",
                reqs.display()
            ))
        };
        let text = batch("spmm").unwrap();
        assert_eq!(text.matches("cuts [").count(), 3, "{text}");
        assert!(text.contains("(k = 4)"), "{text}");
        assert!(text.contains("1 k-way exact hits"), "{text}");
        let e = batch("hh").unwrap_err();
        assert!(e.0.contains("cc | spmm"), "{}", e.0);

        // Drift: k-way steps print the served cut vector and the decision
        // reason; the audit log feeds the report's drift-decision section.
        let ops = dir.join("cc.jsonl");
        std::fs::write(
            &ops,
            "{\"insert\": [[1, 2], [2, 3]]}\n{\"delete\": [[1, 2]]}\n",
        )
        .unwrap();
        let audit = dir.join("kway-drift.jsonl");
        let text = exec(&format!(
            "estimate cc --input {p1} --seed 3 --audit-out {} --drift {} \
             --devices dual-cpu-dual-gpu",
            audit.display(),
            ops.display()
        ))
        .unwrap();
        assert!(text.contains("base: cuts ["), "{text}");
        assert!(text.contains("(k = 4)"), "{text}");
        assert_eq!(text.matches("vs crossover").count(), 2, "{text}");
        assert!(text.contains("2 steps"), "{text}");
        let report = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: None,
        })
        .unwrap();
        assert!(
            report.contains("drift decisions (2 audited steps)"),
            "{report}"
        );
        assert!(report.contains("span fraction p50"), "{report}");

        for f in [&m1, &m2, &reqs, &ops, &audit] {
            std::fs::remove_file(f).ok();
        }
    }

    /// End-to-end `estimate --devices`: the k-way analytic path prints the
    /// cut vector and one work-fraction row per device, exports the
    /// fractions as gauges, and `nbwp report --metrics` renders them as a
    /// dedicated row. hh has no contiguous-span curve and fails loudly.
    #[test]
    fn kway_estimate_reports_per_device_fractions() {
        let dir = std::env::temp_dir().join("nbwp_cli_kway_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("rma10.mtx");
        run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: mtx.to_str().unwrap().into(),
        })
        .unwrap();
        let estimate = |workload: &str, set: &str, sinks: &str| {
            exec(&format!(
                "estimate {workload} --input {} --seed 3 --devices {set} {sinks}",
                mtx.display()
            ))
        };

        let metrics = dir.join("kway.json");
        let text = estimate(
            "spmm",
            "dual-cpu-dual-gpu",
            &format!("--metrics-out {}", metrics.display()),
        )
        .unwrap();
        assert!(
            text.contains("k-way partition over dual-cpu-dual-gpu (k = 4)"),
            "{text}"
        );
        assert!(text.contains("cut thresholds ["), "{text}");
        for row in [
            "device 0 (cpu ×1.00)",
            "device 1 (cpu ×0.50)",
            "device 2 (gpu ×1.00)",
            "device 3 (gpu ×0.75)",
        ] {
            assert!(text.contains(row), "{text}");
        }
        assert_eq!(text.matches("% of the work").count(), 4, "{text}");

        // cc prices bands too (k = 8 preset).
        let text = estimate("cc", "quad-cpu-quad-gpu", "").unwrap();
        assert_eq!(text.matches("% of the work").count(), 8, "{text}");

        // The gauges landed in the snapshot and the dashboard renders the
        // dedicated work-fraction row (needs an audit log for the report).
        let audit = dir.join("kway-audit.jsonl");
        estimate(
            "spmm",
            "cpu-gpu", // canonical: serving path records audit
            &format!("--audit-out {}", audit.display()),
        )
        .unwrap();
        let dash = run(&Command::Report {
            audit: audit.to_str().unwrap().into(),
            metrics: Some(metrics.to_str().unwrap().into()),
        })
        .unwrap();
        assert!(dash.contains("work fractions: d0"), "{dash}");
        assert!(dash.contains("d3"), "{dash}");

        // hh partitions by a predicate, not contiguous spans.
        let e = estimate("hh", "dual-cpu-dual-gpu", "").unwrap_err();
        assert!(e.0.contains("cc | spmm"), "{}", e.0);
        // An explicit non-analytic strategy conflicts with a k-way set.
        let e = estimate("spmm", "dual-cpu-dual-gpu", "--strategy coarse_to_fine").unwrap_err();
        assert!(e.0.contains("--analytic"), "{}", e.0);

        for f in [&mtx, &metrics, &audit] {
            std::fs::remove_file(f).ok();
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("estimate sorting --input x")).is_err());
        assert!(
            parse_args(&args("gen --dataset cant")).is_err(),
            "missing --out"
        );
        assert!(parse_args(&args("gen --scale abc --out x --dataset cant")).is_err());
        assert!(parse_args(&args("trace")).is_err(), "trace needs a file");
        assert!(parse_args(&args("trace a.json b.json")).is_err());
        assert!(parse_args(&args("estimate cc --input x --trace-out")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn datasets_listing_contains_the_registry() {
        let text = run(&Command::Datasets).unwrap();
        assert!(text.contains("cant"));
        assert!(text.contains("asia_osm"));
        assert!(text.lines().count() >= 16);
    }

    #[test]
    fn gen_then_estimate_roundtrip() {
        let dir = std::env::temp_dir().join("nbwp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rma10.mtx");
        let path_s = path.to_str().unwrap().to_string();
        let msg = run(&Command::Gen {
            dataset: "rma10".into(),
            scale: 0.005,
            seed: 3,
            out: path_s.clone(),
        })
        .unwrap();
        assert!(msg.contains("wrote"));

        for wl in ["cc", "spmm", "hh"] {
            let text = exec(&format!("estimate {wl} --input {path_s} --seed 3")).unwrap();
            assert!(text.contains("estimated threshold"), "{wl}: {text}");
        }

        // Analytic descent routes through the profiled estimator and reports
        // its strategy name in the header.
        for wl in ["cc", "spmm", "hh"] {
            let text = exec(&format!(
                "estimate {wl} --input {path_s} --seed 3 --analytic"
            ))
            .unwrap();
            assert!(text.contains("(analytic)"), "{wl}: {text}");
            assert!(text.contains("estimated threshold"), "{wl}: {text}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn estimate_traces_validate_and_are_deterministic() {
        let dir = std::env::temp_dir().join("nbwp_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let mtx = dir.join("cant.mtx");
        let mtx_s = mtx.to_str().unwrap().to_string();
        run(&Command::Gen {
            dataset: "cant".into(),
            scale: 0.004,
            seed: 5,
            out: mtx_s.clone(),
        })
        .unwrap();

        let capture = |trace_path: &std::path::Path, wl: &str| -> String {
            let text = exec(&format!(
                "estimate {wl} --input {mtx_s} --seed 5 --trace-out {} --metrics",
                trace_path.display()
            ))
            .unwrap();
            assert!(text.contains("wrote trace"), "{text}");
            std::fs::read_to_string(trace_path).unwrap()
        };

        for wl in ["cc", "spmm", "hh"] {
            let t1 = dir.join(format!("{wl}-1.json"));
            let t2 = dir.join(format!("{wl}-2.json"));
            let first = capture(&t1, wl);
            let second = capture(&t2, wl);
            // Same seed, same input ⇒ byte-identical traces.
            assert_eq!(first, second, "{wl} trace not reproducible");
            // The capture passes the structural validator and contains all
            // pipeline + lane spans.
            let report = run(&Command::Trace {
                input: t1.to_str().unwrap().into(),
            })
            .unwrap();
            assert!(report.contains("valid Chrome trace"), "{wl}: {report}");
            std::fs::remove_file(&t1).ok();
            std::fs::remove_file(&t2).ok();
        }

        // JSONL flavor writes one object per line.
        let jl = dir.join("cc.jsonl");
        capture(&jl, "cc");
        let text = std::fs::read_to_string(&jl).unwrap();
        assert!(text.lines().count() > 3);
        assert!(text.lines().next().unwrap().contains("\"type\":\"trace\""));
        std::fs::remove_file(&jl).ok();
        std::fs::remove_file(&mtx).ok();
    }

    #[test]
    fn trace_cmd_rejects_invalid_and_incomplete_traces() {
        let dir = std::env::temp_dir().join("nbwp_cli_trace_reject");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "not json").unwrap();
        assert!(run(&Command::Trace {
            input: bad.to_str().unwrap().into()
        })
        .is_err());
        // Structurally valid but missing the pipeline spans.
        std::fs::write(
            &bad,
            r#"[{"name":"a","ph":"X","pid":0,"tid":0,"ts":0.0,"dur":1.0}]"#,
        )
        .unwrap();
        let e = run(&Command::Trace {
            input: bad.to_str().unwrap().into(),
        })
        .unwrap_err();
        assert!(e.0.contains("missing expected spans"), "{e}");
        std::fs::remove_file(&bad).ok();
    }

    #[test]
    fn gen_rejects_unknown_dataset_and_bad_scale() {
        assert!(run(&Command::Gen {
            dataset: "nope".into(),
            scale: 0.01,
            seed: 1,
            out: "/tmp/x.mtx".into()
        })
        .is_err());
        assert!(run(&Command::Gen {
            dataset: "cant".into(),
            scale: 2.0,
            seed: 1,
            out: "/tmp/x.mtx".into()
        })
        .is_err());
    }

    #[test]
    fn estimate_rejects_missing_file() {
        let e = exec("estimate cc --input /nonexistent/file.mtx --seed 1").unwrap_err();
        assert!(e.0.contains("cannot open /nonexistent/file.mtx"), "{}", e.0);
    }
}
