//! Workload runner for the repository benchmark (`perfbench/run.py`).
//!
//! Each invocation is one fresh process running one step of a
//! workload, so every timed step starts with empty process-wide memos:
//!
//! ```text
//! restore-perfbench figs    --seed S --store DIR --out FILE [--points N] [--trials N]
//!                           [--arch-trials N] [--threads N] [--prune off|on] [--fig4-only]
//!                           [--expect empty|filled] [--trace]
//! restore-perfbench maskmap --seed S --map-dir DIR --out FILE --phase build|load
//!                           [--warmup N] [--window N] [--queries N] [--trace]
//! restore-perfbench probe   --seed S [--store DIR] [--scratch DIR]
//! ```
//!
//! Every mode prints one JSON object on stdout: named numbers
//! (`values`), pass/fail checks (`checks`) and, with `--trace`, the
//! spans recorded around each public call into the simulator.

mod figs;
mod maskmap;
mod probe;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub use trace::Tracer;

/// Parsed `--flag value` pairs plus bare `--switch`es.
pub struct Args {
    mode: String,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut it = std::env::args().skip(1);
        let mode = it.next().ok_or("missing mode (figs|maskmap|probe)")?;
        let mut values = BTreeMap::new();
        let mut switches = Vec::new();
        let mut pending: Option<String> = None;
        for a in it {
            if let Some(flag) = pending.take() {
                values.insert(flag, a);
            } else if a == "--trace" || a == "--fig4-only" {
                switches.push(a);
            } else if let Some(flag) = a.strip_prefix("--") {
                pending = Some(flag.to_owned());
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        if let Some(flag) = pending {
            return Err(format!("--{flag} needs a value"));
        }
        Ok(Args { mode, values, switches })
    }

    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.values.get(name).map(String::as_str).ok_or_else(|| format!("--{name} is required"))
    }

    pub fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.str(name).map(PathBuf::from)
    }

    pub fn num(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: `{v}` is not an unsigned integer")),
        }
    }
}

/// The JSON object a mode prints: numbers, checks, spans.
#[derive(Default)]
pub struct Report {
    values: Vec<(String, f64)>,
    checks: Vec<(String, bool, String)>,
}

impl Report {
    pub fn value(&mut self, name: impl Into<String>, v: f64) {
        self.values.push((name.into(), v));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    fn render(&self, tracer: &Tracer) -> String {
        let values: Vec<String> =
            self.values.iter().map(|(k, v)| format!("{}:{}", quote(k), number(*v))).collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(k, ok, d)| format!("[{},{},{}]", quote(k), ok, quote(d)))
            .collect();
        format!(
            "{{\"values\":{{{}}},\"checks\":[{}],\"spans\":{}}}",
            values.join(","),
            checks.join(","),
            tracer.render()
        )
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "benchmark values are finite");
    format!("{v:?}")
}

/// SplitMix64: the benchmark's own seeded generator for probe inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_4A11_0000)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Number of entries in `dir`: the benchmark hands every step a fresh
/// directory and checks it is in the state the step expects.
pub fn dir_entries(dir: &std::path::Path) -> Result<usize, String> {
    Ok(std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .count())
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = Tracer::new(args.switch("--trace"));
    let mut report = Report::default();
    match args.mode.as_str() {
        "figs" => figs::run(args, &mut tracer, &mut report)?,
        "maskmap" => maskmap::run(args, &mut tracer, &mut report)?,
        "probe" => probe::run(args, &mut report)?,
        other => return Err(format!("unknown mode {other:?}")),
    }
    Ok(report.render(&tracer))
}

fn main() -> ExitCode {
    match Args::parse().and_then(|a| run(&a)) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("restore-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
