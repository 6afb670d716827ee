//! The wet benchmark: one command for the `trace`, `query-hot` and
//! `query-cold` workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload query-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! it runs the traced run and prints the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object.
//! Scratch files live under `perfbench/out/`.

mod corpus;
mod layers;
mod serve_wl;
mod spans;
mod trace_wl;
mod wire;

use corpus::Corpus;
use serve_wl::{Cold, Cursors, Hot, Measured};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace_wl::TraceBench;

pub const WORKLOADS: [&str; 3] = ["trace", "query-hot", "query-cold"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Warm-up replay before a query workload's timed interval.
const WARMUP_SECS: f64 = 1.0;

/// Segments of a query workload's timed interval. A `wet trace --save`
/// pass of the nine programs runs between two segments.
const SEGMENTS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{val}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(val.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a percentile or median.
    pub samples: Option<usize>,
}

pub fn metric(name: &str, unit: &'static str, value: f64, samples: Option<usize>) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        samples,
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    fn print(&self, workload: &str) -> Result<(), String> {
        println!(
            "# workload {workload}: {} attempted, {} failed",
            self.attempted, self.failed
        );
        let mut json = Vec::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not a number", m.name));
            }
            let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            println!("# {:<34} {:>16.6} {}{n}", m.name, m.value, m.unit);
            json.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            json.join(",")
        );
        Ok(())
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile of `v` (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Mean of the values between the first and third quartile of `v`.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = &s[s.len() / 4..s.len() - s.len() / 4];
    mid.iter().sum::<f64>() / mid.len().max(1) as f64
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .map(str::to_owned)
        })
        .and_then(|l| {
            l.split_whitespace()
                .nth(1)
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `SETUPS` times in fresh directories and keeps the last
/// result; `teardown` undoes the others. Returns the set-up times.
fn setups<T>(
    dir: &Path,
    mut setup: impl FnMut(&Path) -> io::Result<T>,
    mut teardown: impl FnMut(T) -> io::Result<()>,
) -> io::Result<(T, Vec<f64>)> {
    let mut times = Vec::new();
    for i in 0..SETUPS {
        let d = dir.join(format!("setup{i}"));
        let t0 = Instant::now();
        let x = setup(&d)?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            return Ok((x, times));
        }
        teardown(x)?;
        std::fs::remove_dir_all(&d)?;
    }
    unreachable!("SETUPS is nonzero")
}

/// The time of a pass when every program takes its fastest time over
/// `passes` (rows of per-program seconds). Other work on a shared host
/// only ever slows a pass down, and a slow stretch can cover most of the
/// passes of a run, which moves a median; the fastest time is the
/// program's own cost.
fn fastest_pass_secs(passes: &[Vec<f64>]) -> f64 {
    (0..passes[0].len())
        .map(|j| {
            passes
                .iter()
                .map(|pass| pass[j])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

fn common(setup: &[f64], stmts: u64, bytes: u64, trace_mstmt_per_s: f64) -> Vec<Metric> {
    vec![
        metric("setup_s", "s", median(setup), Some(setup.len())),
        metric("trace_mstmt_per_s", "Mstmt/s", trace_mstmt_per_s, None),
        metric(
            "wetz_bytes_per_stmt",
            "B/stmt",
            bytes as f64 / stmts as f64,
            None,
        ),
    ]
}

fn run_trace(a: &Args, dir: &Path) -> Result<Report, String> {
    let ((mut bench, traced), setup) =
        setups(dir, |d| TraceBench::setup(a.seed, d), |_| Ok(())).map_err(|e| e.to_string())?;
    bench.validate(&traced)?;
    drop(traced);
    let p = bench.measure(a.seconds, None).map_err(|e| e.to_string())?;
    let secs = fastest_pass_secs(&p.secs);
    let lat: Vec<f64> = p.secs.iter().flatten().map(|s| s * 1e3).collect();
    let mut m = common(&setup, p.stmts, p.bytes, p.stmts as f64 / secs / 1e6);
    m[1].samples = Some(p.secs.len());
    let per_program: Vec<Vec<f64>> = (0..p.secs[0].len())
        .map(|j| p.secs.iter().map(|pass| pass[j] * 1e3).collect())
        .collect();
    let verified = p.ok as f64 / p.attempted as f64;
    m.extend([
        metric(
            "req_per_s",
            "1/s",
            verified * per_program.len() as f64 / secs,
            None,
        ),
        metric("p50_ms", "ms", median(&lat), Some(lat.len())),
        metric("p99_ms", "ms", geomean_p99(&per_program), Some(lat.len())),
        metric(
            "ok_frac",
            "ratio",
            p.ok as f64 / p.attempted as f64,
            Some(p.attempted as usize),
        ),
        metric(
            "full_frac",
            "ratio",
            if p.ok > 0 { 1.0 } else { 0.0 },
            Some(p.ok as usize),
        ),
        metric("peak_rss_mb", "MiB", peak_rss_mb(), None),
    ]);
    Ok(Report {
        attempted: p.attempted,
        failed: p.attempted - p.ok,
        metrics: m,
    })
}

/// The latency, throughput and correctness metrics of a query run,
/// measured in one or more segments.
pub fn query_metrics(rs: &[Measured]) -> (Vec<Metric>, u64, u64) {
    let all = || rs.iter().flat_map(|r| &r.samples);
    let ok: Vec<&serve_wl::Sample> = all().filter(|s| s.verdict.ok()).collect();
    let full = ok
        .iter()
        .filter(|s| s.verdict == wire::Verdict::Full)
        .count();
    let lat: Vec<f64> = ok.iter().map(|s| s.lat.as_secs_f64() * 1e3).collect();
    let attempted = all().count() as u64;
    let mut per_trace: Vec<Vec<f64>> = Vec::new();
    for s in &ok {
        if per_trace.len() <= s.trace {
            per_trace.resize(s.trace + 1, Vec::new());
        }
        per_trace[s.trace].push(s.lat.as_secs_f64() * 1e3);
    }
    // Completions per whole second of each segment.
    let mut per_window = Vec::new();
    for r in rs {
        let mut w = vec![0.0; (r.secs as usize).max(1)];
        for s in r.samples.iter().filter(|s| s.verdict.ok()) {
            if let Some(n) = w.get_mut(s.at.duration_since(r.start).as_secs() as usize) {
                *n += 1.0;
            }
        }
        per_window.extend(w);
    }
    let m = vec![
        metric(
            "req_per_s",
            "1/s",
            interquartile_mean(&per_window),
            Some(per_window.len()),
        ),
        metric("p50_ms", "ms", median(&lat), Some(lat.len())),
        metric("p99_ms", "ms", geomean_p99(&per_trace), Some(lat.len())),
        metric(
            "ok_frac",
            "ratio",
            ok.len() as f64 / attempted.max(1) as f64,
            Some(attempted as usize),
        ),
        metric(
            "full_frac",
            "ratio",
            if ok.is_empty() {
                0.0
            } else {
                full as f64 / ok.len() as f64
            },
            Some(ok.len()),
        ),
    ];
    (m, attempted, attempted - ok.len() as u64)
}

/// Each trace's p99 latency, geometric mean over the traces. One trace
/// whose data the seed makes costlier moves it by its ninth share.
pub fn geomean_p99(per_trace: &[Vec<f64>]) -> f64 {
    let logs: Vec<f64> = per_trace
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| percentile(v, 0.99).ln())
        .collect();
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Per-op p50 lines and failure kinds, for the human-readable report.
fn describe(rs: &[Measured]) {
    let all = || rs.iter().flat_map(|r| &r.samples);
    let lat: Vec<f64> = all()
        .filter(|s| s.verdict.ok())
        .map(|s| s.lat.as_secs_f64() * 1e3)
        .collect();
    println!(
        "# {:<34} {:>16.6} ms  (n={})",
        "p99_all_requests_ms",
        percentile(&lat, 0.99),
        lat.len()
    );
    for (k, name) in wire::OP_NAMES.iter().enumerate() {
        let lat: Vec<f64> = all()
            .filter(|s| s.op == k && s.verdict.ok())
            .map(|s| s.lat.as_secs_f64() * 1e3)
            .collect();
        if !lat.is_empty() {
            println!(
                "# {:<34} {:>16.6} ms  (n={})",
                format!("{name}_p50_ms"),
                median(&lat),
                lat.len()
            );
        }
    }
    let mut kinds: Vec<String> = all()
        .filter(|s| !s.verdict.ok())
        .map(|s| format!("{:?}", s.verdict))
        .collect();
    kinds.sort();
    kinds.dedup();
    if !kinds.is_empty() {
        println!("# failures: {}", kinds.join(", "));
    }
}

fn run_hot(a: &Args, dir: &Path) -> Result<Report, String> {
    let mut passes = Vec::new();
    let (mut hot, setup) = setups(
        dir,
        |d| {
            let h = Hot::setup(a.seed, d, None)?;
            passes.push(h.corpus.secs.clone());
            Ok(h)
        },
        |h| h.daemon.stop(),
    )
    .map_err(|e| e.to_string())?;
    hot.prepare(a.seed).map_err(|e| e.to_string())?;
    let r = segmented(a.seconds, &hot.corpus, &mut passes, |secs, at| {
        hot.measure(secs, None, at)
    })?;
    let (level, brownouts) = hot.daemon.pressure().map_err(|e| e.to_string())?;
    println!("# pressure level at end {level}, brownouts {brownouts}");
    describe(&r);
    let (stmts, bytes) = (hot.corpus.stmts(), hot.corpus.container_bytes());
    hot.daemon.stop().map_err(|e| e.to_string())?;
    finish_query(&setup, stmts, bytes, &passes, &r)
}

fn run_cold(a: &Args, dir: &Path) -> Result<Report, String> {
    let mut passes = Vec::new();
    let (mut cold, setup) = setups(
        dir,
        |d| {
            let c = Cold::setup(a.seed, d)?;
            passes.push(c.corpus.secs.clone());
            Ok(c)
        },
        |c| c.daemon.stop(),
    )
    .map_err(|e| e.to_string())?;
    cold.prepare(a.seed).map_err(|e| e.to_string())?;
    let r = segmented(a.seconds, &cold.corpus, &mut passes, |secs, at| {
        cold.measure(secs, None, at)
    })?;
    let (level, brownouts) = cold.daemon.pressure().map_err(|e| e.to_string())?;
    println!("# pressure level at end {level}, brownouts {brownouts}");
    describe(&r);
    let (stmts, bytes) = (cold.corpus.stmts(), cold.corpus.container_bytes());
    cold.daemon.stop().map_err(|e| e.to_string())?;
    finish_query(&setup, stmts, bytes, &passes, &r)
}

/// A query workload's timed interval, after a warm-up, in `SEGMENTS`
/// segments that together last `secs`. Between two segments the nine
/// programs are traced once more and the pass is added to `passes`, so
/// the query workload's `trace_mstmt_per_s` samples the whole run rather
/// than only the first seconds of set-up.
fn segmented(
    secs: f64,
    corpus: &Corpus,
    passes: &mut Vec<Vec<f64>>,
    measure: impl Fn(f64, &mut Cursors) -> Measured,
) -> Result<Vec<Measured>, String> {
    measure(WARMUP_SECS, &mut Cursors::default());
    let mut at = Cursors::default();
    let mut rs = Vec::new();
    for k in 0..SEGMENTS {
        if k > 0 {
            let pass = corpus.retrace(&corpus.dir.join("pass"));
            passes.push(pass.map_err(|e| e.to_string())?);
        }
        rs.push(measure(secs / SEGMENTS as f64, &mut at));
    }
    Ok(rs)
}

fn finish_query(
    setup: &[f64],
    stmts: u64,
    bytes: u64,
    passes: &[Vec<f64>],
    r: &[Measured],
) -> Result<Report, String> {
    let secs = fastest_pass_secs(passes);
    let mut m = common(setup, stmts, bytes, stmts as f64 / secs / 1e6);
    m[1].samples = Some(passes.len());
    let (q, attempted, failed) = query_metrics(r);
    m.extend(q);
    m.push(metric("peak_rss_mb", "MiB", peak_rss_mb(), None));
    Ok(Report {
        attempted,
        failed,
        metrics: m,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Scratch files stay inside the benchmark's own directory; short
    // relative paths keep the Unix socket paths under the OS limit.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let dir = PathBuf::from(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::env::set_current_dir(&out)) {
        eprintln!("perfbench: cannot use {}: {e}", out.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, &dir)
    } else {
        match args.workload.as_str() {
            "trace" => run_trace(&args, &dir),
            "query-hot" => run_hot(&args, &dir),
            _ => run_cold(&args, &dir),
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    match result.and_then(|r| r.print(&args.workload)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
