//! The benchmark's inputs: the nine `wet-workloads` programs at a fixed
//! statement target, with their in-IR RNG seeds drawn from the
//! benchmark seed, and the `wet trace --save` path that turns one into
//! a `.wetz` container.

use crate::spans::Spans;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wet_core::fault::Vfs;
use wet_core::{Wet, WetBuilder, WetConfig};
use wet_interp::{Interp, InterpConfig, RunResult};
use wet_ir::ballarus::BallLarus;
use wet_ir::Program;
use wet_workloads::Kind;

/// Executed-statement target per program (3.06 M statements over all
/// nine at the default seeds).
pub const TARGET_STMTS: u64 = 250_000;

/// SplitMix64: the benchmark's only source of randomness.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One seeded program, ready to run.
pub struct Prog {
    pub kind: Kind,
    pub program: Program,
    pub inputs: Vec<i64>,
    pub bl: BallLarus,
}

impl Prog {
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// The container's file name.
    pub fn file(&self) -> String {
        format!("{}.wetz", self.name())
    }

    pub fn interp(&self) -> Interp<'_> {
        Interp::new(&self.program, &self.bl, InterpConfig::default())
    }
}

/// The nine programs. Every program but li-like takes an RNG seed as
/// its second input; it is offset by a value drawn from `seed`. li-like's
/// second input is a recursion depth and stays as it is.
pub fn programs(seed: u64) -> Vec<Prog> {
    let mut rng = Rng::new(seed ^ 0x7752_5441_4345);
    Kind::all()
        .into_iter()
        .map(|kind| {
            let program = kind.program();
            let mut inputs = kind.inputs_for(TARGET_STMTS);
            let offset = (rng.next() % 1_000_000) as i64;
            if kind != Kind::Li {
                inputs[1] += offset;
            }
            let bl = BallLarus::new(&program);
            Prog {
                kind,
                program,
                inputs,
                bl,
            }
        })
        .collect()
}

/// What one `wet trace --save` produced.
pub struct Traced {
    pub wet: Wet,
    pub run: RunResult,
    pub container_bytes: u64,
    pub tier1_bytes: u64,
}

/// The `wet trace --save` path, in-process: `Interp::run` into a
/// `WetBuilder`, `finish`, `Wet::compress` (one thread), then
/// `write_to_path`. With `spans`, each call gets its own span under
/// one parent span for the program.
pub fn trace_to(
    p: &Prog,
    interp: &Interp<'_>,
    path: &Path,
    vfs: &Vfs,
    spans: Option<&Spans>,
) -> io::Result<Traced> {
    let req = spans.map(|s| s.open(p.name(), 0, None));
    let parent = req.as_ref().map(|r| r.id);
    let span =
        |name: &'static str| spans.map(|s| s.open(name, req.as_ref().map_or(0, |r| r.req), parent));

    let s = span("build.run");
    let mut builder = WetBuilder::new(&p.program, &p.bl, WetConfig::default());
    let run = interp
        .run(&p.inputs, &mut builder)
        .map_err(|e| io::Error::other(e.to_string()))?;
    close(spans, s);

    let s = span("build.finish");
    let mut wet = builder.finish();
    close(spans, s);
    let tier1_bytes = wet.sizes().t1_total();

    let s = span("tier2.encode");
    wet.compress();
    close(spans, s);

    let s = span("serial.write");
    wet.write_to_path(path, vfs)?;
    close(spans, s);
    close(spans, req);
    let container_bytes = std::fs::metadata(path)?.len();
    Ok(Traced {
        wet,
        run,
        container_bytes,
        tier1_bytes,
    })
}

fn close(spans: Option<&Spans>, open: Option<crate::spans::Open>) {
    if let (Some(s), Some(o)) = (spans, open) {
        s.close(o);
    }
}

/// Reads a container back, validates it, and checks it against the run
/// that produced it. Returns the container's bytes.
pub fn read_back(path: &Path, run: &RunResult) -> Result<Vec<u8>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut wet =
        Wet::read_from(&mut bytes.as_slice()).map_err(|e| format!("{}: {e}", path.display()))?;
    wet.validate()
        .map_err(|e| format!("{}: invalid: {e}", path.display()))?;
    let st = wet.stats();
    if st.stmts_executed != run.stmts_executed || st.paths_executed != run.paths_executed {
        return Err(format!("{}: stats disagree with the run", path.display()));
    }
    let steps = wet_core::query::cf_trace_forward(&mut wet).map_err(|e| e.to_string())?;
    if steps.len() as u64 != run.paths_executed {
        return Err(format!(
            "{}: cf trace has {} steps, run had {} paths",
            path.display(),
            steps.len(),
            run.paths_executed
        ));
    }
    Ok(bytes)
}

/// The nine seeded programs traced into `dir/<name>.wetz`.
pub struct Corpus {
    pub progs: Vec<Prog>,
    pub traced: Vec<Traced>,
    pub dir: PathBuf,
    /// Seconds each program spent in the `wet trace --save` path.
    pub secs: Vec<f64>,
}

impl Corpus {
    pub fn build(seed: u64, dir: &Path, spans: Option<&Spans>) -> io::Result<Corpus> {
        std::fs::create_dir_all(dir)?;
        let vfs = Vfs::real();
        let progs = programs(seed);
        let mut traced = Vec::new();
        let mut secs = Vec::new();
        for p in &progs {
            let interp = p.interp();
            let t0 = Instant::now();
            traced.push(trace_to(p, &interp, &dir.join(p.file()), &vfs, spans)?);
            secs.push(t0.elapsed().as_secs_f64());
        }
        Ok(Corpus {
            progs,
            traced,
            dir: dir.to_owned(),
            secs,
        })
    }

    /// One more `wet trace --save` pass of the nine programs, into
    /// `out`. Each container must match the one set-up wrote byte for
    /// byte; the comparison is outside the timed calls. Returns each
    /// program's seconds in the traced path.
    pub fn retrace(&self, out: &Path) -> io::Result<Vec<f64>> {
        std::fs::create_dir_all(out)?;
        let vfs = Vfs::real();
        let mut secs = Vec::new();
        for p in &self.progs {
            let interp = p.interp();
            let path = out.join(p.file());
            let t0 = Instant::now();
            trace_to(p, &interp, &path, &vfs, None)?;
            secs.push(t0.elapsed().as_secs_f64());
            if std::fs::read(&path)? != std::fs::read(self.dir.join(p.file()))? {
                return Err(io::Error::other(format!(
                    "{}: retraced container differs from set-up's",
                    p.file()
                )));
            }
        }
        Ok(secs)
    }

    pub fn stmts(&self) -> u64 {
        self.traced.iter().map(|t| t.run.stmts_executed).sum()
    }

    pub fn container_bytes(&self) -> u64 {
        self.traced.iter().map(|t| t.container_bytes).sum()
    }
}
