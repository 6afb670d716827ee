//! `trace`: the `wet trace --save` path on each of the nine programs back
//! to back, repeated for whole passes.

use crate::corpus::{programs, read_back, trace_to, Prog};
use crate::spans::Spans;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wet_core::fault::Vfs;

pub struct TraceBench {
    progs: Vec<Prog>,
    /// Each program's validated reference container.
    refs: Vec<Vec<u8>>,
    dir: PathBuf,
}

/// What the timed passes produced.
pub struct Passes {
    /// Seconds in the traced path, per program trace, pass by pass.
    pub secs: Vec<Vec<f64>>,
    /// Statements executed per pass.
    pub stmts: u64,
    /// Container bytes per pass.
    pub bytes: u64,
    /// Program traces whose container matched the reference byte for byte.
    pub ok: u64,
    pub attempted: u64,
}

impl TraceBench {
    /// Set-up: the seeded programs, and one pass that writes each
    /// program's reference container.
    pub fn setup(seed: u64, dir: &Path) -> io::Result<(TraceBench, Vec<crate::corpus::Traced>)> {
        std::fs::create_dir_all(dir)?;
        let progs = programs(seed);
        let vfs = Vfs::real();
        let mut traced = Vec::new();
        for p in &progs {
            traced.push(trace_to(p, &p.interp(), &dir.join(p.file()), &vfs, None)?);
        }
        Ok((
            TraceBench {
                progs,
                refs: Vec::new(),
                dir: dir.to_owned(),
            },
            traced,
        ))
    }

    /// Reads each reference container back and validates it against the
    /// run that produced it.
    pub fn validate(&mut self, traced: &[crate::corpus::Traced]) -> Result<(), String> {
        self.refs = self
            .progs
            .iter()
            .zip(traced)
            .map(|(p, t)| read_back(&self.dir.join(p.file()), &t.run))
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    /// Whole passes until `secs` have passed. Each container is re-read
    /// and compared with its validated reference outside the timed
    /// interval.
    pub fn measure(&self, secs: f64, spans: Option<&Spans>) -> io::Result<Passes> {
        let vfs = Vfs::real();
        let interps: Vec<_> = self.progs.iter().map(Prog::interp).collect();
        let out = self.dir.join("pass");
        std::fs::create_dir_all(&out)?;
        let mut res = Passes {
            secs: Vec::new(),
            stmts: 0,
            bytes: 0,
            ok: 0,
            attempted: 0,
        };
        let start = Instant::now();
        while res.secs.is_empty() || start.elapsed().as_secs_f64() < secs {
            let mut pass = Vec::new();
            let (mut stmts, mut bytes) = (0, 0);
            for ((p, interp), reference) in self.progs.iter().zip(&interps).zip(&self.refs) {
                let path = out.join(p.file());
                let t0 = Instant::now();
                let traced = trace_to(p, interp, &path, &vfs, spans);
                pass.push(t0.elapsed().as_secs_f64());
                res.attempted += 1;
                if let Ok(t) = traced {
                    stmts += t.run.stmts_executed;
                    bytes += t.container_bytes;
                    if std::fs::read(&path).is_ok_and(|b| b == *reference) {
                        res.ok += 1;
                    }
                }
            }
            (res.stmts, res.bytes) = (stmts, bytes);
            res.secs.push(pass);
        }
        Ok(res)
    }
}
