//! `query-hot` and `query-cold`: a `wet_serve::Server` in-process behind
//! a real Unix socket, driven by two closed-loop clients.

use crate::corpus::{Corpus, Rng};
use crate::spans::Spans;
use crate::wire::{self, Answer, Conn, Op, Verdict};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wet_core::store::LAZY_SECTIONS;
use wet_serve::json::{self, Value};
use wet_serve::{ServeOptions, Server};

/// Client connections driving the daemon.
pub const CLIENTS: usize = 2;

/// Each client's next position in its replay order. A measurement split
/// into segments resumes where the previous segment stopped, so the
/// segments together replay the list as one interval would.
pub type Cursors = [usize; CLIENTS];

/// The daemon, serving on its own thread.
pub struct Daemon {
    pub server: Server,
    pub addr: String,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Daemon {
    /// Binds `addr` and serves on a new thread: one query-engine thread,
    /// an unlimited store budget.
    pub fn start(addr: &str, store_root: Option<&Path>) -> io::Result<Daemon> {
        let _ = std::fs::remove_file(addr);
        let opts = ServeOptions {
            threads: 1,
            store_budget: 0,
            store_root: store_root.map(Path::to_owned),
            ..ServeOptions::default()
        };
        let server = Server::with_store(opts);
        let listener = wet_serve::bind(addr)?;
        let srv = server.clone();
        let thread = Some(std::thread::spawn(move || srv.serve(listener)));
        Ok(Daemon {
            server,
            addr: addr.to_owned(),
            thread,
        })
    }

    /// The daemon's pressure level (0 nominal, 1 elevated, 2 critical)
    /// and brownout count, read through the `stats` op.
    pub fn pressure(&self) -> io::Result<(u64, u64)> {
        let mut c = Conn::connect(&self.addr)?;
        let (_, _, r) = c.call(|id| format!("{{\"id\":{id},\"op\":\"stats\"}}").into_bytes());
        let r = r.map_err(io::Error::other)?;
        let v = json::parse(&String::from_utf8_lossy(&r)).map_err(io::Error::other)?;
        let res = v
            .get("result")
            .ok_or_else(|| io::Error::other("stats without result"))?;
        let level = match res.get("pressure").and_then(Value::as_str) {
            Some("nominal") => 0,
            Some("elevated") => 1,
            Some("critical") => 2,
            other => {
                return Err(io::Error::other(format!(
                    "unknown pressure level {other:?}"
                )))
            }
        };
        Ok((
            level,
            res.get("brownouts").and_then(Value::as_u64).unwrap_or(0),
        ))
    }

    /// Drains the daemon through the `shutdown` op and waits for it.
    pub fn stop(mut self) -> io::Result<()> {
        let mut c = Conn::connect(&self.addr)?;
        let _ = c.call(|id| format!("{{\"id\":{id},\"op\":\"shutdown\"}}").into_bytes());
        drop(c);
        let res = self
            .thread
            .take()
            .expect("daemon thread joined once")
            .join();
        let _ = std::fs::remove_file(&self.addr);
        res.map_err(|_| io::Error::other("serve thread panicked"))?
    }
}

/// One client's record of one request or session.
pub struct Sample {
    /// The trace, as an index into the corpus.
    pub trace: usize,
    pub op: usize,
    pub lat: Duration,
    pub verdict: Verdict,
    /// When the answer arrived.
    pub at: Instant,
}

/// What a measured interval produced.
pub struct Measured {
    pub samples: Vec<Sample>,
    pub start: Instant,
    /// The measured interval asked for, in seconds.
    pub secs: f64,
}

/// `query-hot`: the nine traces opened in-process with their programs,
/// every lazy section resident, and a fixed request list.
pub struct Hot {
    pub corpus: Corpus,
    pub daemon: Daemon,
    pub list: Vec<(usize, Op)>,
    /// Reference answer per list entry (index into `answers`).
    pub answer_of: Vec<usize>,
    pub answers: Vec<Answer>,
}

impl Hot {
    /// Set-up: trace the nine programs, start the daemon, open each
    /// container with its program through `TraceStore::open` and make
    /// every lazy section resident.
    pub fn setup(seed: u64, dir: &Path, spans: Option<&Spans>) -> io::Result<Hot> {
        let corpus = Corpus::build(seed, dir, spans)?;
        let daemon = Daemon::start(&dir.join("hot.sock").to_string_lossy(), None)?;
        let store = daemon.server.store();
        for (p, _) in corpus.progs.iter().zip(&corpus.traced) {
            let s = spans.map(|s| s.open("store.open", 0, None));
            let t = store
                .open(p.name(), "", &dir.join(p.file()), Some(p.program.clone()))
                .map_err(store_err)?;
            let parent = s.as_ref().map(|o| o.id);
            let req = s.as_ref().map_or(0, |o| o.req);
            if let (Some(sp), Some(o)) = (spans, s) {
                sp.close(o);
            }
            let e = spans.map(|s| s.open("store.ensure", req, parent));
            drop(store.ensure(&t, &LAZY_SECTIONS).map_err(store_err)?);
            if let (Some(sp), Some(o)) = (spans, e) {
                sp.close(o);
            }
        }
        Ok(Hot {
            corpus,
            daemon,
            list: Vec::new(),
            answer_of: Vec::new(),
            answers: Vec::new(),
        })
    }

    /// Builds the seeded request list and its reference answers. Per
    /// trace: `cf_trace` forward and backward twice each, one
    /// `value_trace` per executed load and one `address_trace` per
    /// executed load and store. The seed sets the traces' data and the
    /// order of the list.
    pub fn prepare(&mut self, seed: u64) -> io::Result<()> {
        let mut rng = Rng::new(seed ^ 0x0068_6f74);
        let mut list = Vec::new();
        for (t, (p, tr)) in self
            .corpus
            .progs
            .iter()
            .zip(&self.corpus.traced)
            .enumerate()
        {
            let (loads, stores) = wire::executed_mem_stmts(&tr.wet, &p.program);
            list.extend(
                [Op::CfForward, Op::CfForward, Op::CfBackward, Op::CfBackward].map(|o| (t, o)),
            );
            list.extend(loads.iter().map(|&s| (t, Op::Value(s))));
            list.extend(loads.iter().chain(&stores).map(|&s| (t, Op::Address(s))));
        }
        rng.shuffle(&mut list);
        let (answer_of, answers) = references(&mut self.corpus, &list)?;
        (self.list, self.answer_of, self.answers) = (list, answer_of, answers);
        Ok(())
    }

    /// Two clients replay the list, one forward and one backward, from
    /// `at` until `secs` have passed.
    pub fn measure(&self, secs: f64, spans: Option<&Spans>, at: &mut Cursors) -> Measured {
        let names: Vec<&str> = self.corpus.progs.iter().map(|p| p.name()).collect();
        run_clients(secs, at, |c, first, deadline| {
            let mut conn = match Conn::connect(&self.daemon.addr) {
                Ok(c) => c,
                Err(e) => return vec![failed(0, &e)],
            };
            let mut out = Vec::new();
            for n in first.. {
                if Instant::now() >= deadline {
                    break;
                }
                let i = replay_index(c, n, self.list.len());
                let (t, op) = self.list[i];
                let ans = &self.answers[self.answer_of[i]];
                let start = Instant::now();
                let (id, lat, resp) = conn.call(|id| op.frame(id, names[t]));
                if let Some(s) = spans {
                    s.interval(wire::OP_NAMES[op.kind()], 0, None, start, start + lat);
                }
                let verdict = match resp {
                    Ok(r) => wire::check(&r, id, ans),
                    Err(kind) => Verdict::Error(kind),
                };
                out.push(Sample {
                    trace: t,
                    op: op.kind(),
                    lat,
                    verdict,
                    at: Instant::now(),
                });
            }
            out
        })
    }
}

/// Reference answers for every distinct request of `list`, computed by
/// calling the query functions directly on the WETs that were written.
fn references(corpus: &mut Corpus, list: &[(usize, Op)]) -> io::Result<(Vec<usize>, Vec<Answer>)> {
    let mut seen: HashMap<(usize, Op), usize> = HashMap::new();
    let mut answers = Vec::new();
    let mut answer_of = Vec::with_capacity(list.len());
    for &(t, op) in list {
        let idx = match seen.get(&(t, op)) {
            Some(&i) => i,
            None => {
                let a = wire::answer(&mut corpus.traced[t].wet, &corpus.progs[t].program, &op)
                    .map_err(io::Error::other)?;
                answers.push(a);
                seen.insert((t, op), answers.len() - 1);
                answers.len() - 1
            }
        };
        answer_of.push(idx);
    }
    Ok((answer_of, answers))
}

/// `query-cold`: the daemon with `--store-root` at the set-up dir. A
/// session opens a trace over the wire under a session-unique id, runs
/// one program-free query and closes it, so every answer is decoded
/// from container bytes.
pub struct Cold {
    pub corpus: Corpus,
    pub daemon: Daemon,
    pub sessions: Vec<(usize, Op)>,
    pub answer_of: Vec<usize>,
    pub answers: Vec<Answer>,
}

impl Cold {
    pub fn setup(seed: u64, dir: &Path) -> io::Result<Cold> {
        let corpus = Corpus::build(seed, dir, None)?;
        let daemon = Daemon::start(&dir.join("cold.sock").to_string_lossy(), Some(dir))?;
        Ok(Cold {
            corpus,
            daemon,
            sessions: Vec::new(),
            answer_of: Vec::new(),
            answers: Vec::new(),
        })
    }

    /// Per trace: two `cf_trace` forward sessions and one `value_trace`
    /// session per executed load. The seed sets the traces' data and the
    /// order of the list.
    pub fn prepare(&mut self, seed: u64) -> io::Result<()> {
        let mut rng = Rng::new(seed ^ 0x636f_6c64);
        let mut sessions = Vec::new();
        for (t, (p, tr)) in self
            .corpus
            .progs
            .iter()
            .zip(&self.corpus.traced)
            .enumerate()
        {
            let (loads, _) = wire::executed_mem_stmts(&tr.wet, &p.program);
            sessions.extend([(t, Op::CfForward), (t, Op::CfForward)]);
            sessions.extend(loads.iter().map(|&s| (t, Op::Value(s))));
        }
        rng.shuffle(&mut sessions);
        let (answer_of, answers) = references(&mut self.corpus, &sessions)?;
        (self.sessions, self.answer_of, self.answers) = (sessions, answer_of, answers);
        Ok(())
    }

    /// Two clients run sessions from `at` until `secs` have passed. A
    /// session's latency runs from sending `open` to receiving the
    /// query's answer.
    pub fn measure(&self, secs: f64, spans: Option<&Spans>, at: &mut Cursors) -> Measured {
        let files: Vec<String> = self.corpus.progs.iter().map(|p| p.file()).collect();
        run_clients(secs, at, |c, first, deadline| {
            let mut conn = match Conn::connect(&self.daemon.addr) {
                Ok(c) => c,
                Err(e) => return vec![failed(0, &e)],
            };
            let mut out = Vec::new();
            for n in first.. {
                if Instant::now() >= deadline {
                    break;
                }
                let i = replay_index(c, n, self.sessions.len());
                let (t, op) = self.sessions[i];
                let ans = &self.answers[self.answer_of[i]];
                let id = format!("c{c}-{n}");
                let start = Instant::now();
                let (oid, olat, open) = conn.call(|rid| {
                    format!(
                        "{{\"id\":{rid},\"op\":\"open\",\"path\":\"{}\",\"trace\":\"{id}\"}}",
                        files[t]
                    )
                    .into_bytes()
                });
                let opened = matches!(&open, Ok(r) if wire::is_ok(r, oid));
                let (qid, qlat, resp) = if opened {
                    conn.call(|rid| op.frame(rid, &id))
                } else {
                    (
                        0,
                        Duration::ZERO,
                        Err(open.err().unwrap_or_else(|| "open".into())),
                    )
                };
                let lat = start.elapsed();
                let closed = opened && {
                    let (cid, _, r) = conn.call(|rid| {
                        format!("{{\"id\":{rid},\"op\":\"close\",\"trace\":\"{id}\"}}").into_bytes()
                    });
                    matches!(&r, Ok(r) if wire::is_ok(r, cid))
                };
                if let Some(s) = spans {
                    let parent = s.interval("session", 0, None, start, start + lat);
                    s.interval("open", parent, Some(parent), start, start + olat);
                    s.interval(
                        wire::OP_NAMES[op.kind()],
                        parent,
                        Some(parent),
                        start + lat - qlat,
                        start + lat,
                    );
                }
                let verdict = match resp {
                    Ok(r) if closed => wire::check(&r, qid, ans),
                    Ok(_) => Verdict::Error("close".into()),
                    Err(kind) => Verdict::Error(kind),
                };
                out.push(Sample {
                    trace: t,
                    op: op.kind(),
                    lat,
                    verdict,
                    at: Instant::now(),
                });
            }
            out
        })
    }
}

/// The list position of client `c`'s `n`-th request. The first client
/// replays the list forward and the second backward, so the two pass
/// each other at every alignment instead of keeping one fixed offset
/// that the seed's shuffle would decide.
fn replay_index(c: usize, n: usize, len: usize) -> usize {
    if c.is_multiple_of(2) {
        n % len
    } else {
        len - 1 - n % len
    }
}

fn store_err(e: wet_core::StoreErr) -> io::Error {
    io::Error::other(e.to_string())
}

fn failed(op: usize, e: &io::Error) -> Sample {
    Sample {
        trace: 0,
        op,
        lat: Duration::ZERO,
        verdict: Verdict::Error(format!("connect: {e}")),
        at: Instant::now(),
    }
}

/// Runs `CLIENTS` client loops for `secs`, client `c` starting at its
/// `at[c]`-th request, and gathers their samples. Each client records one
/// sample per request, so `at` advances by the client's sample count.
fn run_clients(
    secs: f64,
    at: &mut Cursors,
    client: impl Fn(usize, usize, Instant) -> Vec<Sample> + Sync,
) -> Measured {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    let client = &client;
    let from = *at;
    let per_client: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(c, from[c], deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for (c, samples) in per_client.iter().enumerate() {
        at[c] += samples.len();
    }
    let samples = per_client.into_iter().flatten().collect();
    Measured {
        samples,
        start,
        secs,
    }
}
