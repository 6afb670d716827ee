//! The traced run: spans around the benchmark's own calls into each
//! layer's public functions give the per-layer metrics, and the
//! workload itself runs once untraced and once traced to give the
//! tracing overhead.

use crate::corpus::programs;
use crate::serve_wl::{Cold, Cursors, Hot};
use crate::spans::Spans;
use crate::trace_wl::TraceBench;
use crate::wire::{self, Conn, Op, Verdict, OP_NAMES};
use crate::{median, metric, query_metrics, Metric, Report};
use std::io;
use std::path::Path;
use std::time::Instant;
use wet_core::serial::{section_spans, TAG_EDGL, TAG_TSEQ, TAG_VALS};
use wet_interp::NullSink;
use wet_serve::{ServeOptions, Server};

/// Pings per access-log batch, and batches per setting.
const PINGS: usize = 200;
const PING_BATCHES: usize = 10;

pub fn run(workload: &str, seed: u64, secs: f64, dir: &Path) -> Result<Report, String> {
    let spans = Spans::new();
    let mut m = Vec::new();
    let mut checks = Checks::default();
    let err = |e: io::Error| e.to_string();

    // wet-interp: the nine programs into a NullSink.
    let mut stmts = 0;
    for p in programs(seed) {
        let interp = p.interp();
        let o = spans.open("interp.exec", 0, None);
        stmts += interp
            .run(&p.inputs, &mut NullSink)
            .map_err(|e| e.to_string())?
            .stmts_executed;
        spans.close(o);
    }

    // wet-core::build, wet-stream (through Wet::compress), wet-core::serial
    // and wet-core::store: the query-hot set-up, traced.
    let mut hot = Hot::setup(seed, &dir.join("hot"), Some(&spans)).map_err(err)?;
    let sum = |name: &str| spans.secs(name).iter().sum::<f64>();
    let exec = sum("interp.exec");
    let tier1: u64 = hot.corpus.traced.iter().map(|t| t.tier1_bytes).sum();
    let encode = sum("tier2.encode");
    m.extend([
        metric("interp.exec_s", "s", exec, None),
        metric("interp.stmts", "count", stmts as f64, None),
        metric("build.sink_s", "s", sum("build.run") - exec, None),
        metric("build.finish_s", "s", sum("build.finish"), None),
        metric("build.tier1_bytes", "B", tier1 as f64, None),
        metric("tier2.encode_s", "s", encode, None),
        metric(
            "tier2.encode_mb_per_s",
            "MB/s",
            tier1 as f64 / 1e6 / encode,
            None,
        ),
        metric(
            "tier2.payload_bytes",
            "B",
            hot.corpus
                .traced
                .iter()
                .map(|t| t.wet.sizes().t2_total())
                .sum::<u64>() as f64,
            None,
        ),
        metric("serial.write_s", "s", sum("serial.write"), None),
        metric(
            "serial.container_bytes",
            "B",
            hot.corpus.container_bytes() as f64,
            None,
        ),
    ]);
    let mut decoded = 0u64;
    for p in &hot.corpus.progs {
        let bytes = std::fs::read(hot.corpus.dir.join(p.file())).map_err(err)?;
        let spans = section_spans(&bytes).map_err(err)?;
        decoded += spans
            .iter()
            .filter(|s| [TAG_TSEQ, TAG_VALS, TAG_EDGL].contains(&s.tag))
            .map(|s| s.payload_len as u64)
            .sum::<u64>();
    }
    let ms = |name: &str| spans.secs(name).iter().map(|s| s * 1e3).collect::<Vec<_>>();
    m.extend([
        metric("store.open_ms", "ms", median(&ms("store.open")), Some(9)),
        metric(
            "store.ensure_ms",
            "ms",
            median(&ms("store.ensure")),
            Some(9),
        ),
        metric(
            "store.decode_mb_per_s",
            "MB/s",
            decoded as f64 / 1e6 / sum("store.ensure"),
            None,
        ),
        metric(
            "store.resident_bytes",
            "B",
            hot.daemon.server.store().resident_bytes() as f64,
            None,
        ),
    ]);

    // wet-core::query, called directly with the request list's criteria
    // plus one slice per trace from the seeded picker, each followed by
    // the same request through wet-serve's `handle_frame`.
    hot.prepare(seed).map_err(err)?;
    let mut probe: Vec<(usize, Op)> = Vec::new();
    for &e in &hot.list {
        if !probe.contains(&e) {
            probe.push(e);
        }
    }
    let mut answers: Vec<wire::Answer> = Vec::new();
    for (t, tr) in hot.corpus.traced.iter().enumerate() {
        for c in wet_bench::pick_slice_criteria(&tr.wet, 1, seed ^ ((t as u64 + 1) << 32)) {
            probe.push((
                t,
                Op::Slice {
                    node: c.node.0,
                    stmt: c.stmt,
                    k: c.k,
                },
            ));
        }
    }
    let names: Vec<&str> = hot.corpus.progs.iter().map(|p| p.name()).collect();
    let mut frame_ms = Vec::new();
    // Per op: direct ms, dispatch ms, response bytes, answer elements.
    let mut per_op: Vec<[Vec<f64>; 4]> = (0..4).map(|_| Default::default()).collect();
    for &(t, op) in &probe {
        let o = spans.open(
            [
                "query.cf_trace",
                "query.value_trace",
                "query.address_trace",
                "query.slice",
            ][op.kind()],
            0,
            None,
        );
        let raw = wire::query(
            &mut hot.corpus.traced[t].wet,
            &hot.corpus.progs[t].program,
            &op,
        )?;
        let d = o.start.elapsed().as_secs_f64() * 1e3;
        spans.close(o);
        let ans = wire::Answer::new(raw);
        let frame = op.frame(1, names[t]);
        let t0 = Instant::now();
        let resp = hot.daemon.server.handle_frame(&frame);
        let f = t0.elapsed().as_secs_f64() * 1e3;
        spans.interval("serve.handle_frame", 0, None, t0, Instant::now());
        checks.add(&wire::check(&resp, 1, &ans));
        frame_ms.push(f);
        let k = op.kind();
        for (v, x) in per_op[k]
            .iter_mut()
            .zip([d, f - d, resp.len() as f64, ans.count as f64])
        {
            v.push(x);
        }
        answers.push(ans);
    }
    for (k, name) in OP_NAMES.iter().enumerate() {
        let [direct, dispatch, bytes, elems] = &per_op[k];
        let rate = ["steps", "pairs", "pairs", "elems"][k];
        m.push(metric(
            &format!("query.{name}_ms"),
            "ms",
            median(direct),
            Some(direct.len()),
        ));
        m.push(metric(
            &format!("query.{name}.{rate}_per_ms"),
            "1/ms",
            elems.iter().sum::<f64>() / direct.iter().sum::<f64>(),
            None,
        ));
        m.push(metric(
            &format!("serve.dispatch_ms.{name}"),
            "ms",
            median(dispatch),
            Some(dispatch.len()),
        ));
        m.push(metric(
            &format!("serve.response_bytes.{name}"),
            "B",
            median(bytes),
            Some(bytes.len()),
        ));
    }
    let answers: Vec<&wire::Answer> = answers.iter().collect();
    // Slices stay out of the socket phases, as they stay out of the
    // query-hot mix.
    let socket: Vec<usize> = (0..probe.len())
        .filter(|&i| probe[i].1.kind() != 3)
        .collect();
    let one = replay(
        &hot.daemon.addr,
        &probe,
        &answers,
        &names,
        &socket,
        0,
        &spans,
        &mut checks,
    )
    .map_err(err)?;
    let socket_ms: Vec<f64> = socket
        .iter()
        .zip(&one)
        .map(|(&i, l)| l - frame_ms[i])
        .collect();
    let half = socket.len() / 2;
    let two = std::thread::scope(|s| {
        let h: Vec<_> = [0, half]
            .into_iter()
            .map(|off| {
                let (probe, answers, names, socket, spans) =
                    (&probe, &answers, &names, &socket, &spans);
                let addr = hot.daemon.addr.clone();
                s.spawn(move || {
                    let mut c = Checks::default();
                    replay(&addr, probe, answers, names, socket, off, spans, &mut c)
                        .map(|l| (off, l, c))
                })
            })
            .collect();
        h.into_iter()
            .map(|h| h.join().expect("probe client panicked"))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)?;
    let mut wait = Vec::new();
    for (off, lat, c) in two {
        checks.merge(&c);
        for (j, l) in lat.iter().enumerate() {
            wait.push(l - one[(j + off) % socket.len()]);
        }
    }
    m.push(metric(
        "serve.socket_ms",
        "ms",
        median(&socket_ms),
        Some(socket_ms.len()),
    ));
    m.push(metric(
        "serve.wait_ms",
        "ms",
        median(&wait),
        Some(wait.len()),
    ));
    m.push(metric(
        "serve.access_log_us",
        "us",
        access_log_us(dir).map_err(err)?,
        Some(PINGS * PING_BATCHES),
    ));
    let (mut level, mut brownouts) = hot.daemon.pressure().map_err(err)?;

    // The workload, untraced then traced, for the tracing overhead.
    let half_secs = secs / 2.0;
    let overhead = match workload {
        "trace" => {
            let (mut bench, traced) = TraceBench::setup(seed, &dir.join("trace")).map_err(err)?;
            bench.validate(&traced)?;
            drop(traced);
            let mut rate = |sp: Option<&Spans>| -> Result<f64, String> {
                let p = bench.measure(half_secs, sp).map_err(err)?;
                checks.ok += p.ok;
                checks.attempted += p.attempted;
                let secs: f64 = p.secs.iter().flatten().sum();
                Ok(p.stmts as f64 * p.secs.len() as f64 / secs)
            };
            let plain = rate(None)?;
            overhead_pct(plain, rate(Some(&spans))?)
        }
        "query-hot" => {
            let plain = query_rate(
                &hot.measure(half_secs, None, &mut Cursors::default()),
                &mut checks,
            );
            let traced = query_rate(
                &hot.measure(half_secs, Some(&spans), &mut Cursors::default()),
                &mut checks,
            );
            let (l, b) = hot.daemon.pressure().map_err(err)?;
            (level, brownouts) = (level.max(l), brownouts.max(b));
            overhead_pct(plain, traced)
        }
        _ => {
            let mut cold = Cold::setup(seed, &dir.join("cold")).map_err(err)?;
            cold.prepare(seed).map_err(err)?;
            let plain = query_rate(
                &cold.measure(half_secs, None, &mut Cursors::default()),
                &mut checks,
            );
            let traced = query_rate(
                &cold.measure(half_secs, Some(&spans), &mut Cursors::default()),
                &mut checks,
            );
            let (l, b) = cold.daemon.pressure().map_err(err)?;
            (level, brownouts) = (level.max(l), brownouts.max(b));
            cold.daemon.stop().map_err(err)?;
            overhead_pct(plain, traced)
        }
    };
    hot.daemon.stop().map_err(err)?;
    m.push(metric("serve.pressure_max", "level", level as f64, None));
    m.push(metric("serve.brownouts", "count", brownouts as f64, None));
    m.push(metric("trace.overhead_pct", "%", overhead, None));
    let path = format!("spans-{workload}-{seed}.jsonl");
    spans.write(Path::new(&path)).map_err(err)?;
    println!("# spans written to perfbench/out/{path}");
    Ok(Report {
        attempted: checks.attempted,
        failed: checks.attempted - checks.ok,
        metrics: m,
    })
}

#[derive(Default)]
struct Checks {
    ok: u64,
    attempted: u64,
}

impl Checks {
    fn add(&mut self, v: &Verdict) {
        self.attempted += 1;
        self.ok += v.ok() as u64;
    }

    fn merge(&mut self, o: &Checks) {
        self.ok += o.ok;
        self.attempted += o.attempted;
    }
}

/// Sends the requests `idx` (starting at position `off`, wrapping) over
/// one connection; returns each latency in ms, in send order.
#[allow(clippy::too_many_arguments)]
fn replay(
    addr: &str,
    probe: &[(usize, Op)],
    answers: &[&wire::Answer],
    names: &[&str],
    idx: &[usize],
    off: usize,
    spans: &Spans,
    checks: &mut Checks,
) -> io::Result<Vec<f64>> {
    let mut conn = Conn::connect(addr)?;
    let mut lat = Vec::with_capacity(idx.len());
    for j in 0..idx.len() {
        let i = idx[(j + off) % idx.len()];
        let (t, op) = probe[i];
        let start = Instant::now();
        let (id, l, resp) = conn.call(|id| op.frame(id, names[t]));
        spans.interval("serve.socket", 0, None, start, start + l);
        checks.add(&match resp {
            Ok(r) => wire::check(&r, id, answers[i]),
            Err(kind) => Verdict::Error(kind),
        });
        lat.push(l.as_secs_f64() * 1e3);
    }
    Ok(lat)
}

/// Median ping time through `handle_frame` with the access log on, minus
/// with it off, in microseconds. Batches alternate between the two.
fn access_log_us(dir: &Path) -> io::Result<f64> {
    let log = dir.join("access.log");
    let on = Server::with_store(ServeOptions {
        access_log: Some(log),
        ..ServeOptions::default()
    });
    let off = Server::with_store(ServeOptions::default());
    let ping = b"{\"id\":1,\"op\":\"ping\"}";
    let (mut t_on, mut t_off) = (Vec::new(), Vec::new());
    for _ in 0..PING_BATCHES {
        for (srv, out) in [(&on, &mut t_on), (&off, &mut t_off)] {
            for _ in 0..PINGS {
                let t0 = Instant::now();
                let r = srv.handle_frame(ping);
                out.push(t0.elapsed().as_secs_f64() * 1e6);
                if !wire::is_ok(&r, 1) {
                    return Err(io::Error::other("ping failed"));
                }
            }
        }
    }
    Ok(median(&t_on) - median(&t_off))
}

fn query_rate(r: &crate::serve_wl::Measured, checks: &mut Checks) -> f64 {
    let (q, attempted, failed): (Vec<Metric>, u64, u64) = query_metrics(std::slice::from_ref(r));
    checks.attempted += attempted;
    checks.ok += attempted - failed;
    q[0].value
}

/// How much slower the traced half ran, in percent of the untraced rate.
fn overhead_pct(plain: f64, traced: f64) -> f64 {
    (plain - traced) / plain * 100.0
}
