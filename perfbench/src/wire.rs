//! Requests, their reference answers, and a raw protocol client that
//! times each request from its send to the last byte of its response
//! frame and checks the answer only after the clock has stopped.

use std::io;
use std::time::{Duration, Instant};
use wet_core::query::{self, SliceSpec, WetSlice, WetSliceElem};
use wet_core::Wet;
use wet_ir::stmt::StmtKind;
use wet_ir::{Program, StmtId};
use wet_serve::json::{self, Value};
use wet_serve::proto::{self, FrameReader, Poll};
use wet_serve::server::{connect, Stream};

/// Longest a client waits for one response before it counts the
/// request as failed and reconnects. The server drops a response larger
/// than its frame cap without a word, so without this a client could
/// wait forever.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    CfForward,
    CfBackward,
    Value(StmtId),
    Address(StmtId),
    Slice { node: u32, stmt: StmtId, k: u32 },
}

pub const OP_NAMES: [&str; 4] = ["cf_trace", "value_trace", "address_trace", "slice"];

impl Op {
    /// Index into [`OP_NAMES`].
    pub fn kind(&self) -> usize {
        match self {
            Op::CfForward | Op::CfBackward => 0,
            Op::Value(_) => 1,
            Op::Address(_) => 2,
            Op::Slice { .. } => 3,
        }
    }

    /// The request frame, addressed to trace `trace`.
    pub fn frame(&self, id: u64, trace: &str) -> Vec<u8> {
        let mut pairs = vec![
            ("id", Value::Int(id as i64)),
            ("op", Value::Str(OP_NAMES[self.kind()].into())),
            ("trace", Value::Str(trace.into())),
        ];
        match *self {
            Op::CfForward => pairs.push(("dir", Value::Str("forward".into()))),
            Op::CfBackward => pairs.push(("dir", Value::Str("backward".into()))),
            Op::Value(s) | Op::Address(s) => pairs.push(("stmt", Value::Int(s.0 as i64))),
            Op::Slice { node, stmt, k } => {
                pairs.push(("stmt", Value::Int(stmt.0 as i64)));
                pairs.push(("node", Value::Int(node as i64)));
                pairs.push(("k", Value::Int(k as i64)));
            }
        }
        json::obj(pairs).render().into_bytes()
    }
}

/// A reference answer, computed in-process by calling the query
/// functions directly.
pub struct Answer {
    /// The `result` object a full-quality response must carry, byte for
    /// byte.
    pub result: Vec<u8>,
    /// Every element of the full answer, sorted: a degraded answer may
    /// hold only these.
    pub elems: Vec<[i64; 3]>,
    /// Answer elements (steps, pairs or slice instances).
    pub count: usize,
}

/// A query's raw answer, before it is rendered.
pub enum Raw {
    Steps(Vec<[i64; 3]>),
    Pairs(Vec<[i64; 3]>),
    Slice(WetSlice),
}

/// Runs `op` on `wet` by calling the query function directly.
pub fn query(wet: &mut Wet, program: &Program, op: &Op) -> Result<Raw, String> {
    Ok(match *op {
        Op::CfForward => Raw::Steps(steps(query::cf_trace_forward(wet))?),
        Op::CfBackward => Raw::Steps(steps(query::cf_trace_backward(wet))?),
        Op::Value(s) => Raw::Pairs(pairs(query::value_trace(wet, s))?),
        Op::Address(s) => Raw::Pairs(pairs(
            query::address_trace(wet, program, s)
                .map(|v| v.into_iter().map(|(t, a)| (t, a as i64)).collect()),
        )?),
        Op::Slice { node, stmt, k } => {
            let crit = WetSliceElem {
                node: wet_core::NodeId(node),
                stmt,
                k,
            };
            Raw::Slice(
                query::backward_slice(
                    wet,
                    program,
                    crit,
                    SliceSpec {
                        data: true,
                        control: true,
                    },
                )
                .map_err(|e| e.to_string())?,
            )
        }
    })
}

/// Computes the reference answer for `op` on `wet`.
pub fn answer(wet: &mut Wet, program: &Program, op: &Op) -> Result<Answer, String> {
    query(wet, program, op).map(Answer::new)
}

impl Answer {
    /// Renders a raw answer the way a full-quality response carries it.
    pub fn new(raw: Raw) -> Answer {
        let (key, mut elems) = match raw {
            Raw::Steps(e) => ("steps", e),
            Raw::Pairs(e) => ("pairs", e),
            Raw::Slice(slice) => {
                let statics: Vec<String> = slice
                    .static_stmts()
                    .iter()
                    .map(|s| s.0.to_string())
                    .collect();
                let stamped: Vec<String> = slice
                    .stamped
                    .iter()
                    .map(|(s, ts)| format!("[{},{ts}]", s.0))
                    .collect();
                let result = format!(
                    "{{\"count\":{},\"static_stmts\":[{}],\"stamped\":[{}],\"quality\":\"full\"}}",
                    slice.len(),
                    statics.join(","),
                    stamped.join(",")
                );
                return Answer {
                    result: result.into_bytes(),
                    elems: Vec::new(),
                    count: slice.len(),
                };
            }
        };
        let items: Vec<String> = elems
            .iter()
            .map(|e| {
                if key == "steps" {
                    format!("[{},{},{}]", e[0], e[1], e[2])
                } else {
                    format!("[{},{}]", e[0], e[1])
                }
            })
            .collect();
        let result = format!(
            "{{\"count\":{},\"{key}\":[{}],\"quality\":\"full\"}}",
            elems.len(),
            items.join(",")
        );
        let count = elems.len();
        elems.sort_unstable();
        Answer {
            result: result.into_bytes(),
            elems,
            count,
        }
    }
}

fn steps(r: Result<Vec<query::CfStep>, query::QueryErr>) -> Result<Vec<[i64; 3]>, String> {
    r.map(|v| {
        v.iter()
            .map(|s| [s.node.0 as i64, s.k as i64, s.ts as i64])
            .collect()
    })
    .map_err(|e| e.to_string())
}

fn pairs(r: Result<Vec<(u64, i64)>, query::QueryErr>) -> Result<Vec<[i64; 3]>, String> {
    r.map(|v| v.iter().map(|&(t, x)| [t as i64, x, 0]).collect())
        .map_err(|e| e.to_string())
}

/// Statements of `wet` that executed, split into loads and stores.
pub fn executed_mem_stmts(wet: &Wet, program: &Program) -> (Vec<StmtId>, Vec<StmtId>) {
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    for n in wet.nodes().iter().filter(|n| n.n_execs > 0) {
        for s in &n.stmts {
            if let wet_ir::program::StmtRef::Stmt(st) = program.stmt_ref(s.id) {
                match st.kind {
                    StmtKind::Load { .. } => loads.push(s.id),
                    StmtKind::Store { .. } => stores.push(s.id),
                    _ => {}
                }
            }
        }
    }
    for v in [&mut loads, &mut stores] {
        v.sort_unstable();
        v.dedup();
    }
    (loads, stores)
}

/// How a response compared with its reference answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-identical to the full reference answer.
    Full,
    /// A degraded answer holding only elements of the reference.
    Degraded,
    /// An answer that disagrees with the reference.
    Mismatch,
    /// A typed error response (`kind`), or a transport failure.
    Error(String),
}

impl Verdict {
    pub fn ok(&self) -> bool {
        matches!(self, Verdict::Full | Verdict::Degraded)
    }
}

/// Checks the response to request `id` against `ans`.
pub fn check(resp: &[u8], id: u64, ans: &Answer) -> Verdict {
    let head = format!("{{\"id\":{id},\"ok\":true,\"result\":");
    if let Some(body) = resp
        .strip_prefix(head.as_bytes())
        .and_then(|r| r.strip_suffix(b"}"))
    {
        if body == ans.result.as_slice() {
            return Verdict::Full;
        }
        return check_degraded(resp, ans);
    }
    match error_kind(resp, id) {
        Some(kind) => Verdict::Error(kind),
        None => Verdict::Mismatch,
    }
}

/// A degraded answer is accepted when every element it holds is in the
/// full reference answer: it may omit data, never invent it.
fn check_degraded(resp: &[u8], ans: &Answer) -> Verdict {
    let Some(v) = std::str::from_utf8(resp)
        .ok()
        .and_then(|t| json::parse(t).ok())
    else {
        return Verdict::Mismatch;
    };
    let Some(result) = v.get("result") else {
        return Verdict::Mismatch;
    };
    if result.get("quality").and_then(Value::as_str) != Some("degraded") {
        return Verdict::Mismatch;
    }
    let Some(items) = result
        .get("steps")
        .or_else(|| result.get("pairs"))
        .and_then(Value::as_arr)
    else {
        return Verdict::Mismatch;
    };
    for item in items {
        let mut e = [0i64; 3];
        let Some(xs) = item.as_arr() else {
            return Verdict::Mismatch;
        };
        if xs.len() > 3 {
            return Verdict::Mismatch;
        }
        for (slot, x) in e.iter_mut().zip(xs) {
            let Some(n) = x.as_i64() else {
                return Verdict::Mismatch;
            };
            *slot = n;
        }
        if ans.elems.binary_search(&e).is_err() {
            return Verdict::Mismatch;
        }
    }
    Verdict::Degraded
}

/// The `kind` of an error response to request `id`.
pub fn error_kind(resp: &[u8], id: u64) -> Option<String> {
    let v = json::parse(std::str::from_utf8(resp).ok()?).ok()?;
    if v.get("id").and_then(Value::as_u64) != Some(id)
        || v.get("ok").and_then(Value::as_bool) != Some(false)
    {
        return None;
    }
    Some(v.get("error")?.get("kind")?.as_str()?.to_owned())
}

/// True when `resp` is a success response to request `id`.
pub fn is_ok(resp: &[u8], id: u64) -> bool {
    resp.starts_with(format!("{{\"id\":{id},\"ok\":true,").as_bytes())
}

/// A protocol connection that sends one request at a time.
pub struct Conn {
    addr: String,
    stream: Stream,
    reader: FrameReader,
    next_id: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = connect(addr)?;
        // Short read ticks let a blocked read notice the request timeout.
        stream.set_read_timeout(Duration::from_millis(50))?;
        Ok(Conn {
            addr: addr.to_owned(),
            stream,
            reader: FrameReader::new(),
            next_id: 1,
        })
    }

    /// Sends the frame `make(id)` and waits for its response. Returns the
    /// request id, the time from send to the response's last byte, and
    /// the response, or the error kind (`timeout`, `io`). After a
    /// timeout or transport error the connection is replaced.
    pub fn call(
        &mut self,
        make: impl FnOnce(u64) -> Vec<u8>,
    ) -> (u64, Duration, Result<Vec<u8>, String>) {
        let id = self.next_id;
        self.next_id += 1;
        let frame = make(id);
        let t0 = Instant::now();
        let got = self.exchange(&frame, t0);
        let lat = t0.elapsed();
        if got.is_err() {
            self.reconnect();
        }
        (id, lat, got)
    }

    fn exchange(&mut self, frame: &[u8], t0: Instant) -> Result<Vec<u8>, String> {
        proto::write_frame(&mut self.stream, frame).map_err(|_| "io".to_string())?;
        loop {
            match self.reader.poll(&mut self.stream) {
                Ok(Poll::Frame(f)) => return Ok(f),
                Ok(Poll::Pending) if t0.elapsed() < REQUEST_TIMEOUT => {}
                Ok(Poll::Pending) => return Err("timeout".into()),
                Ok(Poll::Eof) | Err(_) => return Err("io".into()),
            }
        }
    }

    fn reconnect(&mut self) {
        let _ = self.stream.shutdown();
        // A failed reconnect leaves the dead stream in place: the next
        // call fails fast with `io` and tries again.
        if let Ok(c) = Conn::connect(&self.addr) {
            self.stream = c.stream;
            self.reader = FrameReader::new();
        }
    }
}
