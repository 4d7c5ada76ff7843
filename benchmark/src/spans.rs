//! Spans recorded by the traced run: a preallocated buffer filled from the
//! benchmark's own files (around each call into a layer, plus the span tree
//! the server hands back inline), self-time arithmetic, and the JSONL dump.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use t2v_engine::Json;

/// Name of the root span of every op; its self time is what no layer claims.
pub const ROOT: &str = "loadgen.op";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to (shared by every span of one op).
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for an op's root.
    pub parent: Option<u32>,
}

/// Fixed-capacity span store: pushing never reallocates, so recording costs
/// the same at the first span and the last. Spans past the capacity are
/// counted, not kept.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn with_capacity(capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Record one finished span; the returned index is what its children
    /// name as `parent`.
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The layer a span is charged to: the first dotted component of its name,
/// which is a crate name by construction.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time of every span: its duration minus the part of that interval its
/// children cover (overlapping children are not counted twice, children that
/// stick out are clipped).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer, and the summed duration of all root spans
/// (the op time the shares are taken of).
pub fn self_time_by_layer(spans: &[Span]) -> (BTreeMap<String, u64>, u64) {
    let mut by_layer: BTreeMap<String, u64> = BTreeMap::new();
    let mut op_ns = 0u64;
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(layer_of(s.name).to_string()).or_default() += self_ns;
        if s.parent.is_none() {
            op_ns += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    (by_layer, op_ns)
}

/// The server's stage names mapped to layer-prefixed span names. Embedding
/// and retrieval run in `t2v-embed` (the server-side `retrieve` span also
/// holds the batcher hand-off, which is `serve`'s — a later issue can split
/// it once spans move inside the program); the backend call is `t2v-gred`.
pub fn server_span_name(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "request" => "serve.request",
        "conn.read" => "serve.conn.read",
        "queue.wait" => "serve.queue.wait",
        "cache.lookup" => "serve.cache.lookup",
        "embed" => "embed.embed",
        "retrieve" => "embed.retrieve",
        "backend.translate" => "gred.translate",
        "degrade" => "serve.degrade",
        "breaker" => "serve.breaker",
        "resp.write" => "serve.resp.write",
        _ => return None,
    })
}

/// One span of the server's wire tree, times relative to the server's own
/// origin (the request's first byte).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerSpan {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub parent: Option<usize>,
}

/// The request-level facts and span tree of one `"trace": {...}` object as
/// the server serialises it (inline under `X-T2V-Trace: 1`, or from
/// `/v1/admin/trace/{id}`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTrace {
    pub id: String,
    pub total_ns: u64,
    pub dropped_spans: u64,
    pub spans: Vec<ServerSpan>,
}

impl ServerTrace {
    /// Summed duration of every span of one stage.
    pub fn stage_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Summed duration of the root's direct children — the stages that
    /// partition the request; what they leave is unattributed.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.dur_ns)
            .sum()
    }
}

fn ms_to_ns(ms: f64) -> u64 {
    (ms * 1e6).round().max(0.0) as u64
}

/// Parse the server's trace object. `Err` names the first thing wrong with
/// it — a trace the benchmark cannot read must fail the run, not vanish.
pub fn parse_server_trace(trace: &Json) -> Result<ServerTrace, String> {
    let text = |key: &str| {
        trace
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("trace has no string '{key}'"))
    };
    let raw = trace
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("trace has no 'spans' array")?;
    let mut spans = Vec::with_capacity(raw.len());
    for (i, s) in raw.iter().enumerate() {
        let stage = s
            .get("stage")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("span {i} has no stage"))?;
        let name = server_span_name(stage).ok_or_else(|| format!("unknown stage '{stage}'"))?;
        let num = |key: &str| {
            s.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("span {i} has no number '{key}'"))
        };
        let parent = match s.get("parent") {
            Some(Json::Num(p)) if *p >= 0.0 && (*p as usize) < i => Some(*p as usize),
            Some(Json::Null) | None => None,
            Some(other) => return Err(format!("span {i} has a bad parent {}", other.compact())),
        };
        spans.push(ServerSpan {
            name,
            start_ns: ms_to_ns(num("start_ms")?),
            dur_ns: ms_to_ns(num("dur_ms")?),
            parent,
        });
    }
    if spans.first().map(|s| (s.name, s.parent)) != Some(("serve.request", None)) {
        return Err("trace does not start with the request root".to_string());
    }
    Ok(ServerTrace {
        id: text("id")?,
        total_ns: ms_to_ns(
            trace
                .get("total_ms")
                .and_then(Json::as_f64)
                .ok_or("trace has no 'total_ms'")?,
        ),
        dropped_spans: trace
            .get("dropped_spans")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64,
        spans,
    })
}

/// Attach a server trace under the op's root span. The server's clock
/// origin is not on the wire, so its tree is centred inside the op: what is
/// left on either side is the time on the wire and in the client.
pub fn attach_server_trace(buf: &mut SpanBuf, op: u64, root: u32, trace: &ServerTrace) {
    let (op_start, op_end) = {
        let r = &buf.spans()[root as usize];
        (r.start_ns, r.end_ns)
    };
    let slack = (op_end - op_start).saturating_sub(trace.total_ns);
    let origin = op_start + slack / 2;
    let mut index: Vec<Option<u32>> = Vec::with_capacity(trace.spans.len());
    for s in &trace.spans {
        let parent = match s.parent {
            None => Some(root),
            Some(p) => index[p],
        };
        let at = parent.and_then(|parent| {
            buf.push(Span {
                op,
                name: s.name,
                start_ns: origin + s.start_ns,
                end_ns: origin + s.start_ns + s.dur_ns,
                parent: Some(parent),
            })
        });
        index.push(at);
    }
}

/// One JSONL line per span, `id` being the index `parent` refers to.
pub fn write_jsonl(out: &mut String, spans: &[Span]) {
    for (id, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"kind\":\"span\",\"id\":{id},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            s.op, s.name, s.start_ns, s.end_ns
        );
        match s.parent {
            Some(p) => {
                let _ = writeln!(out, "{p}}}");
            }
            None => out.push_str("null}\n"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            op: 1,
            name,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("serve.request", 10, 90, Some(0)),
            // Two overlapping children and one that sticks out of its parent.
            span("serve.conn.read", 10, 30, Some(1)),
            span("serve.cache.lookup", 20, 40, Some(1)),
            span("gred.translate", 80, 120, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 40, 20, 20, 40]);
        let (by_layer, op_ns) = self_time_by_layer(&spans);
        assert_eq!(op_ns, 100);
        assert_eq!(by_layer["loadgen"], 20);
        assert_eq!(by_layer["serve"], 80);
        assert_eq!(by_layer["gred"], 40);
    }

    #[test]
    fn buffer_never_grows_and_counts_what_it_drops() {
        let mut buf = SpanBuf::with_capacity(2);
        assert_eq!(buf.push(span(ROOT, 0, 1, None)), Some(0));
        assert_eq!(buf.push(span("a.b", 0, 1, Some(0))), Some(1));
        assert_eq!(buf.push(span("a.c", 0, 1, Some(0))), None);
        assert_eq!((buf.spans().len(), buf.dropped), (2, 1));
    }

    const WIRE: &str = r#"{"backend":"gred","cache":"miss","dropped_spans":3,
        "id":"18da1ddbe5227b30479f142fa393e622","status":200,"total_ms":0.7,
        "spans":[
          {"dur_ms":0.7,"parent":null,"stage":"request","start_ms":0},
          {"dur_ms":0.015,"parent":0,"stage":"conn.read","start_ms":0},
          {"dur_ms":0.6,"parent":0,"stage":"backend.translate","start_ms":0.07},
          {"dur_ms":0.008,"parent":2,"stage":"embed","start_ms":0.08},
          {"dur_ms":0.004,"parent":2,"stage":"embed","start_ms":0.3},
          {"dur_ms":0.05,"parent":2,"stage":"retrieve","start_ms":0.09}]}"#;

    #[test]
    fn inline_trace_json_becomes_spans() {
        let t = parse_server_trace(&Json::parse(WIRE).unwrap()).unwrap();
        assert_eq!(t.total_ns, 700_000);
        assert_eq!(t.dropped_spans, 3);
        assert_eq!(t.spans.len(), 6);
        assert_eq!(t.spans[3].name, "embed.embed");
        assert_eq!(t.spans[3].parent, Some(2));
        assert_eq!(t.stage_ns("embed.embed"), 12_000);
        assert_eq!(t.top_level_ns(), 615_000);

        let mut buf = SpanBuf::with_capacity(16);
        let root = buf.push(span(ROOT, 1_000_000, 1_900_000, None)).unwrap();
        attach_server_trace(&mut buf, 1, root, &t);
        let spans = buf.spans();
        assert_eq!(spans.len(), 7);
        // Centred: 200 µs of slack, half before the server's origin.
        assert_eq!(spans[1].name, "serve.request");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_100_000, 1_800_000));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[4].parent, Some(3));
        let (by_layer, op_ns) = self_time_by_layer(spans);
        assert_eq!(op_ns, 900_000);
        assert_eq!(by_layer["loadgen"], 200_000);
        assert_eq!(by_layer["embed"], 62_000);
        assert_eq!(by_layer["gred"], 538_000);
        assert_eq!(by_layer["serve"], 100_000);
    }

    #[test]
    fn malformed_traces_are_errors_not_empty_trees() {
        let bad = |text: &str| parse_server_trace(&Json::parse(text).unwrap()).unwrap_err();
        assert!(bad(r#"{"id":"x","cache":"hit","total_ms":1}"#).contains("spans"));
        assert!(bad(r#"{"id":"x","cache":"hit","total_ms":1,
                "spans":[{"stage":"warp","start_ms":0,"dur_ms":1,"parent":null}]}"#)
        .contains("unknown stage"));
        assert!(bad(r#"{"id":"x","cache":"hit","total_ms":1,
                "spans":[{"stage":"embed","start_ms":0,"dur_ms":1,"parent":4}]}"#)
        .contains("bad parent"));
        assert!(bad(r#"{"id":"x","cache":"hit","total_ms":1,
                "spans":[{"stage":"embed","start_ms":0,"dur_ms":1,"parent":null}]}"#)
        .contains("request root"));
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let spans = vec![span(ROOT, 0, 9, None), span("dvq.parse", 1, 2, Some(0))];
        let mut out = String::new();
        write_jsonl(&mut out, &spans);
        let lines: Vec<Json> = out.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            lines[1].get("name").and_then(Json::as_str),
            Some("dvq.parse")
        );
    }
}
