//! Structured JSON access log with size-based rotation (DESIGN.md §12).
//!
//! One JSON object per line per finished request — trace id, tenant,
//! route, status, backend, cache outcome, degradation marker, total and
//! per-stage milliseconds — so a slow request found in the log can be
//! cross-referenced with `GET /v1/admin/trace/{id}` while it is still in
//! the flight recorder. The writer is a single mutex around a buffered
//! appender, and the log line is rendered *outside* the lock. A thread
//! that must not touch a file (the event loop, a translation worker)
//! [`AccessLog::post`]s the line instead: the log's own `t2v-access-log`
//! thread writes it, and a slow disk delays only the log. When the file passes its
//! size budget, generations shift `{path}.{i}` → `{path}.{i+1}` up to the
//! `keep` budget of rotated files (older ones are pruned), the live
//! file becomes `{path}.1`, and a fresh file is started — bounded disk
//! use without an external logrotate.
//!
//! Besides per-request lines, the SLO engine writes `slo-transition`
//! event lines here (via [`AccessLog::write_line`]) whenever an alert
//! starts or stops firing, so the incident timeline and the request
//! evidence live in the same stream.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use t2v_trace::FinishedTrace;

struct Appender {
    out: BufWriter<File>,
    written: u64,
}

pub struct AccessLog {
    file: Arc<LogFile>,
    /// To the writer thread, which ends once this is dropped.
    posted: mpsc::Sender<String>,
}

struct LogFile {
    path: PathBuf,
    /// Rotate once `written` exceeds this many bytes; 0 = never.
    rotate_bytes: u64,
    /// Rotated generations to keep (`{path}.1` … `{path}.{keep}`).
    keep: u64,
    inner: Mutex<Appender>,
}

impl AccessLog {
    /// Open (append) the log file. Fails fast on an unwritable path.
    /// `keep` is how many rotated generations survive (minimum 1).
    pub fn open(path: &str, rotate_mb: u64, keep: u64) -> std::io::Result<AccessLog> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let written = file.metadata()?.len();
        let file = Arc::new(LogFile {
            path: PathBuf::from(path),
            rotate_bytes: rotate_mb.saturating_mul(1024 * 1024),
            keep: keep.max(1),
            inner: Mutex::new(Appender {
                out: BufWriter::new(file),
                written,
            }),
        });
        let (posted, lines) = mpsc::channel::<String>();
        let writer = Arc::clone(&file);
        std::thread::Builder::new()
            .name("t2v-access-log".to_string())
            .spawn(move || lines.iter().for_each(|line| writer.write_line(&line)))?;
        Ok(AccessLog { file, posted })
    }

    /// Append one pre-rendered line (no trailing newline) on this thread,
    /// rotating first if the file is over budget. I/O errors are swallowed:
    /// an access log must never take down serving.
    pub fn write_line(&self, line: &str) {
        self.file.write_line(line);
    }

    /// [`AccessLog::write_line`] on the log's writer thread; returns at once.
    pub fn post(&self, line: String) {
        let _ = self.posted.send(line);
    }
}

impl LogFile {
    /// `{path}.{n}` as a `PathBuf`.
    fn generation(&self, n: u64) -> PathBuf {
        let mut p = self.path.clone().into_os_string();
        p.push(format!(".{n}"));
        PathBuf::from(p)
    }

    fn write_line(&self, line: &str) {
        let mut inner = match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        if self.rotate_bytes > 0 && inner.written > self.rotate_bytes {
            let _ = inner.out.flush();
            // Prune every generation at or past the keep budget — the
            // directory scan also catches leftovers from a previous run
            // with a larger `keep` — then shift the rest
            // oldest-first: .{keep-1} → .{keep}, …, .1 → .2.
            if let (Some(dir), Some(stem)) = (self.path.parent(), self.path.file_name()) {
                let prefix = format!("{}.", stem.to_string_lossy());
                for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
                    let name = entry.file_name();
                    let stale = name
                        .to_string_lossy()
                        .strip_prefix(&prefix)
                        .and_then(|n| n.parse::<u64>().ok())
                        .is_some_and(|n| n >= self.keep);
                    if stale {
                        let _ = std::fs::remove_file(entry.path());
                    }
                }
            }
            for n in (1..self.keep).rev() {
                let _ = std::fs::rename(self.generation(n), self.generation(n + 1));
            }
            if std::fs::rename(&self.path, self.generation(1)).is_ok() {
                if let Ok(file) = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                {
                    inner.out = BufWriter::new(file);
                    inner.written = 0;
                }
            }
        }
        let _ = inner.out.write_all(line.as_bytes());
        let _ = inner.out.write_all(b"\n");
        // Flush per line: the log exists to debug live incidents, and a
        // crash must not eat the interesting tail.
        let _ = inner.out.flush();
        inner.written += line.len() as u64 + 1;
    }
}

/// Render an SLO firing-state transition as an event line for the access
/// log, shape-compatible with request lines (`"event"` discriminates).
pub fn render_slo_transition(
    now_ms: u64,
    slo: &str,
    firing: bool,
    fast_burn: f64,
    slow_burn: f64,
) -> String {
    format!(
        "{{\"ts_ms\":{now_ms},\"event\":\"slo-transition\",\"slo\":\"{}\",\
         \"firing\":{firing},\"fast_burn\":{fast_burn:.3},\"slow_burn\":{slow_burn:.3}}}",
        esc(slo)
    )
}

/// Render one access-log line from a sealed trace. Pure, so it is testable
/// without a filesystem; the caller owns when/whether it is written.
pub fn render_line(method: &str, path: &str, trace: &FinishedTrace) -> String {
    let mut out = String::with_capacity(256);
    out.push_str(&format!(
        "{{\"ts_ms\":{},\"trace_id\":\"{}\",\"tenant\":\"{}\",\"method\":\"{}\",\"path\":\"{}\",\"status\":{}",
        trace.wall_ms,
        t2v_trace::format_id(trace.id),
        esc(&trace.tenant),
        esc(method),
        esc(path),
        trace.status,
    ));
    out.push_str(&format!(
        ",\"backend\":\"{}\",\"cache\":\"{}\"",
        esc(&trace.backend),
        esc(&trace.cache)
    ));
    match &trace.degraded {
        Some(mode) => out.push_str(&format!(",\"degraded\":\"{}\"", esc(mode))),
        None => out.push_str(",\"degraded\":null"),
    }
    out.push_str(&format!(",\"ms\":{:.3}", trace.total_ns as f64 / 1e6));
    out.push_str(",\"stages_ms\":{");
    let mut first = true;
    for stage in t2v_trace::STAGES {
        if stage == t2v_trace::Stage::Request {
            continue;
        }
        let ns = trace.stage_ns(stage);
        if ns == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{:.3}", stage.name(), ns as f64 / 1e6));
    }
    out.push_str("}}");
    out
}

/// Minimal JSON string escaping for log fields (they are short,
/// server-controlled identifiers, but a hostile tenant id must not be able
/// to forge log lines).
fn esc(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_trace::{Span, Stage};

    fn sample_trace() -> FinishedTrace {
        FinishedTrace {
            id: 0xdead_beef,
            wall_ms: 1_700_000_000_000,
            tenant: "acme".into(),
            backend: "gred".into(),
            cache: "miss".into(),
            degraded: Some("stale_cache".into()),
            status: 200,
            total_ns: 12_345_678,
            dropped_spans: 0,
            spans: vec![
                Span {
                    stage: Stage::Request,
                    start_ns: 0,
                    dur_ns: 12_345_678,
                    parent: None,
                    notes: vec![],
                },
                Span {
                    stage: Stage::Backend,
                    start_ns: 1_000_000,
                    dur_ns: 10_000_000,
                    parent: Some(0),
                    notes: vec![],
                },
                Span {
                    stage: Stage::Embed,
                    start_ns: 2_000_000,
                    dur_ns: 3_000_000,
                    parent: Some(1),
                    notes: vec![],
                },
            ],
        }
    }

    #[test]
    fn rendered_line_is_one_json_object() {
        let line = render_line("POST", "/v1/translate", &sample_trace());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        assert!(line.contains("\"trace_id\":\"000000000000000000000000deadbeef\""));
        assert!(line.contains("\"tenant\":\"acme\""));
        assert!(line.contains("\"status\":200"));
        assert!(line.contains("\"cache\":\"miss\""));
        assert!(line.contains("\"degraded\":\"stale_cache\""));
        assert!(line.contains("\"ms\":12.346"));
        assert!(line.contains("\"backend.translate\":10.000"));
        assert!(line.contains("\"embed\":3.000"));
        // Stages with no recorded time stay out of the map entirely.
        assert!(!line.contains("queue.wait"));
    }

    #[test]
    fn hostile_field_values_cannot_forge_lines() {
        let mut t = sample_trace();
        t.tenant = "a\"b\\c\nd".into();
        let line = render_line("POST", "/v1/translate", &t);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"tenant\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn rotation_keeps_two_generations() {
        let dir = std::env::temp_dir().join(format!("t2v-alog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let path_str = path.to_str().unwrap();
        // rotate_mb=0 with a tiny injected budget is not expressible via
        // the public constructor, so rotate at 1 MiB and write past it.
        let log = AccessLog::open(path_str, 1, 1).unwrap();
        let line = "x".repeat(64 * 1024);
        for _ in 0..20 {
            log.write_line(&line);
        }
        // 20 × 64 KiB > 1 MiB ⇒ at least one rotation happened.
        let rotated = dir.join("access.log.1");
        assert!(rotated.exists(), "rotated generation exists");
        assert!(!dir.join("access.log.2").exists(), "keep=1 means one");
        let live = std::fs::metadata(&path).unwrap().len();
        assert!(live < 1_200_000, "live file restarted after rotation");
        let old = std::fs::metadata(&rotated).unwrap().len();
        assert!(old >= 1_000_000, "rotated file holds the overflowing bulk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn numbered_rotation_shifts_and_prunes_old_generations() {
        let dir = std::env::temp_dir().join(format!("t2v-alog-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let path_str = path.to_str().unwrap();
        // A stale generation beyond the keep budget, as if a previous run
        // used a larger keep budget — it must be pruned on rotation.
        std::fs::write(dir.join("access.log.7"), "stale\n").unwrap();
        let log = AccessLog::open(path_str, 1, 3).unwrap();
        let line = "y".repeat(64 * 1024);
        // Each pass of ~17 lines crosses 1 MiB; 5 rotations total.
        for _ in 0..(5 * 17) {
            log.write_line(&line);
        }
        assert!(path.exists(), "live file present");
        for n in 1..=3u64 {
            assert!(
                dir.join(format!("access.log.{n}")).exists(),
                "generation {n} kept"
            );
        }
        assert!(
            !dir.join("access.log.4").exists(),
            "generation 4 pruned (keep=3)"
        );
        assert!(
            !dir.join("access.log.7").exists(),
            "stale generation beyond keep pruned"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_appends_instead_of_truncating() {
        let dir = std::env::temp_dir().join(format!("t2v-alog-re-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let path_str = path.to_str().unwrap();
        AccessLog::open(path_str, 64, 3)
            .unwrap()
            .write_line("first");
        AccessLog::open(path_str, 64, 3)
            .unwrap()
            .write_line("second");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "first\nsecond\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn slo_transition_line_is_json_with_escaped_name() {
        let line = render_slo_transition(1_700_000_000_000, "avail\"x", true, 1000.0, 230.5);
        assert!(line.contains("\"event\":\"slo-transition\""));
        assert!(line.contains("\"slo\":\"avail\\\"x\""));
        assert!(line.contains("\"firing\":true"));
        assert!(line.contains("\"fast_burn\":1000.000"));
        assert!(line.contains("\"slow_burn\":230.500"));
        assert!(!line.contains('\n'));
    }
}
