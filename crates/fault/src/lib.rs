//! Deterministic fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] is parsed from a compact spec string (same flavour as the
//! tenant corpus specs), seeds a deterministic per-point RNG, and arms named
//! injection points threaded through the workspace:
//!
//! | point              | action when fired                                  |
//! |--------------------|----------------------------------------------------|
//! | `embed.latency`    | sleep `ms` as a pipeline embedding begins: polled  |
//! |                    | by `t2v-serve`'s job observer (two per GRED        |
//! |                    | translation, one per RGVisNet), never at build     |
//! | `retrieve.latency` | sleep `ms` as a GRED retrieval begins (two per     |
//! |                    | translation), polled by the same observer          |
//! | `backend.error`    | translation returns a structured `internal` error  |
//! | `backend.panic`    | translation worker job panics                      |
//! | `snapshot.corrupt` | flip one byte of a snapshot file as it is read     |
//! | `conn.write_stall` | sleep `ms` before writing an HTTP response         |
//!
//! Grammar (clauses separated by `;`, parameters by `,`):
//!
//! ```text
//! seed=42;embed.latency:p=0.5,count=10,ms=25;backend.error:backend=transformer
//! ```
//!
//! * `seed=N` — RNG seed for the whole plan (default 0). Same spec + same
//!   request order ⇒ same faults, so chaos runs are replayable.
//! * `p=F` — per-call fire probability in `[0,1]` (default 1).
//! * `count=N` — total fire budget; once spent the point goes quiet
//!   (default 0 = unlimited).
//! * `ms=N` — delay for latency/stall points (default 25).
//! * `backend=ID` — only fire for this backend label (backend.* points).
//!
//! Hooks call [`fire`] (or [`fire_for`] with a backend label) through a
//! process-global armed plan. When nothing is armed the hook is a single
//! relaxed atomic load — the hot path pays nothing for the capability.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Named injection points, in stable index order (RNG streams key off it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    EmbedLatency,
    RetrieveLatency,
    BackendError,
    BackendPanic,
    SnapshotCorrupt,
    ConnWriteStall,
}

/// Every point, in index order.
pub const ALL_POINTS: [FaultPoint; 6] = [
    FaultPoint::EmbedLatency,
    FaultPoint::RetrieveLatency,
    FaultPoint::BackendError,
    FaultPoint::BackendPanic,
    FaultPoint::SnapshotCorrupt,
    FaultPoint::ConnWriteStall,
];

impl FaultPoint {
    /// Stable spec / metrics name.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::EmbedLatency => "embed.latency",
            FaultPoint::RetrieveLatency => "retrieve.latency",
            FaultPoint::BackendError => "backend.error",
            FaultPoint::BackendPanic => "backend.panic",
            FaultPoint::SnapshotCorrupt => "snapshot.corrupt",
            FaultPoint::ConnWriteStall => "conn.write_stall",
        }
    }

    pub fn from_name(name: &str) -> Option<FaultPoint> {
        ALL_POINTS.into_iter().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether `backend=` targeting applies to this point.
    fn backend_scoped(self) -> bool {
        matches!(self, FaultPoint::BackendError | FaultPoint::BackendPanic)
    }
}

/// What a fired point asks the hook site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Sleep this long before proceeding.
    Delay(Duration),
    /// Fail with a structured internal error.
    Error,
    /// Panic (the worker pool must translate this into a fast structured
    /// error, never a hang — that contract is what chaos runs verify).
    Panic,
    /// Corrupt the bytes being read.
    Corrupt,
}

/// Parsed per-point configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Fire probability per call, in `[0, 1]`.
    pub probability: f64,
    /// Total fire budget; 0 means unlimited.
    pub count: u64,
    /// Delay for latency/stall points, in milliseconds.
    pub delay_ms: u64,
    /// Restrict backend.* points to this backend label.
    pub backend: Option<String>,
}

impl Default for PointSpec {
    fn default() -> Self {
        PointSpec {
            probability: 1.0,
            count: 0,
            delay_ms: 25,
            backend: None,
        }
    }
}

/// Structured rejection of a malformed fault spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    Empty,
    UnknownPoint(String),
    DuplicatePoint(String),
    BadParam {
        clause: String,
        param: String,
        reason: String,
    },
    BadSeed(String),
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::Empty => write!(f, "fault spec is empty"),
            FaultSpecError::UnknownPoint(p) => {
                write!(f, "unknown fault point {p:?} (valid: ")?;
                for (i, point) in ALL_POINTS.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{}", point.name())?;
                }
                write!(f, ")")
            }
            FaultSpecError::DuplicatePoint(p) => {
                write!(f, "fault point {p:?} appears more than once")
            }
            FaultSpecError::BadParam {
                clause,
                param,
                reason,
            } => {
                write!(f, "bad parameter {param:?} in clause {clause:?}: {reason}")
            }
            FaultSpecError::BadSeed(s) => write!(f, "bad seed {s:?}: expected u64"),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A parsed, not-yet-armed fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub seed: u64,
    points: [Option<PointSpec>; 6],
}

impl FaultPlan {
    /// Parse the spec grammar documented at the crate root.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan {
            seed: 0,
            points: std::array::from_fn(|_| None),
        };
        let mut saw_clause = false;
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            saw_clause = true;
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| FaultSpecError::BadSeed(seed.trim().to_string()))?;
                continue;
            }
            let (name, params) = match clause.split_once(':') {
                Some((name, params)) => (name.trim(), params),
                None => (clause, ""),
            };
            let point = FaultPoint::from_name(name)
                .ok_or_else(|| FaultSpecError::UnknownPoint(name.to_string()))?;
            if plan.points[point.index()].is_some() {
                return Err(FaultSpecError::DuplicatePoint(name.to_string()));
            }
            let mut spec = PointSpec::default();
            for param in params.split(',') {
                let param = param.trim();
                if param.is_empty() {
                    continue;
                }
                let bad = |reason: &str| FaultSpecError::BadParam {
                    clause: clause.to_string(),
                    param: param.to_string(),
                    reason: reason.to_string(),
                };
                let (key, value) = param
                    .split_once('=')
                    .ok_or_else(|| bad("expected key=value"))?;
                match (key.trim(), value.trim()) {
                    ("p", v) => {
                        let p: f64 = v.parse().map_err(|_| bad("expected float"))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(bad("probability must be in [0, 1]"));
                        }
                        spec.probability = p;
                    }
                    ("count", v) => {
                        spec.count = v.parse().map_err(|_| bad("expected u64"))?;
                    }
                    ("ms", v) => {
                        spec.delay_ms = v.parse().map_err(|_| bad("expected u64"))?;
                    }
                    ("backend", v) => {
                        if !point.backend_scoped() {
                            return Err(bad("backend= only applies to backend.* points"));
                        }
                        if v.is_empty() {
                            return Err(bad("backend label is empty"));
                        }
                        spec.backend = Some(v.to_string());
                    }
                    _ => return Err(bad("unknown key (valid: p, count, ms, backend)")),
                }
            }
            plan.points[point.index()] = Some(spec);
        }
        if !saw_clause {
            return Err(FaultSpecError::Empty);
        }
        Ok(plan)
    }

    /// Points configured by this plan, in index order.
    pub fn configured(&self) -> impl Iterator<Item = (FaultPoint, &PointSpec)> {
        ALL_POINTS
            .into_iter()
            .filter_map(|p| self.points[p.index()].as_ref().map(|s| (p, s)))
    }

    pub fn point(&self, point: FaultPoint) -> Option<&PointSpec> {
        self.points[point.index()].as_ref()
    }

    /// Arm the plan: seed per-point RNG streams and fire budgets. The
    /// returned [`ArmedPlan`] is self-contained (tests drive it directly);
    /// [`arm`] installs one globally for the in-process hooks.
    pub fn armed(&self) -> ArmedPlan {
        ArmedPlan {
            points: std::array::from_fn(|i| {
                self.points[i].as_ref().map(|spec| ArmedPoint {
                    spec: spec.clone(),
                    // Distinct, well-mixed stream per point: a plain
                    // `seed + i` would correlate streams across points.
                    rng: AtomicU64::new(splitmix64(
                        self.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)),
                    )),
                    remaining: AtomicU64::new(if spec.count == 0 {
                        u64::MAX
                    } else {
                        spec.count
                    }),
                    fired: AtomicU64::new(0),
                })
            }),
        }
    }
}

struct ArmedPoint {
    spec: PointSpec,
    rng: AtomicU64,
    remaining: AtomicU64,
    fired: AtomicU64,
}

/// A live plan: deterministic RNG state plus remaining budgets.
pub struct ArmedPlan {
    points: [Option<ArmedPoint>; 6],
}

impl ArmedPlan {
    /// Should `point` fire now? Draws from the point's RNG stream (advancing
    /// it even when the budget is spent, so firing order stays a pure
    /// function of the call sequence), then spends one unit of budget.
    pub fn fire(&self, point: FaultPoint) -> Option<FaultAction> {
        self.fire_for(point, None)
    }

    /// Like [`ArmedPlan::fire`] but with the backend label at the hook site;
    /// points armed with `backend=` only fire on a matching label.
    pub fn fire_for(&self, point: FaultPoint, backend: Option<&str>) -> Option<FaultAction> {
        let armed = self.points[point.index()].as_ref()?;
        if let Some(want) = &armed.spec.backend {
            if backend != Some(want.as_str()) {
                return None;
            }
        }
        if armed.spec.probability < 1.0 {
            let draw = advance(&armed.rng);
            // 53 high bits → uniform f64 in [0, 1).
            let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
            if unit >= armed.spec.probability {
                return None;
            }
        }
        // Spend budget only on a positive draw.
        let spent = armed
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
            .is_ok();
        if !spent {
            return None;
        }
        armed.fired.fetch_add(1, Ordering::Relaxed);
        Some(match point {
            FaultPoint::EmbedLatency | FaultPoint::RetrieveLatency | FaultPoint::ConnWriteStall => {
                FaultAction::Delay(Duration::from_millis(armed.spec.delay_ms))
            }
            FaultPoint::BackendError => FaultAction::Error,
            FaultPoint::BackendPanic => FaultAction::Panic,
            FaultPoint::SnapshotCorrupt => FaultAction::Corrupt,
        })
    }

    /// Times `point` has actually fired.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.points[point.index()]
            .as_ref()
            .map_or(0, |p| p.fired.load(Ordering::Relaxed))
    }

    /// Remaining fire budget for `point`; `u64::MAX` means unlimited.
    pub fn remaining(&self, point: FaultPoint) -> u64 {
        self.points[point.index()]
            .as_ref()
            .map_or(0, |p| p.remaining.load(Ordering::Relaxed))
    }

    /// True once every bounded point has spent its budget (unbounded points
    /// never exhaust).
    pub fn exhausted(&self) -> bool {
        self.points
            .iter()
            .flatten()
            .all(|p| p.spec.count == 0 || p.remaining.load(Ordering::Relaxed) == 0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Advance an xorshift64* stream stored in an atomic; lock-free and
/// deterministic given the sequence of calls.
fn advance(state: &AtomicU64) -> u64 {
    let mut out = 0;
    let _ = state.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        out = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        Some(x)
    });
    out
}

// ---------------------------------------------------------------------------
// Process-global arming: hooks compiled into the stack consult this. The
// fast path when nothing is armed is a single relaxed load.
// ---------------------------------------------------------------------------

static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn global() -> &'static Mutex<Option<Arc<ArmedPlan>>> {
    static GLOBAL: OnceLock<Mutex<Option<Arc<ArmedPlan>>>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Install `plan` as the process-global armed plan, replacing any previous
/// one. Returns a handle for inspecting fired counts / budgets.
pub fn arm(plan: &FaultPlan) -> Arc<ArmedPlan> {
    let armed = Arc::new(plan.armed());
    *global().lock().unwrap() = Some(Arc::clone(&armed));
    ANY_ARMED.store(true, Ordering::Release);
    armed
}

/// Disarm the process-global plan; every hook reverts to the no-op fast path.
pub fn disarm() {
    ANY_ARMED.store(false, Ordering::Release);
    *global().lock().unwrap() = None;
}

/// Whether any plan is currently armed.
#[inline]
pub fn is_armed() -> bool {
    ANY_ARMED.load(Ordering::Relaxed)
}

/// Global hook: fire `point` against the armed plan, if any.
#[inline]
pub fn fire(point: FaultPoint) -> Option<FaultAction> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_slow(point, None)
}

/// Global hook with a backend label (for `backend=`-scoped points).
#[inline]
pub fn fire_for(point: FaultPoint, backend: &str) -> Option<FaultAction> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_slow(point, Some(backend))
}

#[cold]
fn fire_slow(point: FaultPoint, backend: Option<&str>) -> Option<FaultAction> {
    let armed = global().lock().unwrap().as_ref().map(Arc::clone)?;
    let action = armed.fire_for(point, backend);
    if action.is_some() {
        // A fired fault names itself on the span it fired inside, so a
        // stored trace explains the anomaly it caused (no-op untraced).
        t2v_trace::note(format!("fault:{}", point.name()));
    }
    action
}

/// Fire a pure-latency point without sleeping: the delay it asks for, for
/// hook sites that fire on a thread that must not block and sleep elsewhere.
#[inline]
pub fn fire_delay(point: FaultPoint) -> Option<Duration> {
    match fire(point) {
        Some(FaultAction::Delay(d)) => Some(d),
        _ => None,
    }
}

/// Convenience for pure-latency hook sites: sleep if the point fires.
#[inline]
pub fn inject_delay(point: FaultPoint) {
    if let Some(d) = fire_delay(point) {
        std::thread::sleep(d);
    }
}

/// `(point name, fired count)` for every configured point of the armed plan,
/// for the metrics endpoint. `None` when nothing is armed.
pub fn global_fired() -> Option<Vec<(&'static str, u64)>> {
    if !ANY_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let armed = global().lock().unwrap().as_ref().map(Arc::clone)?;
    Some(
        ALL_POINTS
            .into_iter()
            .filter(|p| armed.points[p.index()].is_some())
            .map(|p| (p.name(), armed.fired(p)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan = FaultPlan::parse(
            "seed=42;embed.latency:p=0.5,count=10,ms=50;backend.error:backend=transformer",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        let embed = plan.point(FaultPoint::EmbedLatency).unwrap();
        assert_eq!(embed.probability, 0.5);
        assert_eq!(embed.count, 10);
        assert_eq!(embed.delay_ms, 50);
        assert_eq!(embed.backend, None);
        let backend = plan.point(FaultPoint::BackendError).unwrap();
        assert_eq!(backend.probability, 1.0);
        assert_eq!(backend.backend.as_deref(), Some("transformer"));
        assert!(plan.point(FaultPoint::SnapshotCorrupt).is_none());
        assert_eq!(plan.configured().count(), 2);
    }

    #[test]
    fn bare_point_defaults() {
        let plan = FaultPlan::parse("backend.panic").unwrap();
        let spec = plan.point(FaultPoint::BackendPanic).unwrap();
        assert_eq!(spec.probability, 1.0);
        assert_eq!(spec.count, 0);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert_eq!(FaultPlan::parse(""), Err(FaultSpecError::Empty));
        assert_eq!(FaultPlan::parse("  ;  "), Err(FaultSpecError::Empty));
        assert!(matches!(
            FaultPlan::parse("bogus.point"),
            Err(FaultSpecError::UnknownPoint(_))
        ));
        assert!(matches!(
            FaultPlan::parse("backend.error;backend.error:p=0.5"),
            Err(FaultSpecError::DuplicatePoint(_))
        ));
        assert!(matches!(
            FaultPlan::parse("embed.latency:p=1.5"),
            Err(FaultSpecError::BadParam { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("embed.latency:p=nan"),
            Err(FaultSpecError::BadParam { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("embed.latency:bogus=1"),
            Err(FaultSpecError::BadParam { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("embed.latency:p"),
            Err(FaultSpecError::BadParam { .. })
        ));
        // backend= targeting only makes sense on backend.* points.
        assert!(matches!(
            FaultPlan::parse("embed.latency:backend=gred"),
            Err(FaultSpecError::BadParam { .. })
        ));
        assert!(matches!(
            FaultPlan::parse("seed=notanumber"),
            Err(FaultSpecError::BadSeed(_))
        ));
    }

    #[test]
    fn every_point_round_trips_by_name() {
        for point in ALL_POINTS {
            assert_eq!(FaultPoint::from_name(point.name()), Some(point));
            let plan = FaultPlan::parse(point.name()).unwrap();
            assert!(plan.point(point).is_some());
        }
        assert_eq!(FaultPoint::from_name("nope"), None);
    }

    #[test]
    fn deterministic_across_armings() {
        let plan = FaultPlan::parse("seed=7;backend.error:p=0.3").unwrap();
        let a = plan.armed();
        let b = plan.armed();
        let seq_a: Vec<bool> = (0..200)
            .map(|_| a.fire(FaultPoint::BackendError).is_some())
            .collect();
        let seq_b: Vec<bool> = (0..200)
            .map(|_| b.fire(FaultPoint::BackendError).is_some())
            .collect();
        assert_eq!(seq_a, seq_b, "same seed must replay the same faults");
        let fired = seq_a.iter().filter(|f| **f).count();
        assert!(
            (20..=100).contains(&fired),
            "p=0.3 over 200 draws fired {fired} times"
        );

        let other = FaultPlan::parse("seed=8;backend.error:p=0.3")
            .unwrap()
            .armed();
        let seq_c: Vec<bool> = (0..200)
            .map(|_| other.fire(FaultPoint::BackendError).is_some())
            .collect();
        assert_ne!(seq_a, seq_c, "different seeds should diverge");
    }

    #[test]
    fn count_budget_exhausts_and_reports() {
        let plan = FaultPlan::parse("backend.error:count=3").unwrap();
        let armed = plan.armed();
        assert!(!armed.exhausted());
        let fired = (0..10)
            .filter(|_| armed.fire(FaultPoint::BackendError).is_some())
            .count();
        assert_eq!(fired, 3);
        assert_eq!(armed.fired(FaultPoint::BackendError), 3);
        assert_eq!(armed.remaining(FaultPoint::BackendError), 0);
        assert!(armed.exhausted());
    }

    #[test]
    fn backend_scoping_filters_labels() {
        let plan = FaultPlan::parse("backend.error:backend=transformer").unwrap();
        let armed = plan.armed();
        assert_eq!(armed.fire_for(FaultPoint::BackendError, Some("gred")), None);
        assert_eq!(armed.fire(FaultPoint::BackendError), None);
        assert_eq!(
            armed.fire_for(FaultPoint::BackendError, Some("transformer")),
            Some(FaultAction::Error)
        );
    }

    #[test]
    fn actions_match_point_kind() {
        let plan = FaultPlan::parse("embed.latency:ms=5;backend.panic;snapshot.corrupt").unwrap();
        let armed = plan.armed();
        assert_eq!(
            armed.fire(FaultPoint::EmbedLatency),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
        assert_eq!(
            armed.fire(FaultPoint::BackendPanic),
            Some(FaultAction::Panic)
        );
        assert_eq!(
            armed.fire(FaultPoint::SnapshotCorrupt),
            Some(FaultAction::Corrupt)
        );
        // Unconfigured points never fire.
        assert_eq!(armed.fire(FaultPoint::ConnWriteStall), None);
    }
}
