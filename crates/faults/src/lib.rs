//! `dsketch-faults` — deterministic, process-global fault injection.
//!
//! Robustness claims ("the server keeps answering through a kernel panic",
//! "a torn snapshot write never poisons the next cold start") are only as
//! good as the faults they were tested against.  This crate provides the
//! faults: code under test declares **named failpoints** with
//! [`fail_point!`], and a test, an operator (`DSKETCH_FAULTS=...`), or a
//! debug endpoint arms a seeded [`FaultPlan`] that decides — repeatably —
//! which hits of which points trip which [`FaultAction`].
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disarmed.**  A disarmed [`fail_point!`] is one
//!    relaxed load of a process-global atomic (no lock, no allocation, no
//!    string hash).  Production binaries keep their failpoints compiled in;
//!    `cli_smoke.rs` holds that a normally started server reports zero armed
//!    points and zero trips on `GET /faults`.
//! 2. **Deterministic.**  Whether hit number `i` of point `p` trips is a
//!    pure function of `(plan seed, p, i)` — a SplitMix64 draw over the
//!    FNV-1a hash of the point name — so a failing chaos run replays
//!    exactly from its seed.  "Trip on the k-th hit" is the special case
//!    `after = k − 1, one_in = 1, max = 1`.
//! 3. **Dependency-free.**  `std` only: the crate sits below `store`,
//!    `serve`, and `bench` in the workspace graph and must never create a
//!    cycle or pull a vendored shim into every build.
//!
//! # Actions
//!
//! | action       | effect at the failpoint                                   |
//! |--------------|-----------------------------------------------------------|
//! | `error`      | [`hit`] returns [`Fault::Error`]; the site maps it to its typed error |
//! | `panic`      | [`hit`] panics (named after the point) — exercises panic isolation |
//! | `delay:MS`   | [`hit`] sleeps `MS` milliseconds, then returns `None` — exercises deadlines |
//! | `partial:N`  | [`hit`] returns [`Fault::Partial`]; IO wrappers cut the stream after `N` bytes |
//!
//! # Spec grammar
//!
//! The env var `DSKETCH_FAULTS` and the serve layer's `POST /faults`
//! endpoint share one grammar: `;`-separated clauses, each either
//! `seed=N` or `point=action[,modifier...]` with modifiers `one_in=N`
//! (trip a deterministic 1-in-N subset of eligible hits), `after=N` (skip
//! the first N hits), and `max=N` (cap total trips).
//!
//! ```
//! let plan = dsketch_faults::FaultPlan::parse(
//!     "seed=7;store.save.rename=error,one_in=4;net.read.frame=delay:25,after=2,max=3",
//! )
//! .unwrap();
//! dsketch_faults::registry().arm(&plan);
//! assert_eq!(dsketch_faults::registry().armed_points(), 2);
//! dsketch_faults::disarm_all();
//! assert!(!dsketch_faults::armed());
//! ```

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Number of points currently armed in the global registry.  The
/// [`fail_point!`] fast path is one relaxed load of this counter; every
/// arm/disarm stores it under the registry lock.
static ARMED_POINTS: AtomicUsize = AtomicUsize::new(0);

/// `true` when at least one failpoint is armed in the global registry.
/// One relaxed atomic load — this is the whole cost of a disarmed
/// failpoint.
#[inline]
pub fn armed() -> bool {
    ARMED_POINTS.load(Ordering::Relaxed) != 0
}

/// Declare a named failpoint: `fail_point!("store.save.rename")`.
///
/// Expands to a call of [`hit`] — returns `None` when disarmed (the
/// overwhelmingly common case, at the cost of one atomic load) and
/// `Some(`[`Fault`]`)` when an armed plan trips here.  `delay` actions
/// sleep and `panic` actions panic *inside* the macro; the caller only
/// ever sees the faults it has to map to its own error type.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {
        $crate::hit($name)
    };
}

/// What an armed plan does when a point trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Surface as the call site's typed error.
    Error,
    /// Panic at the failpoint (the panic message names the point).
    Panic,
    /// Sleep this many milliseconds, then continue normally.
    Delay(u64),
    /// Cut a wrapped IO stream after this many bytes ([`FaultWriter`] /
    /// [`FaultReader`]); plain call sites treat it like [`FaultAction::Error`].
    Partial(u64),
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Error => write!(f, "error"),
            FaultAction::Panic => write!(f, "panic"),
            FaultAction::Delay(ms) => write!(f, "delay:{ms}"),
            FaultAction::Partial(n) => write!(f, "partial:{n}"),
        }
    }
}

/// The fault a call site must handle after [`hit`] returns `Some`.
/// (`Delay` and `Panic` never reach the caller — they happen inside
/// [`hit`].)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with the site's typed error.
    Error,
    /// Let this many bytes through, then fail (torn write / short read).
    Partial(u64),
}

impl Fault {
    /// Render this fault as an `std::io::Error`, named after the point —
    /// the common mapping for IO-shaped call sites.
    pub fn io_error(&self, point: &str) -> std::io::Error {
        match self {
            Fault::Error => std::io::Error::other(format!("injected fault at '{point}'")),
            Fault::Partial(n) => std::io::Error::other(format!(
                "injected partial-IO fault at '{point}' (cut after {n} bytes)"
            )),
        }
    }
}

/// The trip schedule for one failpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointPlan {
    /// What happens when the point trips.
    pub action: FaultAction,
    /// Trip a deterministic 1-in-N subset of eligible hits (`1` = every
    /// eligible hit; `0` is treated as `1`).
    pub one_in: u64,
    /// Skip the first N hits entirely.
    pub after: u64,
    /// Stop tripping after this many trips (`u64::MAX` = unlimited).
    pub max: u64,
}

impl PointPlan {
    /// A plan that trips `action` on every hit.
    pub fn new(action: FaultAction) -> PointPlan {
        PointPlan {
            action,
            one_in: 1,
            after: 0,
            max: u64::MAX,
        }
    }

    /// Trip exactly once, on the k-th hit (1-based).
    pub fn on_hit(k: u64, action: FaultAction) -> PointPlan {
        PointPlan {
            action,
            one_in: 1,
            after: k.saturating_sub(1),
            max: 1,
        }
    }

    /// Replace the 1-in-N trip rate.
    pub fn one_in(mut self, n: u64) -> PointPlan {
        self.one_in = n;
        self
    }

    /// Skip the first `n` hits.
    pub fn after(mut self, n: u64) -> PointPlan {
        self.after = n;
        self
    }

    /// Cap total trips at `n`.
    pub fn max(mut self, n: u64) -> PointPlan {
        self.max = n;
        self
    }
}

/// A seeded set of [`PointPlan`]s, ready to arm in a [`FaultRegistry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic 1-in-N draws (mixed per point with the
    /// FNV-1a hash of the point name).
    pub seed: u64,
    points: BTreeMap<String, PointPlan>,
}

/// A malformed fault spec (env var or `POST /faults` body); the message
/// names the offending clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(String);

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

impl FaultPlan {
    /// An empty plan with `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            points: BTreeMap::new(),
        }
    }

    /// Add (or replace) the plan for one point.
    pub fn with_point(mut self, name: &str, plan: PointPlan) -> FaultPlan {
        self.points.insert(name.to_string(), plan);
        self
    }

    /// Number of points in the plan.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the plan arms no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Parse the spec grammar (see the module docs):
    /// `seed=7;store.save.rename=error,one_in=4;net.read.frame=delay:25,after=2,max=3`.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::new(0);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (name, rest) = clause
                .split_once('=')
                .ok_or_else(|| FaultSpecError(format!("clause '{clause}' has no '='")))?;
            let (name, rest) = (name.trim(), rest.trim());
            if name == "seed" {
                plan.seed = rest
                    .parse()
                    .map_err(|_| FaultSpecError(format!("seed '{rest}' is not a u64")))?;
                continue;
            }
            if name.is_empty() {
                return Err(FaultSpecError(format!(
                    "clause '{clause}' has no point name"
                )));
            }
            let mut fields = rest.split(',').map(str::trim);
            let action = parse_action(fields.next().unwrap_or(""))?;
            let mut point = PointPlan::new(action);
            for modifier in fields {
                let (key, value) = modifier.split_once('=').ok_or_else(|| {
                    FaultSpecError(format!("modifier '{modifier}' is not key=value"))
                })?;
                let value: u64 = value.trim().parse().map_err(|_| {
                    FaultSpecError(format!("modifier '{modifier}' needs a u64 value"))
                })?;
                match key.trim() {
                    "one_in" => point.one_in = value,
                    "after" => point.after = value,
                    "max" => point.max = value,
                    other => {
                        return Err(FaultSpecError(format!(
                            "unknown modifier '{other}' (known: one_in, after, max)"
                        )))
                    }
                }
            }
            plan.points.insert(name.to_string(), point);
        }
        Ok(plan)
    }
}

fn parse_action(text: &str) -> Result<FaultAction, FaultSpecError> {
    let (head, arg) = match text.split_once(':') {
        Some((head, arg)) => (head.trim(), Some(arg.trim())),
        None => (text, None),
    };
    let number = |label: &str| -> Result<u64, FaultSpecError> {
        arg.ok_or_else(|| FaultSpecError(format!("action '{head}' needs '{head}:{label}'")))?
            .parse()
            .map_err(|_| FaultSpecError(format!("action '{text}' needs a u64 after ':'")))
    };
    match head {
        "error" => Ok(FaultAction::Error),
        "panic" => Ok(FaultAction::Panic),
        "delay" => Ok(FaultAction::Delay(number("MILLIS")?)),
        "partial" => Ok(FaultAction::Partial(number("BYTES")?)),
        other => Err(FaultSpecError(format!(
            "unknown action '{other}' (known: error, panic, delay:MS, partial:N)"
        ))),
    }
}

/// Live state of one armed point.
#[derive(Debug)]
struct PointState {
    plan: PointPlan,
    /// Plan seed mixed with the FNV-1a hash of the point name.
    seed: u64,
    hits: AtomicU64,
    trips: AtomicU64,
}

/// Observable state of one armed point (for `GET /faults` and test
/// assertions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointStatus {
    /// The failpoint name.
    pub name: String,
    /// The armed plan.
    pub plan: PointPlan,
    /// Times the point was evaluated while armed.
    pub hits: u64,
    /// Times the point actually tripped.
    pub trips: u64,
}

/// The process-global registry of armed failpoints.  Obtain it with
/// [`registry`]; arm it with [`FaultRegistry::arm`] (or the
/// [`arm_from_spec`] / [`arm_from_env`] conveniences) and clear it with
/// [`FaultRegistry::disarm_all`].
///
/// Arming **replaces** the armed set wholesale — plans do not merge, so a
/// test (or operator) always knows exactly what is armed.  Tests that arm
/// the registry must serialize against each other (it is process-global)
/// and disarm on exit; the workspace keeps all such tests in dedicated
/// integration binaries for that reason.
#[derive(Debug, Default)]
pub struct FaultRegistry {
    points: Mutex<BTreeMap<String, Arc<PointState>>>,
}

impl FaultRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<PointState>>> {
        // A panic while holding this lock is impossible by construction
        // (no user code runs under it), but `panic` *actions* unwind
        // through threads that may later re-enter — recover instead of
        // compounding one injected panic with a poison panic.
        self.points.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Arm `plan`, replacing whatever was armed before.  Hit and trip
    /// counters start at zero.
    pub fn arm(&self, plan: &FaultPlan) {
        let mut points = self.lock();
        points.clear();
        for (name, point) in &plan.points {
            points.insert(
                name.clone(),
                Arc::new(PointState {
                    plan: *point,
                    seed: plan.seed ^ fnv1a(name.as_bytes()),
                    hits: AtomicU64::new(0),
                    trips: AtomicU64::new(0),
                }),
            );
        }
        ARMED_POINTS.store(points.len(), Ordering::SeqCst);
    }

    /// Disarm every point.  Failpoints return to their zero-cost path.
    pub fn disarm_all(&self) {
        let mut points = self.lock();
        points.clear();
        ARMED_POINTS.store(0, Ordering::SeqCst);
    }

    /// Number of points currently armed.
    pub fn armed_points(&self) -> usize {
        self.lock().len()
    }

    /// Times `point` has tripped since it was armed (0 when not armed).
    pub fn trips(&self, point: &str) -> u64 {
        self.lock()
            .get(point)
            .map_or(0, |state| state.trips.load(Ordering::Relaxed))
    }

    /// Total trips across every armed point.
    pub fn total_trips(&self) -> u64 {
        self.lock()
            .values()
            .map(|state| state.trips.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot every armed point's plan and counters, in name order.
    pub fn status(&self) -> Vec<PointStatus> {
        self.lock()
            .iter()
            .map(|(name, state)| PointStatus {
                name: name.clone(),
                plan: state.plan,
                hits: state.hits.load(Ordering::Relaxed),
                trips: state.trips.load(Ordering::Relaxed),
            })
            .collect()
    }

    fn hit_armed(&self, point: &str) -> Option<Fault> {
        // Clone the Arc out and drop the lock before evaluating: a
        // `panic` action must not unwind while holding the registry lock,
        // and a `delay` action must not stall every other failpoint.
        let state = {
            let points = self.lock();
            Arc::clone(points.get(point)?)
        };
        let hit_index = state.hits.fetch_add(1, Ordering::Relaxed);
        let plan = state.plan;
        if hit_index < plan.after {
            return None;
        }
        let one_in = plan.one_in.max(1);
        if one_in > 1 {
            let draw = splitmix64(state.seed ^ hit_index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            if !draw.is_multiple_of(one_in) {
                return None;
            }
        }
        // Claim one of the remaining trips, or stand down at the cap.
        if state
            .trips
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |trips| {
                (trips < plan.max).then(|| trips + 1)
            })
            .is_err()
        {
            return None;
        }
        match plan.action {
            FaultAction::Error => Some(Fault::Error),
            FaultAction::Partial(n) => Some(Fault::Partial(n)),
            FaultAction::Delay(millis) => {
                std::thread::sleep(Duration::from_millis(millis));
                None
            }
            FaultAction::Panic => {
                panic!("injected fault: failpoint '{point}' tripped on hit {hit_index}")
            }
        }
    }
}

/// The process-global [`FaultRegistry`].
pub fn registry() -> &'static FaultRegistry {
    static REGISTRY: OnceLock<FaultRegistry> = OnceLock::new();
    REGISTRY.get_or_init(FaultRegistry::default)
}

/// Evaluate the failpoint `point` against the global registry.  Prefer
/// the [`fail_point!`] macro at call sites.
#[inline]
pub fn hit(point: &str) -> Option<Fault> {
    if !armed() {
        return None;
    }
    registry().hit_armed(point)
}

/// Parse `spec` and arm it globally.  Returns the number of armed points.
pub fn arm_from_spec(spec: &str) -> Result<usize, FaultSpecError> {
    let plan = FaultPlan::parse(spec)?;
    registry().arm(&plan);
    Ok(plan.len())
}

/// Arm from the `DSKETCH_FAULTS` environment variable, if set and
/// non-empty.  Returns the number of armed points (0 when the variable is
/// absent — the registry is left untouched in that case).
pub fn arm_from_env() -> Result<usize, FaultSpecError> {
    match std::env::var("DSKETCH_FAULTS") {
        Ok(spec) if !spec.trim().is_empty() => arm_from_spec(&spec),
        _ => Ok(0),
    }
}

/// Disarm every point in the global registry.
pub fn disarm_all() {
    registry().disarm_all();
}

/// A `Write` adapter that injects `error` / `partial` faults from `point`
/// into the stream: `partial:N` lets `N` bytes of the offending write
/// through (flushed, so they reach the underlying file — a genuinely torn
/// write), then fails.
#[derive(Debug)]
pub struct FaultWriter<W> {
    inner: W,
    point: &'static str,
}

impl<W: Write> FaultWriter<W> {
    /// Wrap `inner`, injecting faults armed under `point`.
    pub fn new(inner: W, point: &'static str) -> FaultWriter<W> {
        FaultWriter { inner, point }
    }

    /// Unwrap the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match hit(self.point) {
            None => self.inner.write(buf),
            Some(Fault::Partial(n)) => {
                let keep = usize::try_from(n).unwrap_or(usize::MAX).min(buf.len());
                self.inner.write_all(&buf[..keep])?;
                self.inner.flush()?;
                Err(Fault::Partial(n).io_error(self.point))
            }
            Some(fault) => Err(fault.io_error(self.point)),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A `Read` adapter that injects `error` / `partial` faults from `point`:
/// `partial:N` serves at most `N` more bytes, then reports end-of-stream —
/// a short read, exactly what a truncated file or dropped connection
/// produces.
#[derive(Debug)]
pub struct FaultReader<R> {
    inner: R,
    point: &'static str,
    /// Once a partial fault trips, the remaining byte budget.
    remaining: Option<u64>,
}

impl<R: Read> FaultReader<R> {
    /// Wrap `inner`, injecting faults armed under `point`.
    pub fn new(inner: R, point: &'static str) -> FaultReader<R> {
        FaultReader {
            inner,
            point,
            remaining: None,
        }
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.remaining.is_none() {
            match hit(self.point) {
                None => {}
                Some(Fault::Partial(n)) => self.remaining = Some(n),
                Some(fault) => return Err(fault.io_error(self.point)),
            }
        }
        match self.remaining {
            None => self.inner.read(buf),
            Some(0) => Ok(0),
            Some(budget) => {
                let cap = usize::try_from(budget).unwrap_or(usize::MAX).min(buf.len());
                let got = self.inner.read(&mut buf[..cap])?;
                self.remaining = Some(budget - got as u64);
                Ok(got)
            }
        }
    }
}

/// FNV-1a over `bytes` — stable, dependency-free point-name hashing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer — the workspace's standard deterministic mixer.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global: every test that arms it holds this
    /// lock and disarms before releasing it.
    static SERIAL: Mutex<()> = Mutex::new(());

    struct Armed<'a> {
        _serial: std::sync::MutexGuard<'a, ()>,
    }

    impl<'a> Armed<'a> {
        fn with(plan: &FaultPlan) -> Armed<'a> {
            let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
            registry().arm(plan);
            Armed { _serial: guard }
        }
    }

    impl Drop for Armed<'_> {
        fn drop(&mut self) {
            disarm_all();
        }
    }

    #[test]
    fn disarmed_points_cost_nothing_and_return_none() {
        let _guard = Armed::with(&FaultPlan::new(0)); // empty plan = disarmed
        assert!(!armed());
        assert_eq!(fail_point!("anything.at.all"), None);
        assert_eq!(registry().trips("anything.at.all"), 0);
    }

    #[test]
    fn error_plan_trips_every_hit_and_counts() {
        let plan = FaultPlan::new(1).with_point("unit.point", PointPlan::new(FaultAction::Error));
        let _guard = Armed::with(&plan);
        assert!(armed());
        for _ in 0..5 {
            assert_eq!(fail_point!("unit.point"), Some(Fault::Error));
        }
        assert_eq!(fail_point!("unarmed.point"), None);
        assert_eq!(registry().trips("unit.point"), 5);
        let status = registry().status();
        assert_eq!(status.len(), 1);
        assert_eq!(status[0].hits, 5);
        assert_eq!(status[0].trips, 5);
    }

    #[test]
    fn kth_hit_after_and_max_schedule_exactly() {
        let plan = FaultPlan::new(9)
            .with_point("unit.kth", PointPlan::on_hit(3, FaultAction::Error).max(2));
        let _guard = Armed::with(&plan);
        let outcomes: Vec<bool> = (0..6).map(|_| hit("unit.kth").is_some()).collect();
        // Hits 1–2 skipped (`after = 2`), hits 3–4 trip (`max = 2`), rest pass.
        assert_eq!(outcomes, [false, false, true, true, false, false]);
        assert_eq!(registry().trips("unit.kth"), 2);
    }

    #[test]
    fn one_in_draws_are_deterministic_and_roughly_proportional() {
        let run = |seed: u64| -> Vec<usize> {
            let plan = FaultPlan::new(seed)
                .with_point("unit.ratio", PointPlan::new(FaultAction::Error).one_in(4));
            let _guard = Armed::with(&plan);
            (0..400).filter(|_| hit("unit.ratio").is_some()).collect()
        };
        let first = run(42);
        let again = run(42);
        assert_eq!(first, again, "same seed must replay the same trips");
        assert!(
            (50..=150).contains(&first.len()),
            "1-in-4 of 400 hits should trip near 100, got {}",
            first.len()
        );
        let other = run(43);
        assert_ne!(first, other, "different seeds should differ");
    }

    #[test]
    fn spec_round_trips_through_the_grammar() {
        let plan = FaultPlan::parse(
            "seed=7; store.save.rename=error,one_in=4 ;net.read.frame=delay:25,after=2,max=3;\
             serve.dispatch=panic;store.save.write=partial:100",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.len(), 4);
        let expected = FaultPlan::new(7)
            .with_point(
                "store.save.rename",
                PointPlan::new(FaultAction::Error).one_in(4),
            )
            .with_point(
                "net.read.frame",
                PointPlan::new(FaultAction::Delay(25)).after(2).max(3),
            )
            .with_point("serve.dispatch", PointPlan::new(FaultAction::Panic))
            .with_point(
                "store.save.write",
                PointPlan::new(FaultAction::Partial(100)),
            );
        assert_eq!(plan, expected);
    }

    #[test]
    fn bad_specs_are_typed_errors_naming_the_clause() {
        for (spec, needle) in [
            ("store.save", "no '='"),
            ("seed=banana", "not a u64"),
            ("p=explode", "unknown action"),
            ("p=delay", "delay:MILLIS"),
            ("p=error,when=5", "unknown modifier"),
            ("p=error,one_in", "key=value"),
            ("=error", "no point name"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err().to_string();
            assert!(err.contains(needle), "spec '{spec}' → '{err}'");
        }
    }

    #[test]
    fn fault_writer_cuts_after_the_partial_budget() {
        let plan = FaultPlan::new(0)
            .with_point("unit.writer", PointPlan::on_hit(2, FaultAction::Partial(3)));
        let _guard = Armed::with(&plan);
        let mut sink = Vec::new();
        let mut writer = FaultWriter::new(&mut sink, "unit.writer");
        writer.write_all(b"abcd").unwrap(); // hit 1 passes
        let err = writer.write_all(b"efgh").unwrap_err(); // hit 2 cuts after 3 bytes
        assert!(err.to_string().contains("unit.writer"));
        assert_eq!(sink, b"abcdefg");
    }

    #[test]
    fn fault_reader_serves_the_budget_then_reports_eof() {
        let plan =
            FaultPlan::new(0).with_point("unit.reader", PointPlan::new(FaultAction::Partial(5)));
        let _guard = Armed::with(&plan);
        let mut reader = FaultReader::new(&b"0123456789"[..], "unit.reader");
        let mut out = Vec::new();
        reader.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"01234", "short read: budget served, then EOF");
    }

    #[test]
    fn panic_action_panics_with_the_point_name() {
        let plan = FaultPlan::new(0).with_point("unit.panic", PointPlan::new(FaultAction::Panic));
        let _guard = Armed::with(&plan);
        let result = std::panic::catch_unwind(|| hit("unit.panic"));
        let message = *result
            .expect_err("panic action must panic")
            .downcast::<String>()
            .expect("panic payload is the formatted message");
        assert!(message.contains("unit.panic"), "{message}");
        // The trip was recorded before the unwind.
        assert_eq!(registry().trips("unit.panic"), 1);
    }

    #[test]
    fn delay_action_sleeps_then_passes() {
        let plan = FaultPlan::new(0)
            .with_point("unit.delay", PointPlan::on_hit(1, FaultAction::Delay(30)));
        let _guard = Armed::with(&plan);
        let started = std::time::Instant::now();
        assert_eq!(hit("unit.delay"), None, "delay continues normally");
        assert!(started.elapsed() >= Duration::from_millis(25));
        assert_eq!(registry().trips("unit.delay"), 1);
    }

    #[test]
    fn arm_replaces_and_env_arming_parses() {
        let _guard = Armed::with(
            &FaultPlan::new(0).with_point("unit.old", PointPlan::new(FaultAction::Error)),
        );
        assert_eq!(
            arm_from_spec("unit.new=error,max=1").unwrap(),
            1,
            "arming replaces the previous set"
        );
        assert_eq!(registry().trips("unit.old"), 0);
        assert_eq!(hit("unit.old"), None, "old point is gone");
        assert_eq!(hit("unit.new"), Some(Fault::Error));
        assert_eq!(hit("unit.new"), None, "max=1 respected");
    }
}
