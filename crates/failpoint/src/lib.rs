//! webvuln-failpoint — deterministic, named fail-point injection.
//!
//! The paper's pipeline survives 201 weeks of crawling because no single
//! failure — a malformed page, a torn write, a crashed worker — can take
//! the study down. Proving that requires *injecting* those failures at
//! every interesting site and showing the run converges anyway. This
//! crate provides the injection primitive: a registry of named sites
//! (`"store.segment.mid_write"`, `"phase.crawl"`, …) that production code
//! probes via [`check()`] / the [`failpoint!`] macro, and that tests arm
//! with an [`Action`] — return an error, panic (simulating a crash), or
//! charge a virtual delay.
//!
//! Design rules, matching the rest of the workspace:
//!
//! - **Dependency-free.** Plain `std` only, like `webvuln-exec` and
//!   `webvuln-telemetry`.
//! - **Zero-cost when disarmed.** [`check()`] is a single relaxed atomic
//!   load and a predictable branch while no site is armed; the registry
//!   mutex is touched only once something is armed.
//! - **Deterministic.** Nothing here reads the wall clock or an RNG: a
//!   site fires on every hit, on its nth hit or for one key, so a given
//!   arming injects the same failures every run, on any thread count.
//!
//! Sites are declared by the crates that own them (each exports a
//! `FAILPOINTS: &[&str]` catalog; `webvuln-core` unions them), so the
//! chaos harness can enumerate every registered site and prove
//! crash-recovery at each one.
//!
//! The crate also carries the workspace's property-testing helper, the
//! [`check`](mod@check) module: the same seeded, clock-free style applied
//! to generating test inputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What an armed fail-point does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// [`check()`] returns `Err(`[`Injected`]`)` — for sites with an error
    /// channel (the store writer, the checkpoint loop).
    Error,
    /// [`check()`] panics — simulating a crash mid-operation. The chaos
    /// harness catches the unwind at the run boundary and resumes.
    Panic,
    /// [`check()`] returns `Ok(ns)`: a virtual delay for the caller to
    /// charge against its task cost or clock (never slept).
    Delay(u64),
}

/// The error a fired [`Action::Error`] fail-point injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: &'static str,
    /// The key the probing call supplied (often a domain or week).
    pub(crate) key: String,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key.is_empty() {
            write!(f, "injected failure at fail-point '{}'", self.site)
        } else {
            write!(
                f,
                "injected failure at fail-point '{}' (key '{}')",
                self.site, self.key
            )
        }
    }
}

impl std::error::Error for Injected {}

/// SplitMix64-style mixer over a seed and a text key. Mirrors the hash
/// idiom used by `webvuln-exec` scheduling and `webvuln-net` fault
/// derivation so injection shares the repo's one PRNG style.
fn mix(seed: u64, text: &str) -> u64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// One armed site: the action plus optional firing filters.
#[derive(Debug, Clone)]
struct Arm {
    action: Action,
    /// Fire only on exactly the nth hit of the site (1-based).
    nth: Option<u64>,
    /// Fire only when the probing call's key equals this.
    key: Option<String>,
}

#[derive(Debug)]
struct Inner {
    arms: BTreeMap<&'static str, Arm>,
    hits: BTreeMap<&'static str, u64>,
}

/// A registry of armed fail-points.
///
/// Production code probes the process-wide instance through the free
/// functions ([`check()`], [`arm`], [`reset`], …); unit tests that want
/// isolation can hold their own `Failpoints`.
#[derive(Debug)]
pub(crate) struct Failpoints {
    /// Fast-path gate: false whenever no site is armed, so [`check()`]
    /// costs one relaxed load on the fault-free path.
    active: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Failpoints {
    fn default() -> Self {
        Failpoints::new()
    }
}

impl Failpoints {
    /// An empty registry with nothing armed.
    pub(crate) const fn new() -> Failpoints {
        Failpoints {
            active: AtomicBool::new(false),
            inner: Mutex::new(Inner {
                arms: BTreeMap::new(),
                hits: BTreeMap::new(),
            }),
        }
    }

    /// A poisoned mutex only means some thread panicked *while armed*
    /// (by design, for [`Action::Panic`] the lock is released first);
    /// the registry data is a plain map, always safe to keep using.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn install(&self, site: &'static str, arm: Arm) {
        let mut inner = self.lock();
        inner.arms.insert(site, arm);
        self.active.store(true, Ordering::Release);
    }

    /// [`arm`] on this registry.
    pub(crate) fn arm(&self, site: &'static str, action: Action) {
        self.install(
            site,
            Arm {
                action,
                nth: None,
                key: None,
            },
        );
    }

    /// [`arm_nth`] on this registry.
    pub(crate) fn arm_nth(&self, site: &'static str, nth: u64, action: Action) {
        self.install(
            site,
            Arm {
                action,
                nth: Some(nth.max(1)),
                key: None,
            },
        );
    }

    /// [`arm_key`] on this registry.
    pub(crate) fn arm_key(&self, site: &'static str, key: &str, action: Action) {
        self.install(
            site,
            Arm {
                action,
                nth: None,
                key: Some(key.to_string()),
            },
        );
    }

    /// [`disarm`] on this registry.
    pub(crate) fn disarm(&self, site: &str) {
        let mut inner = self.lock();
        inner.arms.remove(site);
        if inner.arms.is_empty() {
            self.active.store(false, Ordering::Release);
        }
    }

    /// [`reset`] on this registry.
    pub(crate) fn reset(&self) {
        let mut inner = self.lock();
        inner.arms.clear();
        inner.hits.clear();
        self.active.store(false, Ordering::Release);
    }

    /// [`hits`] on this registry.
    pub(crate) fn hits(&self, site: &str) -> u64 {
        self.lock().hits.get(site).copied().unwrap_or(0)
    }

    /// [`check()`] on this registry.
    #[inline]
    pub(crate) fn check(&self, site: &'static str, key: &str) -> Result<u64, Injected> {
        if !self.active.load(Ordering::Relaxed) {
            return Ok(0);
        }
        self.check_armed(site, key)
    }

    /// [`hit`] on this registry.
    #[inline]
    pub(crate) fn hit(&self, site: &'static str, key: &str) -> u64 {
        match self.check(site, key) {
            Ok(ns) => ns,
            Err(injected) => panic!("{injected}"),
        }
    }

    #[cold]
    fn check_armed(&self, site: &'static str, key: &str) -> Result<u64, Injected> {
        let mut inner = self.lock();
        let hit = {
            let count = inner.hits.entry(site).or_insert(0);
            *count += 1;
            *count
        };
        let Some(arm) = inner.arms.get(site) else {
            return Ok(0);
        };
        if let Some(want) = &arm.key {
            if want != key {
                return Ok(0);
            }
        }
        if let Some(nth) = arm.nth {
            if hit != nth {
                return Ok(0);
            }
        }
        match arm.action {
            Action::Delay(ns) => Ok(ns),
            Action::Error => Err(Injected {
                site,
                key: key.to_string(),
            }),
            Action::Panic => {
                // Release the lock before unwinding: a caught panic must
                // leave the registry usable (reset + resume).
                drop(inner);
                panic!("failpoint '{site}' injected panic (key '{key}')");
            }
        }
    }
}

/// The process-wide registry behind the free functions and the
/// [`failpoint!`] macro.
static GLOBAL: Failpoints = Failpoints::new();

/// Arms `site` to fire `action` on every hit.
pub fn arm(site: &'static str, action: Action) {
    GLOBAL.arm(site, action);
}

/// Arms `site` to fire `action` on exactly its `nth` hit (1-based).
/// Lets the chaos harness crash a per-week site mid-run rather than
/// on first touch.
pub fn arm_nth(site: &'static str, nth: u64, action: Action) {
    GLOBAL.arm_nth(site, nth, action);
}

/// Arms `site` to fire `action` only for hits whose key equals
/// `key` — e.g. one specific domain at `"crawl.fetch"`.
pub fn arm_key(site: &'static str, key: &str, action: Action) {
    GLOBAL.arm_key(site, key, action);
}

/// Disarms one site, leaving others armed.
pub fn disarm(site: &str) {
    GLOBAL.disarm(site);
}

/// Disarms every site and clears hit counts.
pub fn reset() {
    GLOBAL.reset();
}

/// Times `site` has been probed while the registry was active.
pub fn hits(site: &str) -> u64 {
    GLOBAL.hits(site)
}

/// Probes `site`. On the fault-free path (nothing armed) this is one
/// relaxed atomic load returning `Ok(0)`.
///
/// When `site` is armed and its filters match: [`Action::Delay`]
/// returns `Ok(ns)` for the caller to charge, [`Action::Error`]
/// returns `Err(`[`Injected`]`)`, and [`Action::Panic`] panics with
/// a deterministic message (the registry lock is released first, so
/// a caught unwind leaves the registry healthy).
#[inline]
pub fn check(site: &'static str, key: &str) -> Result<u64, Injected> {
    GLOBAL.check(site, key)
}

/// Like [`check()`], but escalates [`Action::Error`] to a panic — for
/// probe sites that have no error channel (phase boundaries, worker
/// loops).
#[inline]
pub fn hit(site: &'static str, key: &str) -> u64 {
    GLOBAL.hit(site, key)
}

/// Probes a named fail-point on the global registry:
/// `failpoint!("store.segment.mid_write")` or
/// `failpoint!("crawl.fetch", domain)`. Expands to [`check()`] — the call
/// site decides how to route the injected error / charge the delay.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::check($site, "")
    };
    ($site:expr, $key:expr) => {
        $crate::check($site, $key)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_check_is_ok_zero() {
        let fp = Failpoints::new();
        assert_eq!(fp.check("some.site", ""), Ok(0));
        // Hits are not tracked while disarmed: the fast path never locks.
        assert_eq!(fp.hits("some.site"), 0);
    }

    #[test]
    fn error_action_injects() {
        let fp = Failpoints::new();
        fp.arm("a.site", Action::Error);
        let err = fp.check("a.site", "k").unwrap_err();
        assert_eq!(err.site, "a.site");
        assert_eq!(err.key, "k");
        assert!(err.to_string().contains("a.site"));
        // Other sites stay clean.
        assert_eq!(fp.check("b.site", ""), Ok(0));
    }

    #[test]
    fn delay_action_returns_nanoseconds() {
        let fp = Failpoints::new();
        fp.arm("slow.site", Action::Delay(1_500));
        assert_eq!(fp.check("slow.site", ""), Ok(1_500));
    }

    #[test]
    fn panic_action_panics_and_leaves_registry_usable() {
        let fp = Failpoints::new();
        fp.arm("crash.site", Action::Panic);
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _ = fp.check("crash.site", "w3");
        }));
        let payload = unwound.unwrap_err();
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(text.contains("crash.site"), "payload: {text}");
        assert!(text.contains("w3"), "payload: {text}");
        // The lock was released before the panic: arming still works.
        fp.reset();
        assert_eq!(fp.check("crash.site", ""), Ok(0));
    }

    #[test]
    fn key_filter_fires_only_on_matching_key() {
        let fp = Failpoints::new();
        fp.arm_key("keyed.site", "evil.example", Action::Error);
        assert_eq!(fp.check("keyed.site", "good.example"), Ok(0));
        assert!(fp.check("keyed.site", "evil.example").is_err());
        assert_eq!(fp.check("keyed.site", "other.example"), Ok(0));
    }

    #[test]
    fn nth_filter_fires_exactly_once() {
        let fp = Failpoints::new();
        fp.arm_nth("nth.site", 3, Action::Error);
        assert_eq!(fp.check("nth.site", ""), Ok(0));
        assert_eq!(fp.check("nth.site", ""), Ok(0));
        assert!(fp.check("nth.site", "").is_err());
        assert_eq!(fp.check("nth.site", ""), Ok(0));
        assert_eq!(fp.hits("nth.site"), 4);
    }

    #[test]
    fn disarm_and_reset_clear_state() {
        let fp = Failpoints::new();
        fp.arm("x.site", Action::Error);
        fp.arm("y.site", Action::Error);
        fp.disarm("x.site");
        assert_eq!(fp.check("x.site", ""), Ok(0));
        assert!(fp.check("y.site", "").is_err());
        fp.reset();
        assert_eq!(fp.check("y.site", ""), Ok(0));
        assert_eq!(fp.hits("y.site"), 0);
    }

    #[test]
    fn hits_count_probes_while_active() {
        let fp = Failpoints::new();
        fp.arm("other.site", Action::Error);
        // An unarmed site is still counted while the registry is active:
        // the chaos harness uses this to prove a site was reached.
        for _ in 0..5 {
            assert_eq!(fp.check("watched.site", ""), Ok(0));
        }
        assert_eq!(fp.hits("watched.site"), 5);
    }

    #[test]
    fn hit_escalates_error_to_panic() {
        let fp = Failpoints::new();
        fp.arm("no.channel", Action::Error);
        let unwound = catch_unwind(AssertUnwindSafe(|| fp.hit("no.channel", "")));
        assert!(unwound.is_err());
        fp.reset();
        assert_eq!(fp.hit("no.channel", ""), 0);
    }

    #[test]
    fn concurrent_probes_do_not_deadlock() {
        let fp = Failpoints::new();
        fp.arm_key("par.site", "none", Action::Error);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1_000 {
                        assert_eq!(fp.check("par.site", &format!("k{i}")), Ok(0));
                    }
                });
            }
        });
        assert_eq!(fp.hits("par.site"), 4_000);
    }

    #[test]
    fn global_macro_round_trip() {
        // Serialized against other global-registry tests by touching a
        // dedicated site name nothing else arms.
        reset();
        arm_key("macro.site", "only", Action::Delay(7));
        assert_eq!(failpoint!("macro.site"), Ok(0));
        assert_eq!(failpoint!("macro.site", "only"), Ok(7));
        disarm("macro.site");
        assert_eq!(failpoint!("macro.site", "only"), Ok(0));
        reset();
    }

    #[test]
    fn mix_is_stable_and_key_sensitive() {
        assert_eq!(mix(1, "a"), mix(1, "a"));
        assert_ne!(mix(1, "a"), mix(2, "a"));
        assert_ne!(mix(1, "a"), mix(1, "b"));
    }
}
