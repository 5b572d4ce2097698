//! Deterministic fault injection for chaos-testing the campaign layer.
//!
//! A [`FaultPlan`] is a *seeded schedule* of failures covering the two
//! trust boundaries a campaign crosses:
//!
//! * the **cell-cache filesystem** — torn entry writes, bit flips, and
//!   journal loss ([`super::cache::CellCache`]);
//! * **cell execution itself** — panicking cells (exercising the
//!   executor's `catch_unwind` isolation) and delayed cells.
//!
//! Every injected fault is a pure function of `(plan seed, fault kind,
//! instance key)` via [`bwap::derive_seed`] — never of wall-clock time,
//! scheduling, or thread count — so a chaos run is exactly replayable:
//! the same plan against the same campaign injects the same faults at
//! the same places. The plan's seed defaults to the campaign seed
//! (`--faults` without `seed=` reuses it), making `campaign --seed N
//! --faults SPEC` a single replayable coordinate.
//!
//! The determinism contract (see `docs/ROBUSTNESS.md`): for any plan
//! made of *recoverable* faults (everything except [`FaultKind::CellPanic`]),
//! a campaign that completes produces a deterministic report
//! **byte-identical** to the fault-free run — faults may move cells
//! between cached and executed, but never change a result. `CellPanic`
//! is the deliberate exception: a panicking cell must surface as an
//! error cell, not kill the campaign.
//!
//! ```
//! use bwap_runtime::campaign::faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::parse("cache-flip=0.5,cell-delay=1.0:2,seed=9", 42).unwrap();
//! // Decisions are deterministic: same plan, same key, same answer.
//! let a = plan.decide(FaultKind::CacheFlip, "0123456789abcdef").is_some();
//! let b = plan.decide(FaultKind::CacheFlip, "0123456789abcdef").is_some();
//! assert_eq!(a, b);
//! // A rate-1.0 rule always fires and carries its parameter.
//! let delay = plan.decide(FaultKind::CellDelay, "cell-key").unwrap();
//! assert_eq!(delay.param_ms, 2);
//! ```

use bwap::derive_seed;

/// One class of injectable failure. The textual labels double as the
/// `--faults` spec vocabulary and as the hash domain separator, so two
/// kinds can never share decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Tear a cache entry write: only a prefix of the entry reaches disk
    /// (detected as a miss on the next load).
    CacheTorn,
    /// Flip one byte of a cache entry on store (detected as a miss).
    CacheFlip,
    /// Drop a journal append, surfacing as a counted journal write
    /// failure ([`super::cache::CellCache::journal_errors`]).
    JournalDrop,
    /// Panic inside the cell computation (isolated by the executor's
    /// `catch_unwind`; becomes an error cell).
    CellPanic,
    /// Sleep `param_ms` inside the cell computation before running it.
    CellDelay,
}

/// Every kind, in spec order — the parser's vocabulary and the doc table.
pub const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::CacheTorn,
    FaultKind::CacheFlip,
    FaultKind::JournalDrop,
    FaultKind::CellPanic,
    FaultKind::CellDelay,
];

impl FaultKind {
    /// Stable spec label (also the hash domain separator).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CacheTorn => "cache-torn",
            FaultKind::CacheFlip => "cache-flip",
            FaultKind::JournalDrop => "journal-drop",
            FaultKind::CellPanic => "cell-panic",
            FaultKind::CellDelay => "cell-delay",
        }
    }

    fn from_label(s: &str) -> Option<FaultKind> {
        ALL_KINDS.iter().copied().find(|k| k.label() == s)
    }

    /// Whether the contract guarantees byte-identical reports under this
    /// kind. Only [`FaultKind::CellPanic`] changes a result (an error
    /// cell instead of a value); everything else is recoverable.
    pub fn recoverable(&self) -> bool {
        !matches!(self, FaultKind::CellPanic)
    }
}

/// The largest millisecond parameter [`FaultPlan::parse`] accepts. A
/// `cell-delay` of a minute per cell already outlasts any chaos test;
/// without a ceiling one flag value could hang a campaign for good.
pub const MAX_FAULT_PARAM_MS: u64 = 60_000;

/// One injected fault, as returned by [`FaultPlan::decide`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// What to inject.
    pub kind: FaultKind,
    /// The rule's millisecond parameter (the `cell-delay` duration; 0 for
    /// kinds without one).
    pub param_ms: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct FaultRule {
    kind: FaultKind,
    rate: f64,
    param_ms: u64,
}

/// A seeded, replayable fault schedule. Build one with [`FaultPlan::new`]
/// and [`FaultPlan::with`], or parse the `--faults` spec grammar with
/// [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (injects nothing) rooted at `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, rules: Vec::new() }
    }

    /// The plan's seed (recorded for replay).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Add a rule: inject `kind` with probability `rate` (clamped to
    /// `[0, 1]`). Later rules for the same kind replace earlier ones.
    pub fn with(self, kind: FaultKind, rate: f64) -> FaultPlan {
        self.with_param(kind, rate, 0)
    }

    /// [`FaultPlan::with`] plus a millisecond parameter (the `cell-delay`
    /// duration), clamped to [`MAX_FAULT_PARAM_MS`] so that
    /// [`FaultPlan::to_spec`] always parses back.
    pub fn with_param(mut self, kind: FaultKind, rate: f64, param_ms: u64) -> FaultPlan {
        self.rules.retain(|r| r.kind != kind);
        let param_ms = param_ms.min(MAX_FAULT_PARAM_MS);
        self.rules.push(FaultRule { kind, rate: rate.clamp(0.0, 1.0), param_ms });
        self
    }

    /// True when no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(|r| r.rate <= 0.0)
    }

    /// True when every rule is recoverable — the byte-identity contract
    /// applies to the whole plan.
    pub fn recoverable(&self) -> bool {
        self.rules.iter().all(|r| r.rate <= 0.0 || r.kind.recoverable())
    }

    /// Parse the `--faults` spec grammar: comma-separated
    /// `kind=rate[:param_ms]` terms plus an optional `seed=N` term; the
    /// plan seed defaults to `default_seed` (the campaign seed) so chaos
    /// runs are replayable from the campaign coordinates alone. A
    /// `param_ms` above [`MAX_FAULT_PARAM_MS`] is an error.
    ///
    /// Example: `cache-flip=0.5,journal-drop=0.25,cell-delay=1.0:20,seed=7`.
    pub fn parse(spec: &str, default_seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(default_seed);
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (name, value) =
                term.split_once('=').ok_or_else(|| format!("bad fault term {term:?}"))?;
            if name == "seed" {
                plan.seed = value.parse().map_err(|_| format!("bad fault seed {value:?}"))?;
                continue;
            }
            let kind = FaultKind::from_label(name)
                .ok_or_else(|| format!("unknown fault kind {name:?}"))?;
            let (rate_str, param_ms) = match value.split_once(':') {
                Some((r, p)) => {
                    let ms =
                        p.parse().ok().filter(|&ms| ms <= MAX_FAULT_PARAM_MS).ok_or_else(|| {
                            format!(
                                "bad fault param {p:?} (expected milliseconds from 0 to \
                                 {MAX_FAULT_PARAM_MS})"
                            )
                        })?;
                    (r, ms)
                }
                None => (value, 0),
            };
            let rate: f64 = rate_str
                .parse()
                .ok()
                .filter(|r: &f64| (0.0..=1.0).contains(r))
                .ok_or_else(|| format!("bad fault rate {rate_str:?} (expected [0, 1])"))?;
            plan = plan.with_param(kind, rate, param_ms);
        }
        Ok(plan)
    }

    /// Render the plan back into the `--faults` spec grammar, canonically:
    /// rules in [`ALL_KINDS`] order, `:param_ms` only when non-zero, and an
    /// explicit trailing `seed=` term so the string replays identically
    /// whatever campaign seed it is parsed under. `to_spec` is a fixpoint
    /// of [`FaultPlan::parse`] — parsing the output (under any default
    /// seed) and serializing again returns the same string — which makes
    /// it the replay coordinate to log for a chaos run.
    pub fn to_spec(&self) -> String {
        let mut terms: Vec<String> = ALL_KINDS
            .iter()
            .filter_map(|k| self.rules.iter().find(|r| r.kind == *k))
            .map(|r| {
                if r.param_ms == 0 {
                    format!("{}={}", r.kind.label(), r.rate)
                } else {
                    format!("{}={}:{}", r.kind.label(), r.rate, r.param_ms)
                }
            })
            .collect();
        terms.push(format!("seed={}", self.seed));
        terms.join(",")
    }

    /// Decide whether `kind` fires for the instance named by `key`. Pure:
    /// the answer depends only on `(seed, kind, key)`.
    pub fn decide(&self, kind: FaultKind, key: &str) -> Option<Fault> {
        let rule = self.rules.iter().find(|r| r.kind == kind)?;
        if rule.rate <= 0.0 {
            return None;
        }
        // 53 uniform bits -> [0, 1); rate 1.0 therefore always fires.
        let h = derive_seed(self.seed, &format!("fault:{}:{key}", kind.label()));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        (u < rule.rate).then_some(Fault { kind, param_ms: rule.param_ms })
    }

    /// A deterministic draw in `[0, n)` parameterizing a fired fault
    /// (which byte of a cache entry to flip) — domain-separated from [`FaultPlan::decide`] so the draw
    /// never correlates with whether the fault fires.
    pub fn roll(&self, kind: FaultKind, key: &str, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        derive_seed(self.seed, &format!("roll:{}:{key}", kind.label())) % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar_round_trips_kinds_rates_and_seed() {
        let plan = FaultPlan::parse("cache-flip=0.5, journal-drop=0.25,cell-delay=1:20,seed=7", 42)
            .unwrap();
        assert_eq!(plan.seed(), 7);
        assert!(!plan.is_empty());
        assert!(plan.recoverable());
        assert_eq!(plan.decide(FaultKind::CellDelay, "x").unwrap().param_ms, 20);
        // The ceiling itself is accepted.
        let at_cap = FaultPlan::parse(&format!("cell-delay=1:{MAX_FAULT_PARAM_MS}"), 0).unwrap();
        assert_eq!(at_cap.decide(FaultKind::CellDelay, "x").unwrap().param_ms, MAX_FAULT_PARAM_MS);
        // Unlisted kinds never fire.
        assert_eq!(plan.decide(FaultKind::CellPanic, "x"), None);
        // The campaign seed is the default.
        assert_eq!(FaultPlan::parse("cache-torn=0.1", 42).unwrap().seed(), 42);
        // An empty spec is the empty plan.
        assert!(FaultPlan::parse("", 0).unwrap().is_empty());
    }

    #[test]
    fn to_spec_is_canonical_and_parse_inverts_it() {
        // Construction order does not matter: serialization is in
        // ALL_KINDS order with an explicit seed, params only when set.
        let plan = FaultPlan::new(7)
            .with_param(FaultKind::CellDelay, 1.0, 20)
            .with(FaultKind::CacheFlip, 0.5);
        assert_eq!(plan.to_spec(), "cache-flip=0.5,cell-delay=1:20,seed=7");
        // Parsing under a *different* default seed restores the plan
        // exactly — the explicit seed= term wins.
        let back = FaultPlan::parse(&plan.to_spec(), 999).unwrap();
        assert_eq!(back.seed(), 7);
        assert_eq!(back.to_spec(), plan.to_spec());
        // The empty plan round-trips too (a bare seed term).
        let empty = FaultPlan::new(3);
        assert_eq!(empty.to_spec(), "seed=3");
        assert!(FaultPlan::parse(&empty.to_spec(), 0).unwrap().is_empty());
        // The builder clamps a parameter past the ceiling, so its spec
        // still parses.
        let long = FaultPlan::new(0).with_param(FaultKind::CellDelay, 1.0, u64::MAX);
        assert_eq!(FaultPlan::parse(&long.to_spec(), 0).unwrap(), long);
    }

    #[test]
    fn parse_rejects_malformed_terms() {
        for bad in [
            "warp=0.5",
            "cache-flip",
            "cache-flip=2.0",
            "cache-flip=-1",
            "seed=x",
            "cell-delay=0.5:xms",
            "cell-delay=1:60001",
            "cell-delay=1:18446744073709551615",
            "cell-delay=1:18446744073709551616",
        ] {
            assert!(FaultPlan::parse(bad, 0).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_scoped() {
        let a = FaultPlan::new(1).with(FaultKind::CacheFlip, 0.5);
        let b = FaultPlan::new(2).with(FaultKind::CacheFlip, 0.5);
        let keys: Vec<String> = (0..256).map(|i| format!("k{i}")).collect();
        let fire_a: Vec<bool> =
            keys.iter().map(|k| a.decide(FaultKind::CacheFlip, k).is_some()).collect();
        let again: Vec<bool> =
            keys.iter().map(|k| a.decide(FaultKind::CacheFlip, k).is_some()).collect();
        assert_eq!(fire_a, again, "same plan, same decisions");
        let fire_b: Vec<bool> =
            keys.iter().map(|k| b.decide(FaultKind::CacheFlip, k).is_some()).collect();
        assert_ne!(fire_a, fire_b, "different seeds decorrelate the schedule");
        // Rate 0.5 should fire roughly half the time.
        let hits = fire_a.iter().filter(|&&f| f).count();
        assert!((64..=192).contains(&hits), "rate 0.5 fired {hits}/256 times");
    }

    #[test]
    fn rate_bounds_always_and_never_fire() {
        let always = FaultPlan::new(3).with(FaultKind::CellPanic, 1.0);
        let never = FaultPlan::new(3).with(FaultKind::CellPanic, 0.0);
        for i in 0..64 {
            let k = format!("cell{i}");
            assert!(always.decide(FaultKind::CellPanic, &k).is_some());
            assert!(never.decide(FaultKind::CellPanic, &k).is_none());
        }
        assert!(never.is_empty());
        assert!(!always.recoverable());
    }

    #[test]
    fn kinds_are_domain_separated() {
        let plan =
            FaultPlan::new(9).with(FaultKind::CacheTorn, 0.5).with(FaultKind::CacheFlip, 0.5);
        let keys: Vec<String> = (0..256).map(|i| format!("k{i}")).collect();
        let t: Vec<bool> =
            keys.iter().map(|k| plan.decide(FaultKind::CacheTorn, k).is_some()).collect();
        let f: Vec<bool> =
            keys.iter().map(|k| plan.decide(FaultKind::CacheFlip, k).is_some()).collect();
        assert_ne!(t, f, "two kinds at the same rate must not share decisions");
    }

    #[test]
    fn rolls_are_deterministic_bounded_and_independent_of_decide() {
        let plan = FaultPlan::new(5).with(FaultKind::CacheFlip, 1e-9);
        for n in [1u64, 2, 7, 100] {
            let r = plan.roll(FaultKind::CacheFlip, "entry", n);
            assert!(r < n);
            assert_eq!(r, plan.roll(FaultKind::CacheFlip, "entry", n));
        }
        assert_eq!(plan.roll(FaultKind::CacheFlip, "entry", 0), 0);
    }

    #[test]
    fn labels_round_trip() {
        for k in ALL_KINDS {
            assert_eq!(FaultKind::from_label(k.label()), Some(k));
        }
        assert_eq!(FaultKind::from_label("nope"), None);
    }
}
