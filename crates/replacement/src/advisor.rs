//! The expert scorer behind online adaptive replacement: shadow
//! simulations of candidate policies scored by EWMA hit ratio, with
//! switching-cost hysteresis (EEvA-style expert selection; ARC's
//! ghost-list adaptivity is the classical single-policy ancestor).
//!
//! The advisor is deliberately *offline* machinery run on a *sampled*
//! stream: it never touches the live hit path. A driver (the server's
//! advisor thread, or a bench loop) drains the
//! [`SampleTap`](crate::adaptive::SampleTap), feeds
//! [`Advisor::observe`], and acts on [`Advisor::nominate`] by building
//! the winning policy and hot-swapping it into the pool.

use crate::cache_sim::CacheSim;
use crate::traits::{PageId, ReplacementPolicy};
use crate::PolicyKind;

/// Tuning for the expert scorer.
#[derive(Debug, Clone, Copy)]
pub struct AdvisorConfig {
    /// Frames each shadow simulation models. Smaller than the live pool
    /// is fine (and cheap): relative ranking is what matters.
    pub shadow_frames: usize,
    /// Sampled accesses per scoring window.
    pub window: u64,
    /// EWMA smoothing factor applied to each window's hit ratio.
    pub ewma_alpha: f64,
    /// Relative margin a challenger's EWMA must exceed the incumbent's
    /// by (e.g. `0.05` = 5%) — the switching-cost hysteresis.
    pub hysteresis: f64,
    /// Consecutive windows a challenger must hold its lead before it is
    /// nominated (dwell time).
    pub dwell: u32,
    /// 1-in-N sampling period the tap should use. Carried here so the
    /// advisor and tap are configured together.
    pub sample_period: u64,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            shadow_frames: 256,
            window: 2048,
            ewma_alpha: 0.4,
            hysteresis: 0.05,
            dwell: 2,
            sample_period: 8,
        }
    }
}

/// One candidate policy's shadow simulation plus its score state.
struct ShadowExpert {
    kind: PolicyKind,
    sim: CacheSim<Box<dyn ReplacementPolicy>>,
    window_hits: u64,
    /// EWMA of per-window hit ratio; `None` until the first window
    /// closes.
    ewma: Option<f64>,
}

impl ShadowExpert {
    fn new(kind: PolicyKind, frames: usize) -> Self {
        ShadowExpert {
            kind,
            sim: CacheSim::new(kind.build(frames)),
            window_hits: 0,
            ewma: None,
        }
    }
}

/// A point-in-time view of one expert, for STATS/METRICS.
#[derive(Debug, Clone)]
pub struct ExpertScore {
    pub policy: PolicyKind,
    /// EWMA hit ratio (0 until the first window closes).
    pub ewma: f64,
    /// Lifetime shadow hit ratio.
    pub lifetime_hit_ratio: f64,
}

/// A point-in-time view of the advisor, for STATS/METRICS and bench
/// reports.
#[derive(Debug, Clone)]
pub struct AdvisorSnapshot {
    pub incumbent: PolicyKind,
    /// Leading challenger, if any expert currently beats the incumbent
    /// by the hysteresis margin.
    pub leader: Option<PolicyKind>,
    /// Consecutive windows the leader has held its lead.
    pub lead_streak: u32,
    pub samples: u64,
    pub windows: u64,
    pub adoptions: u64,
    pub experts: Vec<ExpertScore>,
}

/// Expert-selection advisor: one shadow cache per candidate policy.
pub struct Advisor {
    cfg: AdvisorConfig,
    experts: Vec<ShadowExpert>,
    incumbent: PolicyKind,
    window_total: u64,
    samples: u64,
    windows: u64,
    adoptions: u64,
    /// Challenger currently on a winning streak, with its streak length.
    streak: Option<(PolicyKind, u32)>,
}

impl Advisor {
    /// An advisor over `candidates`, with `incumbent` currently live.
    /// `incumbent` is added to the expert set if missing (its shadow
    /// score is the baseline challengers must beat).
    pub fn new(candidates: &[PolicyKind], incumbent: PolicyKind, cfg: AdvisorConfig) -> Self {
        let mut kinds: Vec<PolicyKind> = Vec::new();
        for &k in candidates.iter().chain(std::iter::once(&incumbent)) {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
        Advisor {
            experts: kinds
                .into_iter()
                .map(|k| ShadowExpert::new(k, cfg.shadow_frames))
                .collect(),
            incumbent,
            cfg,
            window_total: 0,
            samples: 0,
            windows: 0,
            adoptions: 0,
            streak: None,
        }
    }

    /// Feed one sampled page access to every shadow.
    pub fn observe(&mut self, page: PageId) {
        for e in &mut self.experts {
            if e.sim.access(page) {
                e.window_hits += 1;
            }
        }
        self.samples += 1;
        self.window_total += 1;
        if self.window_total >= self.cfg.window {
            self.close_window();
        }
    }

    fn close_window(&mut self) {
        let total = self.window_total as f64;
        for e in &mut self.experts {
            let ratio = e.window_hits as f64 / total;
            e.ewma = Some(match e.ewma {
                Some(prev) => self.cfg.ewma_alpha * ratio + (1.0 - self.cfg.ewma_alpha) * prev,
                None => ratio,
            });
            e.window_hits = 0;
        }
        self.window_total = 0;
        self.windows += 1;

        // Hysteresis: the best non-incumbent must beat the incumbent's
        // EWMA by the relative margin, and sustain it `dwell` windows.
        let incumbent_score = self.score_of(self.incumbent);
        let bar = incumbent_score * (1.0 + self.cfg.hysteresis);
        let leader = self
            .experts
            .iter()
            .filter(|e| e.kind != self.incumbent)
            .filter(|e| e.ewma.unwrap_or(0.0) > bar)
            .max_by(|a, b| {
                a.ewma
                    .unwrap_or(0.0)
                    .partial_cmp(&b.ewma.unwrap_or(0.0))
                    .expect("hit ratios are finite")
            })
            .map(|e| e.kind);
        self.streak = match (leader, self.streak) {
            (Some(k), Some((prev, n))) if k == prev => Some((k, n + 1)),
            (Some(k), _) => Some((k, 1)),
            (None, _) => None,
        };
    }

    fn score_of(&self, kind: PolicyKind) -> f64 {
        self.experts
            .iter()
            .find(|e| e.kind == kind)
            .and_then(|e| e.ewma)
            .unwrap_or(0.0)
    }

    /// The challenger to switch to, if one has sustainably beaten the
    /// incumbent. Call [`Advisor::adopt`] after actually swapping.
    pub fn nominate(&self) -> Option<PolicyKind> {
        match self.streak {
            Some((k, n)) if n >= self.cfg.dwell => Some(k),
            _ => None,
        }
    }

    /// Record that `kind` is now the live policy.
    pub fn adopt(&mut self, kind: PolicyKind) {
        self.incumbent = kind;
        self.streak = None;
        self.adoptions += 1;
    }

    /// The policy the advisor believes is live.
    pub fn incumbent(&self) -> PolicyKind {
        self.incumbent
    }

    /// Sampled accesses observed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Point-in-time view for STATS/METRICS.
    pub fn snapshot(&self) -> AdvisorSnapshot {
        AdvisorSnapshot {
            incumbent: self.incumbent,
            leader: self.streak.map(|(k, _)| k),
            lead_streak: self.streak.map(|(_, n)| n).unwrap_or(0),
            samples: self.samples,
            windows: self.windows,
            adoptions: self.adoptions,
            experts: self
                .experts
                .iter()
                .map(|e| ExpertScore {
                    policy: e.kind,
                    ewma: e.ewma.unwrap_or(0.0),
                    lifetime_hit_ratio: e.sim.stats().hit_ratio(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AdvisorConfig {
        AdvisorConfig {
            shadow_frames: 16,
            window: 64,
            ewma_alpha: 0.5,
            hysteresis: 0.05,
            dwell: 2,
            sample_period: 1,
        }
    }

    #[test]
    fn stationary_workload_nominates_nothing() {
        // A hot set that fits every shadow: all experts score ~1.0, no
        // challenger clears the hysteresis bar.
        let mut adv = Advisor::new(&[PolicyKind::Lru, PolicyKind::TwoQ], PolicyKind::Lru, cfg());
        for i in 0..4096u64 {
            adv.observe(i % 8);
        }
        assert_eq!(adv.nominate(), None);
        let snap = adv.snapshot();
        assert_eq!(snap.incumbent, PolicyKind::Lru);
        assert!(snap.windows >= 32);
        assert!(snap.experts.iter().all(|e| e.ewma > 0.9));
    }

    #[test]
    fn scan_storm_nominates_a_scan_resistant_policy() {
        // Hot set of 8 pages + a rolling scan much larger than the
        // shadow: LRU's reuse distance blows past 16 frames and it
        // thrashes (0% hits), while LIRS keeps the hot set resident as
        // LIR blocks and scores the full 25% hot fraction. The
        // challenger must clear hysteresis for `dwell` windows, then be
        // nominated.
        let mut adv = Advisor::new(&[PolicyKind::Lirs], PolicyKind::Lru, cfg());
        let mut scan = 1_000u64;
        for i in 0..32_768u64 {
            if i % 4 == 0 {
                adv.observe((i / 4) % 8);
            } else {
                adv.observe(scan);
                scan += 1;
            }
        }
        assert_eq!(adv.nominate(), Some(PolicyKind::Lirs));
        let snap = adv.snapshot();
        assert_eq!(snap.leader, Some(PolicyKind::Lirs));
        assert!(snap.lead_streak >= 2);

        adv.adopt(PolicyKind::Lirs);
        assert_eq!(adv.incumbent(), PolicyKind::Lirs);
        assert_eq!(adv.nominate(), None, "adoption resets the streak");
        assert_eq!(adv.snapshot().adoptions, 1);
    }

    #[test]
    fn hysteresis_blocks_marginal_challengers() {
        // A 64-page cycle through 16 shadow frames: LRU and CLOCK both
        // score nothing, so the scores tie, the relative margin is never
        // cleared and no nomination happens.
        let mut adv = Advisor::new(&[PolicyKind::Lru], PolicyKind::Clock, cfg());
        for i in 0..8192u64 {
            adv.observe((i * 7) % 64);
        }
        assert_eq!(adv.nominate(), None);
    }
}
