//! Sweep helpers: run grids of (system × processor-count) simulations
//! and collect series, so experiment binaries and tests share one
//! well-tested driver instead of hand-rolled loops.

use bpw_core::SystemKind;

use crate::engine::{simulate, RunReport, SimParams, SystemSpec};
use crate::profile::{HardwareProfile, WorkloadParams};

/// One system's results across a processor sweep.
#[derive(Debug, Clone)]
pub struct Series {
    /// System swept.
    pub system: SystemKind,
    /// `(cpus, report)` pairs in ascending processor order.
    pub points: Vec<(usize, RunReport)>,
}

impl Series {
    /// Report at exactly `cpus`, if present.
    pub fn at(&self, cpus: usize) -> Option<&RunReport> {
        self.points.iter().find(|(c, _)| *c == cpus).map(|(_, r)| r)
    }

    /// Throughput of the last (largest-CPU) point.
    #[cfg(test)]
    fn final_throughput(&self) -> f64 {
        self.points
            .last()
            .map(|(_, r)| r.throughput_tps)
            .unwrap_or(0.0)
    }

    /// Parallel speedup from the first to the last point.
    #[cfg(test)]
    fn speedup(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some((_, a)), Some((_, b))) if a.throughput_tps > 0.0 => {
                b.throughput_tps / a.throughput_tps
            }
            _ => 0.0,
        }
    }
}

/// A full grid: every Table I system over `cpu_points`.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// One series per system, in `SystemKind::ALL` order.
    pub series: Vec<Series>,
    /// Workload name.
    pub workload: String,
    /// Machine name.
    pub machine: &'static str,
}

impl SweepResult {
    /// Series for one system.
    pub fn system(&self, kind: SystemKind) -> &Series {
        self.series
            .iter()
            .find(|s| s.system == kind)
            .expect("all systems swept")
    }
}

/// Run the paper's five systems across `cpu_points` for one workload.
pub fn sweep_systems(
    hw: HardwareProfile,
    workload: &WorkloadParams,
    cpu_points: &[usize],
    horizon_ms: u64,
) -> SweepResult {
    let series = SystemKind::ALL
        .iter()
        .map(|&kind| Series {
            system: kind,
            points: cpu_points
                .iter()
                .map(|&cpus| {
                    let mut p = SimParams::new(hw, cpus, SystemSpec::new(kind), workload.clone());
                    p.horizon_ms = horizon_ms;
                    (cpus, simulate(p))
                })
                .collect(),
        })
        .collect();
    SweepResult {
        series,
        workload: workload.name.clone(),
        machine: hw.name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_grid() {
        let r = sweep_systems(
            HardwareProfile::altix350(),
            &WorkloadParams::tablescan(),
            &[1, 4],
            60,
        );
        assert_eq!(r.series.len(), SystemKind::ALL.len());
        for s in &r.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.at(1).is_some() && s.at(4).is_some());
            assert!(s.final_throughput() > 0.0);
        }
        assert_eq!(r.machine, "Altix350");
    }

    #[test]
    fn speedup_reflects_scaling() {
        let r = sweep_systems(
            HardwareProfile::altix350(),
            &WorkloadParams::dbt1(),
            &[1, 8],
            120,
        );
        let clock = r.system(SystemKind::Clock).speedup();
        let q = r.system(SystemKind::LockPerAccess).speedup();
        assert!(
            clock > q,
            "lock-free must out-scale lock-per-access ({clock} vs {q})"
        );
        assert!(clock > 6.0, "clock should scale near-linearly to 8 cpus");
    }
}
