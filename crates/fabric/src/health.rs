//! Per-rank health vector (`gaspi_state_vec`).
//!
//! GASPI exposes fault information through `gaspi_state_vec`: a vector
//! with one entry per rank, marked healthy or corrupt, refreshed by the
//! runtime as timeouts and queue errors are observed. The simulated
//! equivalent is fed from the installed [`diomp_sim::FaultPlan`]: any
//! rank whose
//! NIC endpoint appears in a degradation window is reported `Degraded`
//! (with the worst bandwidth factor), and a dead link (factor 0) marks
//! the rank `Dead`. Collectives consult this vector to blacklist rails
//! and re-price regime crossovers against the bandwidth they will
//! actually observe.

use std::collections::BTreeMap;

use diomp_sim::ResourceId;

/// Health classification of one rank, GASPI `gaspi_state_vec` style but
/// with an extra `Degraded` level so collectives can re-price rather
/// than only avoid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankHealth {
    /// All of the rank's links run at nominal bandwidth.
    Healthy,
    /// Some link touching the rank is degraded to `factor_milli`/1000 of
    /// nominal bandwidth (worst window over the run).
    Degraded {
        /// Worst bandwidth factor in thousandths of nominal (1..=999).
        factor_milli: u32,
    },
    /// A link touching the rank is marked dead (`GASPI_STATE_CORRUPT`).
    Dead,
}

impl RankHealth {
    /// Bandwidth factor this health level implies, in thousandths of
    /// nominal. `Dead` reports 0.
    pub fn factor_milli(self) -> u32 {
        match self {
            RankHealth::Healthy => 1000,
            RankHealth::Degraded { factor_milli } => factor_milli,
            RankHealth::Dead => 0,
        }
    }
}

/// The state vector: per-rank health plus the raw per-link factors it
/// was derived from.
#[derive(Clone, Debug)]
pub struct HealthVec {
    ranks: Vec<RankHealth>,
    links: BTreeMap<u32, u32>,
}

impl HealthVec {
    /// An all-healthy vector for `nranks` ranks (no fault plan installed).
    pub fn healthy(nranks: usize) -> HealthVec {
        HealthVec { ranks: vec![RankHealth::Healthy; nranks], links: BTreeMap::new() }
    }

    /// Record an observed bandwidth factor for a link, keeping the worst.
    /// Links not owned by any rank (e.g. switch trunks) still show up via
    /// [`HealthVec::link_factor_milli`] even though no rank degrades.
    pub fn observe_link(&mut self, res: ResourceId, factor_milli: u32) {
        let e = self.links.entry(res.index() as u32).or_insert(1000);
        if factor_milli < *e {
            *e = factor_milli;
        }
    }

    /// Record an observed bandwidth factor for a rank, keeping the worst.
    pub fn observe(&mut self, rank: usize, factor_milli: u32) {
        let cur = self.ranks[rank].factor_milli();
        if factor_milli < cur {
            self.ranks[rank] = match factor_milli {
                0 => RankHealth::Dead,
                f => RankHealth::Degraded { factor_milli: f },
            };
        }
    }

    /// Health of one rank.
    pub fn rank_health(&self, rank: usize) -> RankHealth {
        self.ranks[rank]
    }

    /// Number of ranks covered.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }

    /// Worst factor recorded for a specific link (1000 when untouched).
    pub fn link_factor_milli(&self, res: ResourceId) -> u32 {
        self.links.get(&(res.index() as u32)).copied().unwrap_or(1000)
    }

    /// True when any link is recorded dead (factor 0) — the cheap test
    /// that lets communicator construction skip its dead-rail and
    /// dead-server-NIC filters on a fabric with nothing to blacklist.
    pub fn any_dead_link(&self) -> bool {
        self.links.values().any(|&f| f == 0)
    }

    /// The worst factor across every rank still alive, used to re-price
    /// collectives: 1000 when nothing is degraded. Dead ranks are
    /// excluded — they are blacklisted, not priced.
    pub fn worst_live_factor_milli(&self) -> u32 {
        self.ranks.iter().map(|h| h.factor_milli()).filter(|&f| f > 0).min().unwrap_or(1000)
    }

    /// True when any rank is reported `Dead`.
    pub fn any_dead(&self) -> bool {
        self.ranks.iter().any(|h| matches!(h, RankHealth::Dead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_vector_reports_nominal_everywhere() {
        let v = HealthVec::healthy(4);
        assert_eq!(v.nranks(), 4);
        assert_eq!(v.rank_health(2), RankHealth::Healthy);
        assert_eq!(v.worst_live_factor_milli(), 1000);
        assert!(!v.any_dead());
    }

    #[test]
    fn observe_keeps_worst_and_zero_means_dead() {
        let mut v = HealthVec::healthy(2);
        v.observe(0, 600);
        v.observe(0, 800); // better than current, ignored
        assert_eq!(v.rank_health(0), RankHealth::Degraded { factor_milli: 600 });
        v.observe(1, 0);
        assert_eq!(v.rank_health(1), RankHealth::Dead);
        assert!(v.any_dead());
        // Dead ranks are excluded from the pricing factor.
        assert_eq!(v.worst_live_factor_milli(), 600);
    }
}
