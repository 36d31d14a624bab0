//! Cluster configuration: shard count, task-placement policy, per-shard
//! core configuration and the interconnect cost model.

use crate::fault::FaultPlan;
use picos_core::PicosConfig;
use picos_hil::{HilCostModel, LinkModel};
use std::fmt;

/// Home shard of a dependence address.
///
/// Fibonacci hashing on the block address (low 6 bits stripped, like the
/// DCT routing inside one Picos), taking the high bits of the product so
/// stride-aligned block addresses spread instead of funnelling to shard 0.
/// A different odd multiplier than [`picos_core::dct_for_addr`] keeps the
/// shard index statistically independent of the within-shard DCT index.
pub fn home_shard(addr: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let h = (addr >> 6).wrapping_mul(0xD1B5_4A32_D192_ED03) >> 32;
    h as usize % shards
}

/// Task-placement policy of the front-end Distributor.
///
/// Dependence *homing* is always by address hash — that is what makes the
/// sharded Dependence Memories sound. The policy only decides which shard
/// *executes* a task (and therefore which fragments stay local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ShardPolicy {
    /// Place the task on the home shard of its first dependence, the
    /// producer-follows-data default (dependence-free tasks round-robin).
    #[default]
    AddrHash,
    /// Place tasks round-robin by creation index, ignoring their data.
    /// Balances execution load at the price of cross-shard registrations
    /// for almost every dependence.
    RoundRobin,
    /// Place the task on the shard homing the most of its dependences
    /// (ties to the lowest shard; dependence-free tasks round-robin).
    /// Minimizes interconnect traffic per task.
    LocalityAffine,
}

impl ShardPolicy {
    /// All placement policies, in documentation order.
    pub const ALL: [ShardPolicy; 3] = [
        ShardPolicy::AddrHash,
        ShardPolicy::RoundRobin,
        ShardPolicy::LocalityAffine,
    ];

    /// Stable lower-case label (CLI and result files).
    pub fn name(self) -> &'static str {
        match self {
            ShardPolicy::AddrHash => "addr-hash",
            ShardPolicy::RoundRobin => "round-robin",
            ShardPolicy::LocalityAffine => "locality",
        }
    }

    /// Parses a policy label as accepted by the CLI.
    pub fn parse(s: &str) -> Option<ShardPolicy> {
        match s {
            "addr-hash" | "addr" => Some(ShardPolicy::AddrHash),
            "round-robin" | "rr" => Some(ShardPolicy::RoundRobin),
            "locality" | "locality-affine" => Some(ShardPolicy::LocalityAffine),
            _ => None,
        }
    }
}

impl fmt::Display for ShardPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of Picos shards.
    pub shards: usize,
    /// Task-placement policy of the Distributor.
    pub policy: ShardPolicy,
    /// Core configuration of **each** shard (a cluster of `n` shards has
    /// `n` times this capacity).
    pub picos: PicosConfig,
    /// Total workers, split as evenly as possible across shards (every
    /// shard needs at least one — tasks execute where they are placed).
    pub workers: usize,
    /// Inter-shard interconnect cost model (per-destination ingress ports,
    /// each following the AXI-bus delivery/service discipline).
    pub link: LinkModel,
    /// TS-output-to-worker-start dispatch cost; defaults to the HIL
    /// platform's HW-only dispatch so a one-shard cluster is
    /// cycle-identical to `HilMode::HwOnly`.
    pub dispatch: u64,
    /// Deterministic fault schedule, or `None` for the fault-free engine.
    /// Attaching a plan arms the interconnect's ack/timeout/retry protocol
    /// and (for inherently global fault bookkeeping) drains through the
    /// serial pump instead of the epoch loop. A zero-fault plan is
    /// bit-identical to `None`.
    pub faults: Option<FaultPlan>,
}

impl ClusterConfig {
    /// A balanced-core cluster of `shards` shards sharing `workers`
    /// workers, with the default interconnect and placement policy.
    pub fn balanced(shards: usize, workers: usize) -> Self {
        ClusterConfig {
            shards,
            policy: ShardPolicy::default(),
            picos: PicosConfig::balanced(),
            workers,
            link: LinkModel::interconnect(),
            dispatch: HilCostModel::default().dispatch,
            faults: None,
        }
    }

    /// The same cluster under a deterministic fault schedule (see
    /// [`ClusterConfig::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Workers assigned to shard `s` (even split, earlier shards take the
    /// remainder).
    pub fn shard_workers(&self, s: usize) -> usize {
        let base = self.workers / self.shards;
        base + usize::from(s < self.workers % self.shards)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint: at
    /// least one shard, at most 4096 (result files use small ids), at
    /// least one worker per shard, and a valid per-shard core config.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("cluster needs at least one shard".into());
        }
        if self.shards > 4096 {
            return Err("at most 4096 shards".into());
        }
        if self.workers < self.shards {
            return Err(format!(
                "{} workers cannot cover {} shards (each shard executes \
                 its placed tasks and needs at least one worker)",
                self.workers, self.shards
            ));
        }
        if let Some(plan) = &self.faults {
            plan.validate(self)?;
        }
        self.picos.validate()
    }
}

/// Errors from a cluster run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The configuration failed [`ClusterConfig::validate`].
    Config(String),
    /// The cluster stopped with unfinished work (an engine bug).
    Stalled {
        /// Tasks executed before the stall.
        executed: usize,
        /// Total tasks in the trace.
        total: usize,
        /// Time of the stall.
        at: u64,
    },
    /// An interconnect message exhausted its retry budget and the run
    /// could not complete without it (fault injection; see
    /// [`crate::FaultPlan`]).
    LinkTimeout {
        /// Sending shard.
        from: u16,
        /// Destination shard.
        to: u16,
        /// Cycle the final retry deadline fired.
        at: u64,
        /// Resends attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Config(m) => write!(f, "cluster configuration: {m}"),
            ClusterError::Stalled {
                executed,
                total,
                at,
            } => write!(
                f,
                "cluster stalled at cycle {at} after {executed}/{total} tasks"
            ),
            ClusterError::LinkTimeout {
                from,
                to,
                at,
                attempts,
            } => write!(
                f,
                "interconnect message {from}->{to} lost after {attempts} \
                 retries (gave up at cycle {at})"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_shard_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8] {
            for i in 0..1000u64 {
                let addr = 0x4000_0000 + i * 0x40;
                let h = home_shard(addr, shards);
                assert!(h < shards);
                assert_eq!(h, home_shard(addr, shards));
            }
        }
        assert_eq!(home_shard(0xdead_beef, 1), 0);
    }

    #[test]
    fn home_shard_spreads_strided_blocks() {
        // 64-byte-strided block addresses (the generators' layouts) must
        // not funnel to one shard.
        let shards = 4;
        let mut counts = [0usize; 4];
        for i in 0..4096u64 {
            counts[home_shard(0x4000_0000 + i * 0x40, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (700..1400).contains(&c),
                "shard {s} got {c} of 4096 addresses"
            );
        }
    }

    #[test]
    fn worker_split_covers_all_workers() {
        let cfg = ClusterConfig {
            shards: 3,
            ..ClusterConfig::balanced(3, 8)
        };
        let per: Vec<usize> = (0..3).map(|s| cfg.shard_workers(s)).collect();
        assert_eq!(per.iter().sum::<usize>(), 8);
        assert_eq!(per, vec![3, 3, 2]);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(ClusterConfig::balanced(0, 4).validate().is_err());
        assert!(ClusterConfig::balanced(4, 3).validate().is_err());
        assert!(ClusterConfig::balanced(4, 4).validate().is_ok());
        let mut cfg = ClusterConfig::balanced(2, 4);
        cfg.picos.tm_entries = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn policy_labels_roundtrip() {
        for p in ShardPolicy::ALL {
            assert_eq!(ShardPolicy::parse(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(ShardPolicy::parse("rr"), Some(ShardPolicy::RoundRobin));
        assert_eq!(ShardPolicy::parse("bogus"), None);
        assert_eq!(ShardPolicy::default(), ShardPolicy::AddrHash);
    }
}
