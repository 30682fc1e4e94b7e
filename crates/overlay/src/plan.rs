//! The deterministic striped-tree planner.
//!
//! Given the session directory's membership (member 0 is the source) and
//! per-member uplink budgets, the planner computes `k` push trees rooted
//! at the source such that every relay-capable member is **interior in
//! exactly one tree** and a pure leaf in the other `k - 1` — the
//! SplitStream shape: a single crash interrupts only the one stripe its
//! victim forwards, 1/k of the stream for its subtree, while the other
//! k - 1 stripes keep flowing through trees where the victim forwarded
//! nothing.
//!
//! Construction is breadth-first under explicit uplink budgets: a member
//! may parent at most `min(degree, uplink_cps / stripe_cps)` children
//! (all of them in its interior tree, since it forwards nothing
//! elsewhere), so the plan never promises bandwidth admission would
//! refuse. Interiors are dealt round-robin from a seeded shuffle — the
//! only randomness, and it is replayed from the seed, so equal inputs
//! yield byte-identical plans.
//!
//! With every budget at `degree` or better the breadth-first fill packs
//! each tree as a `degree`-ary heap: interiors land within
//! `ceil(log_d N)` hops and leaves at most one hop deeper than the
//! shallowest spare slot, keeping the measured depth at or under
//! [`TreePlan::depth_bound`] — the Deterministic Near-Optimal P2P Streaming bound
//! the acceptance soak asserts.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Planner tunables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanConfig {
    /// Number of striped trees `k`. Segment `seq` travels tree
    /// `seq % k`.
    pub trees: usize,
    /// Maximum children per node `d`.
    pub degree: usize,
    /// Seed for interior-assignment tie-breaking.
    pub seed: u64,
    /// Cell rate of one stripe copy — what forwarding one child costs a
    /// member's uplink.
    pub stripe_cps: u64,
}

/// Why a plan could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Fewer than two members, or zero trees/degree/stripe rate.
    Degenerate,
    /// Tree `tree` ran out of uplink capacity before every member was
    /// attached.
    Capacity {
        /// The tree that could not absorb all members.
        tree: usize,
    },
    /// The source's uplink cannot feed even one child per tree.
    SourceUplink,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Degenerate => {
                write!(f, "degenerate overlay (need 2+ members, k,d,rate > 0)")
            }
            PlanError::Capacity { tree } => {
                write!(
                    f,
                    "tree {tree} out of uplink capacity before all members attached"
                )
            }
            PlanError::SourceUplink => write!(f, "source uplink cannot feed one child per tree"),
        }
    }
}

/// The computed overlay: `k` trees over `n` members, every edge within
/// budget, every relay interior in exactly one tree.
#[derive(Debug, Clone)]
pub struct TreePlan {
    n: usize,
    k: usize,
    d: usize,
    /// `parent[tree][member]`; `None` for the source.
    parent: Vec<Vec<Option<usize>>>,
    /// `children[tree][member]`, in attachment order.
    children: Vec<Vec<Vec<usize>>>,
    /// `depth[tree][member]` in hops from the source.
    depth: Vec<Vec<u32>>,
    /// The tree each member is interior in; `None` for the source
    /// (interior everywhere) and for leaf-only members.
    interior_in: Vec<Option<usize>>,
    /// `backup[tree][member]`: the grandparent, the survivor an orphan
    /// is grafted onto when its parent dies. `None` when the parent is
    /// the source itself.
    backup: Vec<Vec<Option<usize>>>,
}

/// Smallest `L` with `d^L >= n` — the depth bound `ceil(log_d n)` the
/// acceptance soak measures against.
pub(crate) fn depth_bound(n: usize, d: usize) -> u32 {
    if n <= 1 || d <= 1 {
        return if n <= 1 { 0 } else { n as u32 - 1 };
    }
    let mut l = 0u32;
    let mut reach = 1usize;
    while reach < n {
        reach = reach.saturating_mul(d);
        l += 1;
    }
    l
}

/// One open attachment slot during the breadth-first fill.
struct Slot {
    node: usize,
    remaining: u64,
}

impl TreePlan {
    /// Computes the plan over the members' transmit budgets in
    /// cells/second — the unit the session admission controller charges
    /// (`Capabilities::link_cps`). Member 0 is the source; everyone else
    /// is a viewer that may be asked to relay.
    ///
    /// # Errors
    ///
    /// [`PlanError::Degenerate`] on empty/zero inputs,
    /// [`PlanError::SourceUplink`] when the source cannot feed every
    /// tree, and [`PlanError::Capacity`] when some tree runs out of
    /// budgeted uplink slots before every member has a parent.
    pub(crate) fn compute(uplinks: &[u64], cfg: &PlanConfig) -> Result<TreePlan, PlanError> {
        let n = uplinks.len();
        let k = cfg.trees;
        let d = cfg.degree;
        if n < 2 || k == 0 || d == 0 || cfg.stripe_cps == 0 {
            return Err(PlanError::Degenerate);
        }
        // The source pushes every stripe: its per-tree child capacity
        // divides its uplink across the k stripes.
        let src_cap = (uplinks[0] / (cfg.stripe_cps * k as u64)).min(d as u64);
        if src_cap == 0 {
            return Err(PlanError::SourceUplink);
        }
        let cap: Vec<u64> = uplinks
            .iter()
            .map(|cps| (cps / cfg.stripe_cps).min(d as u64))
            .collect();

        // Seeded shuffle of the relay-capable viewers, then a round-robin
        // deal: shuffled[j] is interior in tree j % k. The shuffle is the
        // tie-break — equal seeds replay the same deal byte-identically.
        let mut capable: Vec<usize> = (1..n).filter(|&i| cap[i] >= 1).collect();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        for j in (1..capable.len()).rev() {
            let swap = rng.gen_range(0..=j);
            capable.swap(j, swap);
        }
        let mut interior_in: Vec<Option<usize>> = vec![None; n];
        let mut interiors: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (j, &m) in capable.iter().enumerate() {
            let t = j % k;
            interior_in[m] = Some(t);
            interiors[t].push(m);
        }

        let mut parent = vec![vec![None; n]; k];
        let mut children = vec![vec![Vec::new(); n]; k];
        let mut depth = vec![vec![0u32; n]; k];
        for (t, tree_interiors) in interiors.iter().enumerate() {
            // Breadth-first fill: pop the earliest slot with spare
            // budget; interiors first (they open new slots), then every
            // remaining member as a leaf, so leaves land in the
            // shallowest spare capacity.
            let mut slots = std::collections::VecDeque::new();
            slots.push_back(Slot {
                node: 0,
                remaining: src_cap,
            });
            let mut attach = |v: usize,
                              opens: Option<u64>,
                              slots: &mut std::collections::VecDeque<Slot>|
             -> bool {
                loop {
                    let Some(front) = slots.front_mut() else {
                        return false;
                    };
                    if front.remaining == 0 {
                        slots.pop_front();
                        continue;
                    }
                    front.remaining -= 1;
                    let p = front.node;
                    parent[t][v] = Some(p);
                    depth[t][v] = depth[t][p] + 1;
                    children[t][p].push(v);
                    if let Some(capacity) = opens {
                        slots.push_back(Slot {
                            node: v,
                            remaining: capacity,
                        });
                    }
                    return true;
                }
            };
            for &u in tree_interiors {
                if !attach(u, Some(cap[u]), &mut slots) {
                    return Err(PlanError::Capacity { tree: t });
                }
            }
            for (v, interior) in interior_in.iter().enumerate().skip(1) {
                if *interior == Some(t) {
                    continue;
                }
                if !attach(v, None, &mut slots) {
                    return Err(PlanError::Capacity { tree: t });
                }
            }
        }

        let mut backup = vec![vec![None; n]; k];
        for (t, parents) in parent.iter().enumerate() {
            for v in 1..n {
                backup[t][v] = match parents[v] {
                    Some(p) if p != 0 => parents[p],
                    _ => None,
                };
            }
        }

        Ok(TreePlan {
            n,
            k,
            d,
            parent,
            children,
            depth,
            interior_in,
            backup,
        })
    }

    /// Member count, source included.
    pub fn members(&self) -> usize {
        self.n
    }

    /// Number of striped trees.
    pub(crate) fn trees(&self) -> usize {
        self.k
    }

    /// Parent of `member` in `tree` (`None` for the source).
    pub(crate) fn parent(&self, tree: usize, member: usize) -> Option<usize> {
        self.parent[tree][member]
    }

    /// Children of `member` in `tree`, in attachment order.
    pub(crate) fn children(&self, tree: usize, member: usize) -> &[usize] {
        &self.children[tree][member]
    }

    /// The tree `member` is interior in; `None` for the source and for
    /// leaf-only members.
    pub fn interior_tree(&self, member: usize) -> Option<usize> {
        self.interior_in[member]
    }

    /// The grandparent graft target for `member` in `tree` — the
    /// survivor that adopts it if its parent dies. `None` when the
    /// parent is the source.
    pub(crate) fn backup(&self, tree: usize, member: usize) -> Option<usize> {
        self.backup[tree][member]
    }

    /// Total children of `member` across every tree — the copy count its
    /// uplink admission must cover.
    pub fn fanout(&self, member: usize) -> usize {
        (0..self.k).map(|t| self.children[t][member].len()).sum()
    }

    /// Deepest member in `tree`.
    pub(crate) fn max_depth(&self, tree: usize) -> u32 {
        (0..self.n).map(|v| self.depth[tree][v]).max().unwrap_or(0)
    }

    /// Deepest member across all trees — the hop count the latency
    /// budget must cover.
    pub fn max_depth_overall(&self) -> u32 {
        (0..self.k).map(|t| self.max_depth(t)).max().unwrap_or(0)
    }

    /// `ceil(log_d n)` for this plan's shape.
    pub fn depth_bound(&self) -> u32 {
        depth_bound(self.n, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize, uplink: u64) -> Vec<u64> {
        vec![uplink; n]
    }

    fn cfg(k: usize, d: usize, seed: u64) -> PlanConfig {
        PlanConfig {
            trees: k,
            degree: d,
            seed,
            stripe_cps: 1_000,
        }
    }

    #[test]
    fn every_relay_is_interior_in_exactly_one_tree() {
        let plan = TreePlan::compute(&members(64, 16_000), &cfg(4, 4, 7)).unwrap();
        for v in 1..64 {
            let t = plan.interior_tree(v).expect("all capable here");
            for other in 0..4 {
                if other != t {
                    assert!(
                        plan.children(other, v).is_empty(),
                        "member {v} has children outside its interior tree"
                    );
                }
            }
        }
        // Every member is attached in every tree.
        for t in 0..4 {
            for v in 1..64 {
                assert!(plan.parent(t, v).is_some());
            }
        }
    }

    #[test]
    fn depth_stays_within_the_log_bound() {
        for (n, k, d) in [(64, 4, 4), (256, 3, 4), (1024, 4, 8), (100, 2, 3)] {
            // The source affords d children in every tree; viewers afford d.
            let mut m = members(n, 1_000 * d as u64);
            m[0] = 1_000 * (k * d) as u64;
            let plan = TreePlan::compute(&m, &cfg(k, d, 11)).unwrap();
            assert!(
                plan.max_depth_overall() <= plan.depth_bound(),
                "n={n} k={k} d={d}: depth {} > bound {}",
                plan.max_depth_overall(),
                plan.depth_bound()
            );
        }
    }

    #[test]
    fn equal_seeds_replay_byte_identically_and_seeds_matter() {
        let m = members(40, 4_000);
        let plan = |seed| format!("{:?}", TreePlan::compute(&m, &cfg(3, 4, seed)).unwrap());
        let (a, b) = (plan(5), plan(5));
        assert_eq!(a, b);
        let c = plan(6);
        assert_ne!(a, c, "different seeds should break ties differently");
    }

    #[test]
    fn uplink_budget_caps_fanout() {
        // Viewers can afford 2 children each even though degree is 4.
        let plan = TreePlan::compute(&members(32, 2_000), &cfg(2, 4, 1)).unwrap();
        for v in 1..32 {
            assert!(plan.fanout(v) <= 2, "member {v} over its uplink budget");
        }
    }

    #[test]
    fn leaf_only_members_never_parent() {
        let mut m = members(24, 4_000);
        for weak in m.iter_mut().skip(1).step_by(3) {
            *weak = 0;
        }
        let plan = TreePlan::compute(&m, &cfg(2, 4, 3)).unwrap();
        for v in (1..24).step_by(3) {
            assert_eq!(plan.interior_tree(v), None);
            assert_eq!(plan.fanout(v), 0);
        }
    }

    #[test]
    fn backup_is_the_grandparent() {
        let plan = TreePlan::compute(&members(64, 8_000), &cfg(2, 4, 9)).unwrap();
        for t in 0..2 {
            for v in 1..64 {
                match plan.parent(t, v) {
                    Some(0) => assert_eq!(plan.backup(t, v), None),
                    Some(p) => assert_eq!(plan.backup(t, v), plan.parent(t, p)),
                    None => unreachable!(),
                }
            }
        }
    }

    #[test]
    fn capacity_shortfall_is_reported() {
        // Source can feed k trees but viewers can't relay at all and the
        // source can't absorb everyone alone.
        let err = TreePlan::compute(&members(32, 0), &cfg(2, 4, 1));
        assert!(matches!(err, Err(PlanError::SourceUplink)));
        let mut m = members(32, 0);
        m[0] = 4_000; // source: 2 per tree
        let err = TreePlan::compute(&m, &cfg(2, 4, 1));
        assert_eq!(err.unwrap_err(), PlanError::Capacity { tree: 0 });
    }

    #[test]
    fn depth_bound_matches_log() {
        assert_eq!(depth_bound(1, 4), 0);
        assert_eq!(depth_bound(2, 4), 1);
        assert_eq!(depth_bound(64, 4), 3);
        assert_eq!(depth_bound(65, 4), 4);
        assert_eq!(depth_bound(1024, 8), 4);
    }
}
