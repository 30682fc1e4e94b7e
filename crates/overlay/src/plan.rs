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

use std::collections::VecDeque;

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
    /// Fewer than two members, more than a `u32` id names, zero or 255+
    /// trees, or zero degree or stripe rate.
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

/// A row entry that names no member.
const NONE: u32 = u32::MAX;

/// The computed overlay: `k` trees over `n` members, every edge within
/// budget, every relay interior in exactly one tree. Each (tree, member)
/// is row `tree * n + member` of flat `u32` tables.
#[derive(Debug, Clone)]
pub struct TreePlan {
    n: usize,
    k: usize,
    d: usize,
    /// The parent; [`NONE`] for the source.
    parent: Vec<u32>,
    /// Hops from the source.
    depth: Vec<u32>,
    /// The tree each member is interior in; `u8::MAX` for the source
    /// (interior everywhere) and for leaf-only members.
    interior_in: Vec<u8>,
    /// Row `r`'s children, in attachment order, are `child_ids[child_at[r]
    /// as usize..child_at[r + 1] as usize]`: one CSR.
    child_at: Vec<u32>,
    child_ids: Vec<u32>,
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
        let ids_fit = n < NONE as usize && k < usize::from(u8::MAX);
        if n < 2 || k == 0 || d == 0 || cfg.stripe_cps == 0 || !ids_fit {
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
        let mut interior_in = vec![u8::MAX; n];
        let mut interiors: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (j, &m) in capable.iter().enumerate() {
            let t = j % k;
            interior_in[m] = t as u8;
            interiors[t].push(m);
        }

        let mut parent = vec![NONE; k * n];
        let mut depth = vec![0u32; k * n];
        // `(parent's row, child)` of every edge, in the order attached.
        let mut edges = Vec::with_capacity(k * n);
        for (t, tree_interiors) in interiors.iter().enumerate() {
            let (parent, depth) = (&mut parent[t * n..][..n], &mut depth[t * n..][..n]);
            // Breadth-first fill: attach to the earliest open slot, a
            // `(node, children it may still take)` whose count is never
            // zero; interiors first (they open new slots), then every
            // remaining member as a leaf, so leaves land in the shallowest
            // spare capacity.
            let mut slots = VecDeque::new();
            slots.push_back((0, src_cap));
            let mut attach = |v: usize, opens: u64| -> bool {
                let Some((p, remaining)) = slots.front_mut() else {
                    return false;
                };
                let p = *p;
                *remaining -= 1;
                if *remaining == 0 {
                    slots.pop_front();
                }
                parent[v] = p as u32;
                depth[v] = depth[p] + 1;
                edges.push(((t * n + p) as u32, v as u32));
                if opens > 0 {
                    slots.push_back((v, opens));
                }
                true
            };
            for &u in tree_interiors {
                if !attach(u, cap[u]) {
                    return Err(PlanError::Capacity { tree: t });
                }
            }
            for (v, &interior) in interior_in.iter().enumerate().skip(1) {
                if interior != t as u8 && !attach(v, 0) {
                    return Err(PlanError::Capacity { tree: t });
                }
            }
        }

        // The children as one CSR: the edges by parent row, each row's in
        // attachment order, since the sort is stable.
        edges.sort_by_key(|&(row, _)| row);
        let mut child_at = vec![0u32; k * n + 1];
        for &(row, _) in &edges {
            child_at[row as usize + 1] += 1;
        }
        for r in 0..k * n {
            child_at[r + 1] += child_at[r];
        }

        Ok(TreePlan {
            n,
            k,
            d,
            parent,
            depth,
            interior_in,
            child_at,
            child_ids: edges.iter().map(|&(_, child)| child).collect(),
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
        let p = self.parent[tree * self.n + member];
        (p != NONE).then_some(p as usize)
    }

    /// Children of `member` in `tree`, in attachment order.
    pub(crate) fn children(&self, tree: usize, member: usize) -> &[u32] {
        let r = tree * self.n + member;
        &self.child_ids[self.child_at[r] as usize..self.child_at[r + 1] as usize]
    }

    /// The tree `member` is interior in; `None` for the source and for
    /// leaf-only members.
    pub fn interior_tree(&self, member: usize) -> Option<usize> {
        let t = self.interior_in[member];
        (t != u8::MAX).then_some(usize::from(t))
    }

    /// The grandparent graft target for `member` in `tree` — the
    /// survivor that adopts it if its parent dies. `None` when the
    /// parent is the source, whose parent is none.
    pub(crate) fn backup(&self, tree: usize, member: usize) -> Option<usize> {
        self.parent(tree, self.parent(tree, member)?)
    }

    /// Total children of `member` across every tree — the copy count its
    /// uplink admission must cover.
    pub fn fanout(&self, member: usize) -> usize {
        (0..self.k).map(|t| self.children(t, member).len()).sum()
    }

    /// Deepest member across all trees — the hop count the latency
    /// budget must cover.
    pub fn max_depth_overall(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// `ceil(log_d n)` for this plan's shape.
    pub fn depth_bound(&self) -> u32 {
        depth_bound(self.n, self.d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TreePlan {
        /// Bytes the plan's rows hold on the heap.
        pub(crate) fn heap_bytes(&self) -> usize {
            let rows = [&self.parent, &self.depth, &self.child_at];
            let words: usize = rows.iter().map(|r| r.capacity()).sum();
            (words + self.child_ids.capacity()) * 4 + self.interior_in.capacity()
        }
    }

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

    /// One generated membership: `(uplinks, trees, degree, seed)`, the
    /// source first. Up to 4,096 members, 8 trees and degree 16, the size
    /// drawn log-uniformly; each case mixes leaf-only members (under one
    /// stripe copy), marginal ones (one or two copies) and generous ones
    /// (the degree or more) in proportions of its own, and one case in
    /// nine is generous throughout, the source included.
    fn membership(t: &mut pandora_prop::Tape) -> (Vec<u64>, usize, usize, u64) {
        use pandora_prop::Rng;
        let top = 1usize << t.gen_range(1..=12u32);
        let (n, k, d) = (
            t.gen_range(2..=top),
            t.gen_range(1..=8),
            t.gen_range(1..=16),
        );
        let copy = 1_000u64;
        let generous = d as u64 * copy;
        let (leaf, marginal) = (t.gen_range(0..=2u32), t.gen_range(0..=2u32));
        let mut uplinks: Vec<u64> = (0..n)
            .map(|_| match t.gen_range(0..4u32) {
                r if r < leaf => t.gen_range(0..copy),
                r if r < leaf + marginal => t.gen_range(copy..3 * copy),
                _ => t.gen_range(generous..=3 * generous),
            })
            .collect();
        let source = if leaf + marginal == 0 {
            t.gen_range(generous..=3 * generous)
        } else {
            t.gen_range(copy..=generous + copy)
        };
        uplinks[0] = k as u64 * source;
        (uplinks, k, d, t.next_u64())
    }

    /// Every plan that computes, over generated memberships: one parent
    /// per viewer per tree, the CSR the inverse of `parent` in attachment
    /// order, the grandparent as backup, depth one below the parent's,
    /// every relay interior in exactly one tree, fan-out within budget,
    /// and depth within the bound when every budget affords the degree.
    #[test]
    fn every_computed_plan_keeps_its_invariants() {
        let cases = if cfg!(debug_assertions) { 400 } else { 10_000 };
        let mut computed = 0;
        pandora_prop::check(
            "plan_invariants",
            1,
            cases,
            membership,
            |(uplinks, k, d, seed)| {
                let (n, k, d) = (uplinks.len(), *k, *d);
                let Ok(plan) = TreePlan::compute(uplinks, &cfg(k, d, *seed)) else {
                    return;
                };
                computed += 1;
                let cap = |v: usize| (uplinks[v] / 1_000).min(d as u64) as usize;
                let src_cap = (uplinks[0] / (1_000 * k as u64)).min(d as u64) as usize;
                for t in 0..k {
                    assert_eq!((plan.parent(t, 0), plan.backup(t, 0)), (None, None));
                    assert_eq!(plan.depth[t * n], 0);
                    assert!(plan.children(t, 0).len() <= src_cap, "source over budget");
                    let mut listed = vec![0; n];
                    for p in 0..n {
                        for &c in plan.children(t, p) {
                            assert_eq!(
                                plan.parent(t, c as usize),
                                Some(p),
                                "tree {t}: {p} lists {c}"
                            );
                            listed[c as usize] += 1;
                        }
                    }
                    for (v, &times) in listed.iter().enumerate().skip(1) {
                        assert_eq!(times, 1, "tree {t}: viewer {v} listed {times} times");
                        let p = plan.parent(t, v).expect("a viewer has a parent");
                        let grand = plan.parent(t, p).filter(|_| p != 0);
                        assert_eq!(plan.backup(t, v), grand, "tree {t}: backup of {v}");
                        let (dv, dp) = (plan.depth[t * n + v], plan.depth[t * n + p]);
                        assert_eq!(dv, dp + 1, "tree {t}: depth of {v}");
                    }
                    // Attachment order: walked breadth-first, each list in its
                    // order, the tree reads its interiors, then its leaves by id.
                    let mut order = Vec::with_capacity(n);
                    let mut open = VecDeque::from([0]);
                    while let Some(p) = open.pop_front() {
                        for &c in plan.children(t, p) {
                            order.push(c as usize);
                            if plan.interior_tree(c as usize) == Some(t) {
                                open.push_back(c as usize);
                            }
                        }
                    }
                    let interiors = order
                        .iter()
                        .take_while(|&&v| plan.interior_tree(v) == Some(t));
                    let leaves = &order[interiors.count()..];
                    assert!(leaves.iter().all(|&v| plan.interior_tree(v) != Some(t)));
                    assert!(
                        leaves.is_sorted(),
                        "tree {t}: leaves out of attachment order"
                    );
                    assert_eq!(order.len(), n - 1, "tree {t}: the walk misses a viewer");
                }
                for v in 1..n {
                    let interior = plan.interior_tree(v);
                    assert_eq!(
                        interior.is_some(),
                        cap(v) >= 1,
                        "member {v} relays iff it can"
                    );
                    for t in (0..k).filter(|&t| Some(t) != interior) {
                        assert!(
                            plan.children(t, v).is_empty(),
                            "{v} parents outside its tree"
                        );
                    }
                    assert!(plan.fanout(v) <= cap(v), "member {v} over its budget");
                }
                if src_cap == d && (1..n).all(|v| cap(v) == d) {
                    assert!(plan.max_depth_overall() <= plan.depth_bound());
                }
            },
        );
        assert!(
            computed >= cases / 4,
            "{computed} of {cases} memberships planned"
        );
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
