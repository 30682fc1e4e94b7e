//! The hub-side repair engine: leases over relays, grafts on death.
//!
//! Every member heartbeats the hub with a `Hello` carrying its per-tree
//! next-expected sequences. The engine feeds those hellos into a
//! [`PassiveBeat`] (the pandora-recover lease machine, fed passively)
//! and sweeps once per interval. When an interior relay's lease dies,
//! each of its children in the dead relay's interior tree is orphaned —
//! but only in that one tree; the other `k - 1` stripes never touched
//! the victim. For each orphan the engine emits a [`Graft`]: the
//! orphan's precomputed backup parent (its grandparent, necessarily an
//! interior of the same tree or the source, and therefore holding a
//! repair ring for that stripe) starts forwarding to the orphan and
//! first replays its ring from the orphan's last reported next-expected
//! sequence — the clawback-buffered catch-up that closes the gap before
//! the viewer's playout delay runs out.
//!
//! The engine is a pure state machine: hellos and sweeps in, grafts and
//! log lines out, so a run's repair history replays byte-identically.

use std::rc::Rc;

use pandora_recover::{LeaseConfig, LeaseEvent, PassiveBeat};

use crate::plan::TreePlan;

/// One graft order: `backup` adopts `orphan` on `tree`, replaying its
/// repair ring from `resume_from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Graft {
    /// The stripe tree being repaired.
    pub(crate) tree: usize,
    /// The member that lost its parent.
    pub(crate) orphan: usize,
    /// The surviving grandparent that adopts it.
    pub(crate) backup: usize,
    /// Global sequence replay resumes from (the orphan's last reported
    /// next-expected on that tree).
    pub(crate) resume_from: u32,
}

/// Lease-driven graft planner the broadcast hub drives.
pub(crate) struct RepairEngine {
    plan: Rc<TreePlan>,
    beat: PassiveBeat,
    /// Last reported next-expected per tree, member `m`'s at
    /// `last[m * k..][..k]`.
    last: Vec<u32>,
    deaths: u64,
    grafts: u64,
    unrepairable: u64,
    log: Vec<String>,
}

impl RepairEngine {
    /// An engine over `plan`, with every member (except the source,
    /// which the hub itself hosts) enrolled under `lease`.
    pub(crate) fn new(plan: impl Into<Rc<TreePlan>>, lease: LeaseConfig) -> RepairEngine {
        let plan = plan.into();
        let k = plan.trees();
        let n = plan.members();
        let mut beat = PassiveBeat::new();
        for m in 1..n {
            beat.enroll(m as u32, lease);
        }
        RepairEngine {
            plan,
            beat,
            last: (0..n).flat_map(|_| 0..k as u32).collect(),
            deaths: 0,
            grafts: 0,
            unrepairable: 0,
            log: Vec::new(),
        }
    }

    /// A member's heartbeat: renews its lease and refreshes the resume
    /// points a future graft would use.
    pub(crate) fn hello(&mut self, member: usize, next_expected: &[u32]) {
        let _ = self.beat.hello(member as u32);
        let k = self.plan.trees();
        if member < self.plan.members() && next_expected.len() == k {
            self.last[member * k..][..k].copy_from_slice(next_expected);
        }
    }

    /// One lease sweep at virtual time `now_nanos`: silent members take
    /// a miss; deaths of interior relays produce the grafts that reroute
    /// their orphans.
    pub(crate) fn sweep(&mut self, now_nanos: u64) -> Vec<Graft> {
        let mut grafts = Vec::new();
        for (peer, event) in self.beat.sweep() {
            if event != LeaseEvent::Died {
                continue;
            }
            let dead = peer as usize;
            self.deaths += 1;
            let Some(tree) = self.plan.interior_tree(dead) else {
                self.log
                    .push(format!("t={now_nanos:012} death leaf={dead} (no orphans)"));
                continue;
            };
            self.log
                .push(format!("t={now_nanos:012} death relay={dead} tree={tree}"));
            for &orphan in self.plan.children(tree, dead) {
                let orphan = orphan as usize;
                match self.plan.backup(tree, orphan) {
                    Some(backup) => {
                        let graft = Graft {
                            tree,
                            orphan,
                            backup,
                            resume_from: self.last[orphan * self.plan.trees() + tree],
                        };
                        self.grafts += 1;
                        self.log.push(format!(
                            "t={now_nanos:012} graft tree={tree} orphan={orphan} backup={backup} from={}",
                            graft.resume_from
                        ));
                        grafts.push(graft);
                    }
                    None => {
                        // Parent was the source: the source cannot die in
                        // this model, so a missing backup here means the
                        // dead node itself was a source child — its
                        // children's backup is the source, handled above.
                        self.unrepairable += 1;
                        self.log.push(format!(
                            "t={now_nanos:012} unrepairable tree={tree} orphan={orphan}"
                        ));
                    }
                }
            }
        }
        grafts
    }

    /// Member deaths observed (interior or leaf).
    pub(crate) fn deaths(&self) -> u64 {
        self.deaths
    }

    /// Grafts issued.
    pub(crate) fn grafts(&self) -> u64 {
        self.grafts
    }

    /// Orphans that had no backup parent.
    pub(crate) fn unrepairable(&self) -> u64 {
        self.unrepairable
    }

    /// The plan being repaired.
    #[cfg(test)]
    pub(crate) fn plan(&self) -> &TreePlan {
        &self.plan
    }

    /// Deterministic repair history, one line per death/graft, in
    /// execution order.
    pub(crate) fn log(&self) -> &[String] {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use pandora_sim::SimDuration;

    fn engine(n: usize, degree: usize) -> RepairEngine {
        let plan = TreePlan::compute(
            &vec![8_000; n],
            &PlanConfig {
                trees: 2,
                degree,
                seed: 3,
                stripe_cps: 1_000,
            },
        )
        .unwrap();
        RepairEngine::new(
            plan,
            LeaseConfig {
                interval: SimDuration::from_millis(10),
                suspect_after: 2,
                dead_after: 3,
                backoff_cap: SimDuration::from_millis(80),
            },
        )
    }

    /// A deep interior (one with both children and a non-source parent)
    /// to kill, or any interior with children.
    fn victim(e: &RepairEngine) -> (usize, usize) {
        let plan = e.plan();
        for v in 1..plan.members() {
            if let Some(t) = plan.interior_tree(v) {
                if !plan.children(t, v).is_empty() {
                    return (v, t);
                }
            }
        }
        panic!("no interior with children");
    }

    #[test]
    fn silent_interior_dies_and_every_orphan_gets_a_graft() {
        let mut e = engine(40, 4);
        let (dead, tree) = victim(&e);
        let orphans: Vec<usize> = e
            .plan()
            .children(tree, dead)
            .iter()
            .map(|&o| o as usize)
            .collect();
        // Resume points come from the orphans' last hellos.
        let mut sweeps = 0;
        let grafts = loop {
            for m in 1..40 {
                if m != dead {
                    let next: Vec<u32> = (0..2u32).map(|t| t + 2 * 7).collect();
                    e.hello(m, &next);
                }
            }
            let g = e.sweep(1_000 * sweeps);
            sweeps += 1;
            if !g.is_empty() {
                break g;
            }
            assert!(sweeps < 10, "death never detected");
        };
        assert_eq!(grafts.len(), orphans.len());
        for g in &grafts {
            assert_eq!(g.tree, tree);
            assert!(orphans.contains(&g.orphan));
            assert_eq!(e.plan().backup(tree, g.orphan), Some(g.backup));
            assert_eq!(g.resume_from, g.tree as u32 + 14);
        }
        assert_eq!(e.deaths(), 1);
        assert_eq!(e.grafts() as usize, orphans.len());
        // Only the victim's interior tree is repaired: the other stripe
        // never routed through it.
        assert!(grafts.iter().all(|g| g.tree == tree));
    }

    #[test]
    fn repair_log_replays_byte_identically() {
        let run = || {
            let mut e = engine(40, 4);
            let (dead, _) = victim(&e);
            for sweep in 0..6u64 {
                for m in 1..40 {
                    if m != dead {
                        e.hello(m, &[4, 5]);
                    }
                }
                let _ = e.sweep(sweep * 10_000_000);
            }
            e.log().join("\n")
        };
        let a = run();
        assert!(a.contains("graft"), "{a}");
        assert_eq!(a, run());
    }

    /// One beat: a hello from every member but the `silent`, then a sweep.
    fn beat(e: &mut RepairEngine, silent: &[usize], sweep: u64) -> Vec<Graft> {
        for m in 1..e.plan().members() {
            if !silent.contains(&m) {
                e.hello(m, &[4, 5]);
            }
        }
        e.sweep(sweep)
    }

    /// The second-failure shape: 200 members, two trees, degree 3. In
    /// tree 0, `191 → 59 → {79, 1, 27}` and `1 → {192, 194, 197}`.
    fn second_failure_engine() -> RepairEngine {
        let e = engine(200, 3);
        let plan = e.plan();
        assert_eq!(plan.interior_tree(1), Some(0));
        assert_eq!(plan.parent(0, 1), Some(59));
        assert_eq!(plan.children(0, 1), [192, 194, 197]);
        assert_eq!(plan.parent(0, 59), Some(191));
        assert_eq!(plan.children(0, 59), [79, 1, 27]);
        e
    }

    /// What repair owes the `orphans` once every member in `dead` has
    /// died: each is grafted exactly once, onto a live ancestor in tree 0,
    /// and no dead member is grafted or adopts.
    fn assert_every_orphan_lands_on_a_live_ancestor(
        e: &RepairEngine,
        grafts: &[Graft],
        dead: &[usize],
        orphans: &[usize],
    ) {
        let mut grafted: Vec<usize> = grafts.iter().map(|g| g.orphan).collect();
        grafted.sort_unstable();
        let mut want = orphans.to_vec();
        want.sort_unstable();
        assert_eq!(grafted, want, "grafted orphans: {grafts:?}");
        for g in grafts {
            let ancestors: Vec<usize> =
                std::iter::successors(e.plan().parent(0, g.orphan), |&a| e.plan().parent(0, a))
                    .collect();
            assert!(!dead.contains(&g.backup), "grafted onto the dead: {g:?}");
            assert!(ancestors.contains(&g.backup), "not an ancestor: {g:?}");
        }
        assert_eq!(e.unrepairable(), 0);
    }

    /// ROADMAP item 1(b): parent and grandparent silent in one lease
    /// window. Both die in one sweep, 1 first: today its orphans 192, 194
    /// and 197 are grafted onto the dead 59, the dead 1 is grafted onto
    /// 191, and `unrepairable` stays 0.
    #[test]
    #[ignore = "ROADMAP item 11: grafts come from the static plan"]
    fn parent_and_grandparent_dead_in_one_window_graft_onto_the_living() {
        let mut e = second_failure_engine();
        let dead = [1, 59];
        let grafts: Vec<Graft> = (0..6).flat_map(|s| beat(&mut e, &dead, s)).collect();
        assert_eq!(e.deaths(), 2);
        assert_every_orphan_lands_on_a_live_ancestor(&e, &grafts, &dead, &[192, 194, 197, 79, 27]);
    }

    /// ROADMAP item 1(b): a backup that adopted orphans, then dies. Its
    /// adoptees must be grafted again with its own children; today they
    /// are not (the grafts come from the plan's children of 59).
    #[test]
    #[ignore = "ROADMAP item 11: grafts come from the static plan"]
    fn a_backup_that_adopted_then_dies_regrafts_its_adoptees() {
        let mut e = second_failure_engine();
        let first: Vec<Graft> = (0..6).flat_map(|s| beat(&mut e, &[1], s)).collect();
        assert_eq!(
            first
                .iter()
                .map(|g| (g.orphan, g.backup))
                .collect::<Vec<_>>(),
            [(192, 59), (194, 59), (197, 59)]
        );
        let dead = [1, 59];
        let second: Vec<Graft> = (6..12).flat_map(|s| beat(&mut e, &dead, s)).collect();
        assert_eq!(e.deaths(), 2);
        assert_every_orphan_lands_on_a_live_ancestor(&e, &second, &dead, &[79, 27, 192, 194, 197]);
    }

    #[test]
    fn leaf_death_produces_no_grafts() {
        // Members with zero uplink are leaf-only; kill one.
        let members: Vec<u64> = (0..20)
            .map(|i| if i == 0 || i % 2 == 1 { 8_000 } else { 0 })
            .collect();
        let plan = TreePlan::compute(
            &members,
            &PlanConfig {
                trees: 2,
                degree: 4,
                seed: 1,
                stripe_cps: 1_000,
            },
        )
        .unwrap();
        let leaf = (1..20).find(|&v| plan.interior_tree(v).is_none()).unwrap();
        let mut e = RepairEngine::new(
            plan,
            LeaseConfig {
                interval: SimDuration::from_millis(10),
                suspect_after: 1,
                dead_after: 1,
                backoff_cap: SimDuration::from_millis(10),
            },
        );
        for sweep in 0..4u64 {
            for m in 1..20 {
                if m != leaf {
                    e.hello(m, &[0, 1]);
                }
            }
            assert!(e.sweep(sweep).is_empty());
        }
        assert_eq!(e.deaths(), 1);
        assert_eq!(e.grafts(), 0);
    }
}
