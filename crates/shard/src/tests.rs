//! Unit tests: setup order, the finishers and the report.

use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use pandora_sim::{delay, SimDuration, SimTime};

use crate::Cluster;

#[test]
fn setups_and_finish_lines_keep_registration_order_whatever_the_shard_argument() {
    let mut cluster = Cluster::new(2);
    for (shard, name) in [(1, "first"), (0, "second"), (1, "third")] {
        cluster.setup(shard, move |env| {
            env.on_finish(move || vec![name.to_string()])
        });
    }
    let report = cluster.run(SimTime::ZERO);
    assert_eq!(report.merged_lines(), ["first", "second", "third"]);
    // A zero deadline polls nothing.
    assert_eq!((report.spawned_total, report.events()), (0, 0));
}

#[test]
#[should_panic(expected = "setup shard 2 out of range")]
fn a_setup_shard_out_of_range_panics() {
    Cluster::new(2).setup(2, |_| {});
}

/// A finisher's read that counts its renders.
struct Counted(Arc<AtomicU32>);

impl crate::Render for Counted {
    fn render(self: Box<Self>) -> Vec<String> {
        let renders = self.0.fetch_add(1, Ordering::Relaxed) + 1;
        vec![format!("render {renders}")]
    }
}

fn counted_run(renders: &Arc<AtomicU32>) -> crate::RunReport {
    let mut cluster = Cluster::new(1);
    let renders = renders.clone();
    cluster.setup(0, move |env| env.on_finish(move || Counted(renders)));
    cluster.run(SimTime::from_millis(1))
}

#[test]
fn a_report_dropped_unread_renders_nothing() {
    let renders = Arc::new(AtomicU32::new(0));
    drop(counted_run(&renders));
    assert_eq!(renders.load(Ordering::Relaxed), 0);
}

#[test]
fn a_report_renders_once_however_often_it_is_read() {
    let renders = Arc::new(AtomicU32::new(0));
    let report = counted_run(&renders);
    let first = report.merged_lines();
    assert_eq!(first, ["render 1"]);
    assert_eq!(report.merged_lines(), first);
    assert_eq!(renders.load(Ordering::Relaxed), 1);
}

/// A finisher's value is `Send` (so it holds no `Rc` into the run), and a
/// report can be handed to another thread like the lines it stands for.
#[test]
fn a_report_is_send_and_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<crate::RunReport>();
}

/// Sets its flag when dropped: held by a task that outlives the deadline,
/// it drops with the simulation.
struct DropFlag(Rc<std::cell::Cell<bool>>);

impl Drop for DropFlag {
    fn drop(&mut self) {
        self.0.set(true);
    }
}

#[test]
fn a_finisher_reads_before_the_simulation_drops() {
    let dropped = Rc::new(std::cell::Cell::new(false));
    let mut cluster = Cluster::new(1);
    let (guard, read) = (DropFlag(dropped.clone()), dropped.clone());
    cluster.setup(0, move |env| {
        env.spawner().spawn("holder", async move {
            let _guard = guard;
            delay(SimDuration::from_secs(1)).await;
        });
        env.on_finish(move || vec![format!("dropped={}", read.get())]);
    });
    let report = cluster.run(SimTime::from_millis(1));
    assert!(dropped.get(), "the simulation dropped the task's guard");
    assert_eq!(report.live_tasks, 1, "the holder");
    assert_eq!(report.merged_lines(), ["dropped=false"]);
}
