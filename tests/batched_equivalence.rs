//! Equivalence across crates: the AAL reassembler must deliver what its
//! model delivers under seeded fault plans, and the Q15 scaled mixer must
//! be exact on exact gains.
//!
//! Cells have one path and one reassembler at its end,
//! `SlabReassembler`, for boxes, Medusa units and the session controller
//! alike. This suite holds it to the plain model of
//! `crates/atm/tests/model`: same frames, same bytes, same counters, for
//! 10 seeds of a lossy and corrupting path. The batched mixer and the
//! slice DPCM codec are held to their scalar oracles in their own crates'
//! tests, where the oracles live behind `#[cfg(test)]`.

#[path = "../crates/atm/tests/model/mod.rs"]
mod model;

use model::{feed_both, Model};
use pandora_atm::{
    build_path_controlled, segment_to_cells, ByteSlab, Cell, HopConfig, SlabReassembler, Vci,
};
use pandora_audio::{mix_blocks, mix_blocks_scaled, Block, Q15};
use pandora_prop::{check, Rng, Tape};
use pandora_sim::Simulation;
use std::cell::RefCell;
use std::rc::Rc;

const SEEDS: [u64; 10] = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89];

fn noise(t: &mut Tape, len: usize) -> Vec<u8> {
    (0..len).map(|_| t.gen_range(0..=255u8)).collect()
}

/// `count` blocks of noise.
fn blocks(t: &mut Tape, count: usize) -> Vec<Block> {
    (0..count)
        .map(|_| Block(std::array::from_fn(|_| t.gen_range(0..=255u8))))
        .collect()
}

#[test]
fn burst_reassembly_matches_under_loss_and_corruption_faults() {
    // The cells of a 40-frame burst that survive a seeded lossy and
    // corrupting path feed the reassembler and its model; they must
    // deliver the same frames and count the same discards.
    let frame = |t: &mut Tape| {
        let len = t.gen_range(0..=300usize);
        noise(t, len)
    };
    let burst = |t: &mut Tape| (0..40).map(|_| frame(t)).collect::<Vec<_>>();
    for seed in SEEDS {
        check("burst_reassembly", seed, 1, burst, |frames| {
            let mut sim = Simulation::new();
            let (tx, rx, _stats, ctrl) = build_path_controlled(
                &sim.spawner(),
                "eq",
                &[HopConfig::clean(1_000_000_000)],
                seed,
            );
            ctrl.set_loss(0.05);
            ctrl.set_corruption(0.05);
            let mut all_cells = Vec::new();
            let mut seq = 0u32;
            for frame in frames {
                let cells = segment_to_cells(Vci(1), frame, seq);
                seq = seq.wrapping_add(cells.len() as u32);
                all_cells.extend(cells);
            }
            sim.spawn("send", async move {
                for cell in all_cells {
                    if tx.send(cell).await.is_err() {
                        return;
                    }
                }
            });
            let survivors: Rc<RefCell<Vec<Cell>>> = Rc::default();
            let sink = survivors.clone();
            sim.spawn("recv", async move {
                while let Ok(cell) = rx.recv().await {
                    sink.borrow_mut().push(cell);
                }
            });
            sim.run_until_idle();
            assert!(ctrl.injected_drops() > 0, "plan injected no loss");
            // Cell by cell, both deliver the same frame or none.
            let mut slab = SlabReassembler::new(ByteSlab::new(2, 1024));
            let mut model = Model::new(2, 1024);
            feed_both(&mut slab, &mut model, &survivors.borrow());
            assert!(slab.frames_discarded() > 0, "nothing lost");
            assert_eq!(slab.alloc_failures(), 0);
        });
    }
}

#[test]
fn q15_scaled_mix_is_deterministic_and_exact_on_exact_gains() {
    let mix = |blocks: &[Block], gains: &[Q15]| {
        mix_blocks_scaled(blocks.iter().zip(gains.iter().copied()))
    };
    let case = |t: &mut Tape| {
        let blocks = blocks(t, 8);
        let gains: Vec<Q15> = (0..8)
            .map(|_| Q15::from_raw(t.gen_range(0..=1u32 << 15) as i32))
            .collect();
        (blocks, gains)
    };
    for seed in SEEDS {
        check("q15_mix", seed, 1, case, |(blocks, gains)| {
            // Bit-identical on repeat evaluation (pure integer arithmetic).
            assert_eq!(mix(blocks, gains), mix(blocks, gains));
            // Unity gains reduce to the unscaled mixer exactly.
            let unity = vec![Q15::ONE; blocks.len()];
            assert_eq!(mix(blocks, &unity), mix_blocks(blocks.iter()));
        });
    }
}
