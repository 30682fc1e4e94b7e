//! Malformed-input behaviour of the AAL layer (§3.8: "if an error
//! occurs … the general rule is that the current segment is thrown
//! away"). Reassembly must translate every corruption into discard
//! counters and keep running — never panic, never wedge a circuit.

use pandora_atm::{segment_to_cells, Cell, Reassembler, SlabReassembler, Vci};
use pandora_slab::ByteSlab;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn feed(r: &mut Reassembler, cells: impl IntoIterator<Item = Cell>) -> Vec<(Vci, Vec<u8>)> {
    cells.into_iter().filter_map(|c| r.push(c)).collect()
}

#[test]
fn truncated_burst_discards_both_frames_once() {
    // The tail of a burst — including the marked last cell — never
    // arrives; the next burst's cells run straight on. The sequence gap
    // poisons the merged frame, which is discarded at the next last-cell
    // marker, and the circuit then recovers.
    let f1 = vec![1u8; 150];
    let f2 = vec![2u8; 96];
    let mut c1 = segment_to_cells(Vci(5), &f1, 0);
    let n1 = c1.len() as u32;
    c1.truncate(c1.len() - 2); // lose the tail, with its `last` marker
    let c2 = segment_to_cells(Vci(5), &f2, n1);
    let mut r = Reassembler::new();
    let done = feed(&mut r, c1.into_iter().chain(c2));
    assert!(done.is_empty(), "truncated frame delivered: {done:?}");
    assert_eq!(r.frames_ok(), 0);
    assert_eq!(r.frames_discarded(), 1);
    let f3 = vec![3u8; 48];
    let c3 = segment_to_cells(Vci(5), &f3, n1 + 2);
    let done = feed(&mut r, c3);
    assert_eq!(done, vec![(Vci(5), f3)], "circuit did not recover");
}

#[test]
fn reordered_cells_discard_frame_and_recover() {
    let frame = vec![9u8; 200];
    let mut cells = segment_to_cells(Vci(7), &frame, 40);
    cells.swap(1, 2);
    let mut r = Reassembler::new();
    let done = feed(&mut r, cells);
    assert!(done.is_empty(), "reordered frame delivered");
    assert_eq!(r.frames_discarded(), 1);
    let next = segment_to_cells(Vci(7), &[4u8; 30], 45);
    assert_eq!(feed(&mut r, next).len(), 1, "circuit did not recover");
}

#[test]
fn duplicated_cell_discards_frame() {
    let frame = vec![6u8; 150];
    let mut cells = segment_to_cells(Vci(3), &frame, 0);
    cells.insert(1, cells[1].clone()); // the same cell delivered twice
    let mut r = Reassembler::new();
    let done = feed(&mut r, cells);
    assert!(done.is_empty(), "duplicated cell slipped a frame through");
    assert_eq!(r.frames_discarded(), 1);
}

#[test]
fn colliding_vci_interleave_never_panics() {
    // Two senders erroneously share one VCI with independent counters —
    // a misconfigured switch table. Reassembly sees constant sequence
    // breaks; everything is discarded, nothing explodes, and the
    // receiver still tracks a single circuit.
    let fa = vec![1u8; 150];
    let fb = vec![2u8; 150];
    let ca = segment_to_cells(Vci(11), &fa, 0);
    let cb = segment_to_cells(Vci(11), &fb, 1_000);
    let mut r = Reassembler::new();
    let mut done = Vec::new();
    for (a, b) in ca.into_iter().zip(cb) {
        done.extend(r.push(a));
        done.extend(r.push(b));
    }
    assert!(done.is_empty(), "interleaved collision delivered: {done:?}");
    assert!(r.frames_discarded() >= 2);
    assert_eq!(r.circuits(), 1);
}

#[test]
fn unmarked_cell_flood_is_refused_whole_and_circuit_recovers() {
    // A hostile (or broken) sender never marks a last cell: 10 000 full
    // cells, 480 000 bytes, on one VCI. Neither reassembler may keep
    // them — a box's default slab region, 64 KiB, bounds a frame — so
    // when a mark finally comes both discard, and both deliver the
    // intact frame that follows.
    let mut flood = segment_to_cells(Vci(8), &vec![0xEE; 10_000 * 48], 0);
    let n = flood.len() as u32;
    assert_eq!(n, 10_000);
    flood.last_mut().expect("non-empty").last = false;
    let end = Cell::new(Vci(8), n, true, &[]);
    let next = vec![4u8; 100];
    let tail = segment_to_cells(Vci(8), &next, n + 1);
    let stream: Vec<Cell> = flood.into_iter().chain([end]).chain(tail).collect();

    let mut owned = Reassembler::new();
    assert_eq!(
        feed(&mut owned, stream.clone()),
        vec![(Vci(8), next.clone())]
    );
    assert_eq!((owned.frames_ok(), owned.frames_discarded()), (1, 1));

    let mut slab = SlabReassembler::new(ByteSlab::new(2, 64 * 1024));
    let done: Vec<Vec<u8>> = stream
        .into_iter()
        .filter_map(|c| slab.push(c))
        .map(|(_, frame)| frame.with(|b| b.to_vec()))
        .collect();
    assert_eq!(done, vec![next]);
    assert_eq!((slab.frames_ok(), slab.frames_discarded()), (1, 1));

    // The bound is the same on both: 64 KiB passes, one byte more does not.
    for (len, delivered) in [(64 * 1024, 1), (64 * 1024 + 1, 0)] {
        let cells = segment_to_cells(Vci(9), &vec![1u8; len], 0);
        assert_eq!(feed(&mut owned, cells.clone()).len(), delivered, "{len}");
        let got = cells.into_iter().filter_map(|c| slab.push(c)).count();
        assert_eq!(got, delivered, "{len}");
    }
}

#[test]
fn seeded_mutation_fuzz_never_panics() {
    // Drop, duplicate, swap and truncate cells at random across a long
    // cell stream; every outcome must land in a counter. Same seed,
    // same verdicts — rerun twice and compare.
    fn run(seed: u64) -> (u64, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cells: Vec<Cell> = Vec::new();
        let mut seq = 0u32;
        for i in 0..60u8 {
            let len = rng.gen_range(1..200usize);
            let frame = vec![i; len];
            let burst = segment_to_cells(Vci(u32::from(i % 4)), &frame, seq);
            seq = seq.wrapping_add(burst.len() as u32);
            cells.extend(burst);
        }
        for _ in 0..30 {
            if cells.len() < 4 {
                break;
            }
            let k = rng.gen_range(0..cells.len());
            match rng.gen_range(0..4u32) {
                0 => {
                    cells.remove(k);
                }
                1 => {
                    let c = cells[k].clone();
                    cells.insert(k, c);
                }
                2 => {
                    let j = rng.gen_range(0..cells.len());
                    cells.swap(k, j);
                }
                _ => {
                    cells.truncate(cells.len() - 1);
                }
            }
        }
        let mut r = Reassembler::new();
        for c in cells {
            let _ = r.push(c);
        }
        let counts = (r.frames_ok(), r.frames_discarded());
        // The reassembler must still work after the assault.
        let clean = segment_to_cells(Vci(99), &[5u8; 100], 0);
        assert_eq!(feed(&mut r, clean).len(), 1, "reassembler wedged");
        counts
    }
    for seed in 0..10u64 {
        let (ok_1, bad_1) = run(seed);
        let (ok_2, bad_2) = run(seed);
        assert_eq!((ok_1, bad_1), (ok_2, bad_2), "seed {seed} diverged");
        assert!(bad_1 > 0, "seed {seed} mutated nothing");
    }
}
