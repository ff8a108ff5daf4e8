//! Differential equivalence harness for the bit-packed 4-bit layout.
//!
//! Drives [`KernelPath::Scalar`] and [`KernelPath::Auto`] through
//! *identical* programs — including fault maps, kill switches, retention
//! aging and sparse spike inputs — and asserts the documented contracts:
//!
//! - **Outputs** (differential column currents) are **bitwise identical**
//!   across both paths, on dense *and* spike inputs. Auto's packed
//!   spike gather adds exactly the product the scalar loop computes, on
//!   the same operands, in the same per-column row-ascending order, so
//!   no tolerance is needed.
//! - **Energy** accrued over a long dot chain: Scalar is bitwise equal to
//!   the uncached reference; Auto uses the per-row-sum formulation — the
//!   same bits whether a drive takes the f64 lane or the packed layout —
//!   and tracks the scalar chain to ≤ 1e-9 relative error accumulated.
//! - Arrays whose fault-resolved conductances exceed 16 distinct values
//!   (per-cell TMR factors) spill to the f64 lane layout —
//!   [`AtomicCrossbar::quantized_is_packed`] reports `Some(false)` — with
//!   output bits unchanged.
//!
//! The nibble pack/unpack roundtrip (including odd-width remainder
//! nibbles) is property-tested here too.

use nebula_crossbar::kernel::{self, PALETTE};
use nebula_crossbar::{AtomicCrossbar, CrossbarConfig, KernelPath, Mode};
use nebula_device::fault::CellFault;
use nebula_device::units::Seconds;
use proptest::prelude::*;

const ENERGY_RTOL: f64 = 1e-9;

/// Shapes stressing the packed layout: odd column counts (remainder
/// nibble), single rows/columns, widths straddling the two-per-byte and
/// 8-lane boundaries, plus generic rectangles.
fn shapes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0usize..9, 1usize..24, 1usize..24).prop_flat_map(|(pick, r, c)| {
        let (r, c) = match pick {
            0 => (1, 1),
            1 => (1, 15),  // odd width: tail nibble
            2 => (24, 1),  // single odd column
            3 => (3, 7),   // odd width below one lane
            4 => (5, 8),   // even width, exactly one lane
            5 => (4, 9),   // odd width straddling a lane
            6 => (6, 16),  // even, two lanes
            7 => (24, 23), // large odd width
            _ => (r, c),
        };
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, c), r)
    })
}

/// One of the hard fault classes, or none. TMR factors are drawn per
/// test case so the spill test below can force distinct values.
fn fault_for(kind: usize, factor: f64) -> Option<CellFault> {
    match kind {
        0 => None,
        1 => Some(CellFault::StuckAtGmin),
        2 => Some(CellFault::StuckAtGmax),
        3 => Some(CellFault::DwPinning { offset_states: 2 }),
        4 => Some(CellFault::TmrDegradation { factor }),
        _ => Some(CellFault::DwPinning { offset_states: -3 }),
    }
}

fn paper_array(mode: Mode, w: &[Vec<f64>]) -> AtomicCrossbar {
    let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(mode)).unwrap();
    x.program(w, 1.0).unwrap();
    x
}

proptest! {
    /// Nibble packing is a lossless roundtrip for any index sequence,
    /// including odd lengths whose final byte carries a padding nibble.
    #[test]
    fn nibble_pack_unpack_roundtrip(
        indices in proptest::collection::vec(0u8..PALETTE as u8, 0..70),
    ) {
        let packed = kernel::pack_nibbles(&indices);
        prop_assert_eq!(packed.len(), kernel::packed_row_len(indices.len()));
        prop_assert_eq!(kernel::unpack_nibbles(&packed, indices.len()), indices.clone());
        // Odd lengths: the padding nibble is zero, so re-packing the
        // unpacked sequence reproduces the bytes exactly.
        let repacked = kernel::pack_nibbles(&kernel::unpack_nibbles(&packed, indices.len()));
        prop_assert_eq!(repacked, packed);
    }

    /// Dense outputs: both kernel paths produce bitwise-identical column
    /// currents under arbitrary programs, fault maps, aging and kill
    /// switches; energy over a multi-dot chain obeys the documented split
    /// (scalar bitwise; auto ≤ 1e-9 accumulated relative to scalar).
    #[test]
    fn dense_outputs_bitwise_energy_within_1e9(
        w in shapes(),
        drives in proptest::collection::vec(0.0f64..1.0, 24 * 4),
        fault_row in 0usize..24,
        fault_col in 0usize..24,
        kind in 0usize..6,
        factor in 0.05f64..0.95,
        age_s in 0.0f64..1e7,
        dead in 0u8..2,
        dots in 1usize..4,
    ) {
        let (rows, cols) = (w.len(), w[0].len());
        let build = |path: Option<KernelPath>| {
            let mut x = paper_array(Mode::Ann, &w);
            if let Some(f) = fault_for(kind, factor) {
                x.set_cell_fault(fault_row % rows, fault_col % cols, f);
            }
            x.advance_age(Seconds(age_s));
            if dead == 1 {
                x.kill();
            }
            if let Some(p) = path {
                x.set_kernel_path(p);
            }
            x
        };
        let mut reference = build(None);
        let mut scalar = build(Some(KernelPath::Scalar));
        let mut auto = build(Some(KernelPath::Auto));
        for d in 0..dots {
            let inputs = &drives[d * rows..(d + 1) * rows];
            let expect = reference.dot_reference(inputs).unwrap();
            for (path, x) in [("scalar", &mut scalar), ("auto", &mut auto)] {
                let got = x.dot(inputs).unwrap();
                for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
                    prop_assert_eq!(g.0.to_bits(), e.0.to_bits(), "{} dot {} col {}", path, d, j);
                }
            }
        }
        let e_ref = reference.accumulated_read_energy().0;
        let e_scalar = scalar.accumulated_read_energy().0;
        let e_auto = auto.accumulated_read_energy().0;
        prop_assert_eq!(e_scalar.to_bits(), e_ref.to_bits(), "scalar energy must be bitwise");
        prop_assert!(
            (e_auto - e_ref).abs() <= ENERGY_RTOL * e_ref.abs(),
            "accumulated energy {} vs reference {}", e_auto, e_ref
        );
    }

    /// Spike outputs: the sparse entry point agrees bitwise across both
    /// paths and with the dense evaluation of the equivalent binary
    /// drive, at every activity level from all-silent to all-active.
    /// Spike-path energy is bitwise across sparse/dense on each path —
    /// on Auto that pits the packed layout's row sums against the f64
    /// lane layout's — and within 1e-9 of scalar.
    #[test]
    fn spike_outputs_bitwise_across_paths(
        w in shapes(),
        mask in proptest::collection::vec(0u8..2, 24),
        fault_row in 0usize..24,
        fault_col in 0usize..24,
        kind in 0usize..6,
        factor in 0.05f64..0.95,
    ) {
        let (rows, cols) = (w.len(), w[0].len());
        let active: Vec<usize> = (0..rows).filter(|&r| mask[r] == 1).collect();
        let dense: Vec<f64> = (0..rows).map(|r| f64::from(mask[r])).collect();
        let mut expect: Option<Vec<_>> = None;
        let mut energy = [0.0f64; 2];
        for (slot, path) in [KernelPath::Scalar, KernelPath::Auto].into_iter().enumerate() {
            let mut a = paper_array(Mode::Snn, &w);
            if let Some(f) = fault_for(kind, factor) {
                a.set_cell_fault(fault_row % rows, fault_col % cols, f);
            }
            a.set_kernel_path(path);
            let mut b = a.clone();
            let ya = a.dot_sparse(&active).unwrap();
            let yb = b.dot(&dense).unwrap();
            for (j, (s, d)) in ya.iter().zip(&yb).enumerate() {
                prop_assert_eq!(s.0.to_bits(), d.0.to_bits(), "{:?} sparse-vs-dense col {}", path, j);
            }
            match &expect {
                None => expect = Some(ya.clone()),
                Some(e) => {
                    for (j, (g, r)) in ya.iter().zip(e.iter()).enumerate() {
                        prop_assert_eq!(g.0.to_bits(), r.0.to_bits(), "{:?} col {}", path, j);
                    }
                }
            }
            let e_sparse = a.accumulated_read_energy().0;
            prop_assert_eq!(
                e_sparse.to_bits(),
                b.accumulated_read_energy().0.to_bits(),
                "sparse and dense energy must agree on {:?}", path
            );
            energy[slot] = e_sparse;
        }
        let [e_scalar, e_auto] = energy;
        prop_assert!(
            (e_auto - e_scalar).abs() <= ENERGY_RTOL * e_scalar.abs(),
            "spike energy {} vs scalar {}", e_auto, e_scalar
        );
    }

    /// All-silent spike input draws no current and accrues no energy on
    /// the packed layout (the gather loop never runs), and a single
    /// active row reproduces the scalar bits.
    #[test]
    fn packed_silent_and_single_row_edges(
        w in shapes(),
        row_pick in 0usize..24,
    ) {
        let mut quant = paper_array(Mode::Snn, &w);
        quant.set_kernel_path(KernelPath::Auto);
        let out = quant.dot_sparse(&[]).unwrap();
        prop_assert!(out.iter().all(|c| c.0 == 0.0), "silent input must output zeros");
        prop_assert_eq!(
            quant.accumulated_read_energy().0, 0.0,
            "silent input must not accrue energy"
        );
        let single = vec![row_pick % w.len()];
        let mut scalar = paper_array(Mode::Snn, &w);
        scalar.set_kernel_path(KernelPath::Scalar);
        let yq = quant.dot_sparse(&single).unwrap();
        let ys = scalar.dot_sparse(&single).unwrap();
        for (j, (q, s)) in yq.iter().zip(&ys).enumerate() {
            prop_assert_eq!(q.0.to_bits(), s.0.to_bits(), "single-row col {}", j);
        }
    }

    /// Forcing more than 16 distinct fault-resolved conductances (unique
    /// per-cell TMR factors) makes the packed layout spill to the f64
    /// lane one — reported via `quantized_is_packed` — without changing
    /// a single output bit on dense or spike drives.
    #[test]
    fn tmr_fault_spill_keeps_outputs_bitwise(
        drives in proptest::collection::vec(0.0f64..1.0, 20),
    ) {
        let w: Vec<Vec<f64>> = (0..20)
            .map(|r| (0..5).map(|c| ((r * 5 + c) % 9) as f64 / 4.0 - 1.0).collect())
            .collect();
        let mut quant = paper_array(Mode::Ann, &w);
        // 20 distinct factors → up to 20 distinct off-grid conductances.
        for r in 0..20 {
            quant.set_cell_fault(r, r % 5, CellFault::TmrDegradation {
                factor: 0.1 + 0.8 * r as f64 / 20.0,
            });
        }
        let mut scalar = quant.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        quant.set_kernel_path(KernelPath::Auto);
        let yq = quant.dot(&drives).unwrap();
        let ys = scalar.dot(&drives).unwrap();
        prop_assert_eq!(
            quant.quantized_is_packed(), Some(false),
            "20 distinct TMR factors must overflow the 16-entry palette"
        );
        for (j, (q, s)) in yq.iter().zip(&ys).enumerate() {
            prop_assert_eq!(q.0.to_bits(), s.0.to_bits(), "spilled dense col {}", j);
        }
        let active: Vec<usize> = (0..20).filter(|&r| drives[r] > 0.5).collect();
        let yq = quant.dot_sparse(&active).unwrap();
        let ys = scalar.dot_sparse(&active).unwrap();
        for (j, (q, s)) in yq.iter().zip(&ys).enumerate() {
            prop_assert_eq!(q.0.to_bits(), s.0.to_bits(), "spilled spike col {}", j);
        }
    }

    /// Clean programs always pack (≤ 16 on-grid values) and invalidation
    /// through the dirty-tracking seam rebuilds the palette after a
    /// reprogram: spikes give the same bits as a fresh array in the same
    /// state.
    #[test]
    fn mutation_invalidates_and_rebuilds_the_palette(
        w in shapes(),
        w2 in shapes(),
        mask in proptest::collection::vec(0u8..2, 24),
    ) {
        let spikes = |rows: usize| (0..rows).filter(|&r| mask[r] == 1).collect::<Vec<_>>();
        let mut x = paper_array(Mode::Snn, &w);
        x.set_kernel_path(KernelPath::Auto);
        x.dot_sparse(&spikes(w.len())).unwrap(); // builds the packed layout
        prop_assert_eq!(x.quantized_is_packed(), Some(true));
        // Mutate through the same seam every other layout uses.
        x.program(&w2, 1.0).unwrap();
        let active = spikes(w2.len());
        let got = x.dot_sparse(&active).unwrap();
        let mut fresh = paper_array(Mode::Snn, &w2);
        fresh.set_kernel_path(KernelPath::Scalar);
        let expect = fresh.dot_sparse(&active).unwrap();
        for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
            prop_assert_eq!(g.0.to_bits(), e.0.to_bits(), "post-reprogram col {}", j);
        }
        prop_assert_eq!(x.quantized_is_packed(), Some(true));
    }
}
