//! Column-lane GEMV and packed spike-gather kernels for the analog
//! crossbar.
//!
//! The crossbar dot product is a GEMV over cached conductances (the
//! current-summing spin-neuron evaluation of the DW-magnet designs the
//! paper builds on). This module holds the lane-level primitives the
//! [`AtomicCrossbar`](crate::array::AtomicCrossbar) evaluators dispatch
//! to, plus the [`KernelPath`] selector that switches between the pinned
//! scalar reference loop and the production [`KernelPath::Auto`] path.
//!
//! # Layouts and bit-identity contract
//!
//! [`KernelPath::Auto`] owns two prepared layouts of the same resolved
//! conductances and picks one per drive shape:
//!
//! - **f64 lanes** (dense drives): per programmed row, the
//!   *differential* conductances `g_eff − g_mid` pre-subtracted per cell
//!   and zero-padded to a multiple of [`LANES`], alongside a per-row
//!   total-conductance sum for the energy term. `g_eff − g_mid` is
//!   computed once at prepare time with the exact operands the scalar
//!   loop uses per visit, and each output column `diff[j]` is still
//!   accumulated in row-ascending order, so the differential outputs are
//!   **bit-identical** to [`KernelPath::Scalar`] and to `dot_reference`.
//! - **4-bit packed** (binary spike drives): per-cell palette indices
//!   packed two per byte plus a byte-pair LUT of `v_read · (g_s − g_mid)`
//!   built once per prepare. Each column receives one add of exactly the
//!   value the scalar loop would compute, in the same order — again
//!   bit-identical. Arrays whose fault-resolved conductances exceed
//!   [`PALETTE`] distinct values *spill* to the f64 layout.
//!
//! Only the total-current (energy) accumulation is re-associated — per
//! row instead of per cell, with bit-equal row sums in both layouts — so
//! read energy under [`KernelPath::Auto`] agrees with the reference to a
//! relative error ≤ 1e-12 per dot rather than bitwise (the scalar path
//! remains bitwise-exact on energy too).
//!
//! # Lane width and feature detection
//!
//! [`LANES`] is fixed at 8 (`4 × f64×2` on SSE2, `2 × f64×4` on AVX2,
//! one ZMM on AVX-512). The kernels are written as fixed-trip
//! `[f64; LANES]` chunk loops that LLVM autovectorizes for whatever
//! vector ISA the target enables — no `core::arch` intrinsics and no
//! runtime feature dispatch, so `-C target-cpu=native` changes only
//! instruction selection, never results: rustc does not contract
//! `a*b + c` into FMA and never re-associates floating point, so the
//! numbers are identical across targets and `RUSTFLAGS` (a CI job builds
//! with `-C target-cpu=native` to keep that property honest).

/// Column-lane width of the f64 lane kernels. Cached differential rows
/// are zero-padded to a multiple of this.
pub const LANES: usize = 8;

/// Palette capacity of the packed layout: one nibble indexes at most
/// 16 distinct effective conductances — exactly the device's 4-bit state
/// count, so every fault-free array packs. Arrays whose *fault-resolved*
/// conductances exceed 16 distinct values (per-cell TMR factors,
/// retention drift mixing on- and off-grid values) spill to the f64
/// lane layout instead (see `AtomicCrossbar::quantized_is_packed`).
pub const PALETTE: usize = 16;

/// Smallest multiple of [`LANES`] that holds `cols` values (the stride of
/// one padded differential-conductance row, and the minimum scratch width
/// callers of the `*_prepared` evaluators must provide).
pub fn padded_len(cols: usize) -> usize {
    cols.div_ceil(LANES) * LANES
}

/// Bytes one packed nibble row occupies: two palette indices per byte,
/// rounded up (an odd column count leaves the last byte's high nibble as
/// padding that the kernels never read).
pub fn packed_row_len(cols: usize) -> usize {
    cols.div_ceil(2)
}

/// Packs palette indices (each `< PALETTE`) two per byte: even positions
/// in the low nibble, odd positions in the high nibble. The inverse is
/// [`unpack_nibbles`].
///
/// # Panics
///
/// Panics when an index does not fit a nibble.
pub fn pack_nibbles(indices: &[u8]) -> Vec<u8> {
    assert!(
        indices.iter().all(|&i| (i as usize) < PALETTE),
        "palette index out of nibble range"
    );
    let mut packed = vec![0u8; packed_row_len(indices.len())];
    for (pos, &idx) in indices.iter().enumerate() {
        packed[pos / 2] |= idx << ((pos % 2) * 4);
    }
    packed
}

/// Unpacks `len` palette indices from a nibble-packed row (inverse of
/// [`pack_nibbles`]).
///
/// # Panics
///
/// Panics when `packed` is shorter than [`packed_row_len`]`(len)`.
pub fn unpack_nibbles(packed: &[u8], len: usize) -> Vec<u8> {
    assert!(packed.len() >= packed_row_len(len), "packed row too short");
    (0..len)
        .map(|pos| (packed[pos / 2] >> ((pos % 2) * 4)) & 0x0F)
        .collect()
}

/// Which inner-loop implementation an [`AtomicCrossbar`](crate::array::AtomicCrossbar)
/// evaluates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// The scalar loop over effective conductances: per-cell
    /// `g − g_mid` subtraction and a single serial total-current chain.
    /// Pinned as the bitwise-exact reference (outputs *and* energy).
    Scalar,
    /// Per-drive-shape dispatch over two prepared layouts: dense GEMV
    /// drives evaluate through the f64 lane layout (an axpy per active
    /// row), constant-voltage spike drives through the 4-bit packed
    /// layout (a byte-pair LUT gather per active row), and arrays whose
    /// palette spills evaluate both through the f64 layout. Both layouts
    /// produce bit-identical differential outputs and bit-identical
    /// per-row-sum energy, so the dispatch can never change a bit — it
    /// only picks the faster inner loop per call. Costs both layouts'
    /// cache footprint.
    #[default]
    Auto,
}

impl KernelPath {
    /// The kernel path new crossbars start on: `NEBULA_KERNEL_PATH`
    /// (`scalar` | `auto`, read once per process) or the default when
    /// unset. Lets subprocess harnesses — the golden regression tests
    /// re-running recorded experiment binaries under `scalar` — pin the
    /// path without threading a parameter through every binary. Explicit
    /// `set_kernel_path` calls still override it.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value: a typo silently falling back to
    /// the default would make an equivalence harness vacuous.
    pub fn from_env() -> Self {
        static PATH: std::sync::OnceLock<KernelPath> = std::sync::OnceLock::new();
        *PATH.get_or_init(|| match std::env::var("NEBULA_KERNEL_PATH") {
            Ok(v) if v == "scalar" => KernelPath::Scalar,
            Ok(v) if v == "auto" => KernelPath::Auto,
            Ok(v) => panic!("NEBULA_KERNEL_PATH must be scalar|auto, got {v:?}"),
            Err(_) => KernelPath::default(),
        })
    }
}

/// `acc[..dg.len()] += v * dg` over [`LANES`]-wide column chunks.
///
/// `dg` must be a padded differential row (length a multiple of
/// [`LANES`]) and `acc` at least as long. Each `acc[j]` receives exactly
/// one `+= v * dg[j]` per call — the same operation, on the same
/// operands, as the scalar loop's `diff[j] += v * (g - g_mid)` — so
/// per-column accumulation order (row-ascending across calls) is
/// preserved and results are bitwise identical. The mul-then-add is left
/// uncontracted (no FMA) by rustc's default FP semantics.
#[inline]
pub(crate) fn axpy(v: f64, dg: &[f64], acc: &mut [f64]) {
    debug_assert_eq!(dg.len() % LANES, 0);
    let acc = &mut acc[..dg.len()];
    for (dgc, accc) in dg.chunks_exact(LANES).zip(acc.chunks_exact_mut(LANES)) {
        let dgc: &[f64; LANES] = dgc.try_into().unwrap();
        let accc: &mut [f64; LANES] = accc.try_into().unwrap();
        for l in 0..LANES {
            accc[l] += v * dgc[l];
        }
    }
}

/// Gathered LUT accumulate over one packed nibble row for the
/// constant-voltage spike path: `pair[b]` pre-expands both nibbles of
/// byte value `b` (`[vdg[b & 15], vdg[b >> 4]]`, where `vdg[s] =
/// v_read · (g_s − g_mid)`), so each packed byte costs one aligned
/// 16-byte load and two adds — no multiplies or nibble arithmetic in
/// the loop. Each `acc[j]` for `j in 0..cols` receives exactly one add
/// of exactly the value the scalar loop would compute, in ascending
/// column order, so results are bitwise identical. Odd-`cols` padding
/// nibbles are never read.
#[inline]
pub(crate) fn gather_add_pairs(pair: &[[f64; 2]; 256], row: &[u8], cols: usize, acc: &mut [f64]) {
    let full = cols / 2;
    let (pairs, tail) = acc[..cols].split_at_mut(full * 2);
    for (accp, &b) in pairs.chunks_exact_mut(2).zip(row) {
        let p = &pair[b as usize];
        accp[0] += p[0];
        accp[1] += p[1];
    }
    if let [t] = tail {
        *t += pair[(row[full] & 0x0F) as usize][0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_len_rounds_up_to_lane_multiples() {
        assert_eq!(padded_len(0), 0);
        assert_eq!(padded_len(1), LANES);
        assert_eq!(padded_len(LANES), LANES);
        assert_eq!(padded_len(LANES + 1), 2 * LANES);
        assert_eq!(padded_len(128), 128);
    }

    #[test]
    fn axpy_matches_scalar_accumulation_bitwise() {
        let dg: Vec<f64> = (0..2 * LANES).map(|i| (i as f64).sin() * 1e-4).collect();
        let v = 0.317;
        let mut acc = vec![0.05f64; 2 * LANES + 3]; // longer than dg: tail untouched
        let mut expect = acc.clone();
        for (e, &d) in expect.iter_mut().zip(dg.iter()) {
            *e += v * d;
        }
        axpy(v, &dg, &mut acc);
        for (a, e) in acc.iter().zip(expect.iter()) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
    }

    #[test]
    fn default_path_is_auto() {
        assert_eq!(KernelPath::default(), KernelPath::Auto);
    }

    #[test]
    fn nibble_roundtrip_even_and_odd_lengths() {
        for len in [0usize, 1, 2, 7, 8, 15, 16, 33] {
            let indices: Vec<u8> = (0..len).map(|i| (i * 7 % PALETTE) as u8).collect();
            let packed = pack_nibbles(&indices);
            assert_eq!(packed.len(), packed_row_len(len));
            assert_eq!(unpack_nibbles(&packed, len), indices, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "nibble range")]
    fn packing_rejects_out_of_range_indices() {
        pack_nibbles(&[0, PALETTE as u8]);
    }

    #[test]
    fn gather_add_pairs_matches_scalar_lut_walk_bitwise() {
        let mut vdg = [0.0f64; PALETTE];
        for (s, v) in vdg.iter_mut().enumerate() {
            *v = (s as f64 - 7.3) * 1.7e-7;
        }
        let pair: Vec<[f64; 2]> = (0..256).map(|b| [vdg[b & 0x0F], vdg[b >> 4]]).collect();
        let pair: &[[f64; 2]; 256] = pair.as_slice().try_into().unwrap();
        for cols in [1usize, 2, 5, 8, 15, 16, 31] {
            let indices: Vec<u8> = (0..cols).map(|i| (i * 5 % PALETTE) as u8).collect();
            let packed = pack_nibbles(&indices);
            let mut acc = vec![0.125f64; cols + 3]; // longer: tail untouched
            let mut expect = acc.clone();
            for (e, &s) in expect.iter_mut().zip(indices.iter()) {
                *e += vdg[s as usize];
            }
            gather_add_pairs(pair, &packed, cols, &mut acc);
            for (a, e) in acc.iter().zip(expect.iter()) {
                assert_eq!(a.to_bits(), e.to_bits(), "cols {cols}");
            }
        }
    }
}
