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

/// Column-tile width of [`dense_tiles`]: 16 f64 accumulators stay in
/// registers across every active row (8 XMM registers on SSE2, 4 YMM on
/// AVX2).
pub(crate) const TILE: usize = 16;

/// Writes the ascending indices of the driven (`x != 0.0`) entries of
/// `drive` into `out[..k]` and returns `k` — the dense evaluators' one
/// silent-row rule. Branch-free: every position is written and the
/// cursor only advances past driven entries, so a mix of zero and
/// non-zero drives costs no mispredicts.
///
/// # Panics
///
/// Panics when `out` is shorter than `drive` or `drive` holds more than
/// `u32::MAX` entries.
#[inline]
pub fn index_active(drive: &[f64], out: &mut [u32]) -> usize {
    assert!(u32::try_from(drive.len()).is_ok(), "drive too long");
    let out = &mut out[..drive.len()];
    let mut k = 0usize;
    for (r, &x) in drive.iter().enumerate() {
        out[k] = r as u32;
        k += usize::from(x != 0.0);
    }
    k
}

/// Dense GEMV over the f64 lane layout: for every active row of
/// `active` (ascending, from [`index_active`]; row `r` is entry `r −
/// base`) adds `v · dg[r]` into `diff[..padded_cols]` with `v = v_read ·
/// inputs[r]`, and returns the drawn current `Σ v · row_sum[r]`. The
/// stride of a `dg` row is `dg.len() / row_sum.len()`.
///
/// Columns are walked in [`TILE`]-lane tiles with an 8-lane tail; each
/// tile holds its accumulators in registers across all active rows and
/// touches `diff` once. The first tile also carries the drawn-current
/// chain, whose add latency then hides behind the tile's lane work.
/// Each `diff[j]` still receives exactly one `+= v · dg[r][j]` per
/// active row, in ascending row order — the same operations on the same
/// operands as the scalar loop — so outputs are bitwise identical to
/// it; only the loop nest is swapped (rows inside column tiles). The
/// current is one ascending chain over the same rows.
#[inline]
pub(crate) fn dense_tiles(
    v_read: f64,
    inputs: &[f64],
    active: &[u32],
    base: usize,
    dg: &[f64],
    row_sum: &[f64],
    diff: &mut [f64],
) -> f64 {
    let drive = Drive {
        v_read,
        inputs,
        active,
        base,
        dg,
        row_sum,
        padded_cols: dg.len().checked_div(row_sum.len()).unwrap_or(0),
    };
    debug_assert_eq!(drive.padded_cols % LANES, 0);
    let diff = &mut diff[..drive.padded_cols];
    let (full, tail) = diff.split_at_mut(drive.padded_cols / TILE * TILE);
    let mut total = 0.0f64;
    let mut tiles = full.chunks_exact_mut(TILE);
    match (tiles.next(), tail.is_empty()) {
        (Some(first), _) => drive.tile::<TILE, true>(0, first, &mut total),
        (None, false) => drive.tile::<LANES, true>(0, tail, &mut total),
        // No programmed columns: nothing to add, and every row sum is 0.
        (None, true) => return drive.current(),
    }
    for (t, acc) in tiles.enumerate() {
        drive.tile::<TILE, false>((t + 1) * TILE, acc, &mut total);
    }
    if !full.is_empty() && !tail.is_empty() {
        drive.tile::<LANES, false>(full.len(), tail, &mut total);
    }
    total
}

/// The operands of one [`dense_tiles`] call.
struct Drive<'a> {
    v_read: f64,
    inputs: &'a [f64],
    active: &'a [u32],
    base: usize,
    dg: &'a [f64],
    row_sum: &'a [f64],
    padded_cols: usize,
}

impl Drive<'_> {
    /// Adds every active row into the `W` columns of `out`, which start
    /// at column `col`; with `CURRENT`, also adds each row's drawn
    /// current into `total`.
    #[inline(always)]
    fn tile<const W: usize, const CURRENT: bool>(
        &self,
        col: usize,
        out: &mut [f64],
        total: &mut f64,
    ) {
        let out: &mut [f64; W] = out.try_into().expect("tile width");
        let mut acc = *out;
        let mut current = *total;
        for &r in self.active {
            let r = r as usize - self.base;
            let v = self.v_read * self.inputs[r];
            if CURRENT {
                current += v * self.row_sum[r];
            }
            let row: &[f64; W] = self.dg[r * self.padded_cols + col..][..W]
                .try_into()
                .expect("tile width");
            for l in 0..W {
                acc[l] += v * row[l];
            }
        }
        *out = acc;
        *total = current;
    }

    /// The drawn current alone, for an array without columns.
    fn current(&self) -> f64 {
        self.active.iter().fold(0.0, |total, &r| {
            let r = r as usize - self.base;
            total + self.v_read * self.inputs[r] * self.row_sum[r]
        })
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
    fn index_active_lists_exactly_the_driven_rows() {
        let drive = [0.0, 0.5, -0.0, 1.0, 0.0, 0.25, f64::NAN];
        let mut out = [u32::MAX; 7];
        let k = index_active(&drive, &mut out);
        assert_eq!(&out[..k], &[1, 3, 5, 6]);
        assert_eq!(index_active(&[0.0; 4], &mut out), 0);
    }

    #[test]
    fn dense_tiles_match_row_by_row_axpy_bitwise() {
        // Tiles only swap the loop nest: every column still receives
        // its rows in ascending order, exactly as one axpy per row.
        let rows = 11;
        for padded in [8usize, 16, 24, 40, 128] {
            let dg: Vec<f64> = (0..rows * padded)
                .map(|i| (i as f64 * 0.37).sin())
                .collect();
            let inputs: Vec<f64> = (0..rows).map(|r| (r % 4) as f64 * 0.3).collect();
            let base = 5;
            let mut active = vec![0u32; rows];
            let k = index_active(&inputs, &mut active);
            let active: Vec<u32> = active[..k].iter().map(|r| r + base as u32).collect();
            let v_read = 0.4;
            let mut want = vec![0.25f64; padded];
            for &r in &active {
                let r = r as usize - base;
                axpy(
                    v_read * inputs[r],
                    &dg[r * padded..(r + 1) * padded],
                    &mut want,
                );
            }
            let row_sum: Vec<f64> = (0..rows).map(|r| 1e-3 * (r + 1) as f64).collect();
            let mut want_current = 0.0f64;
            for &r in &active {
                let r = r as usize - base;
                want_current += v_read * inputs[r] * row_sum[r];
            }
            let mut got = vec![0.25f64; padded + 3]; // longer: tail untouched
            let current = dense_tiles(v_read, &inputs, &active, base, &dg, &row_sum, &mut got);
            for (j, (a, e)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "padded {padded} col {j}");
            }
            assert_eq!(&got[padded..], &[0.25; 3]);
            assert_eq!(current.to_bits(), want_current.to_bits(), "padded {padded}");
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
