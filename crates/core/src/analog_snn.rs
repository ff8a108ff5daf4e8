//! Analog *spiking* execution: run a converted SNN with every synaptic
//! MAC computed by the DW-MTJ crossbar models in SNN mode (0.25 V binary
//! spike drivers), integrate-and-fire thresholding on the column
//! outputs, and event-driven energy accounting straight from the
//! circuit layer.
//!
//! This closes the loop on the paper's multi-modal claim at circuit
//! level: the *same* crossbar structures execute both the ANN
//! ([`crate::analog`]) and the SNN path, differing only in drivers,
//! read voltage and the neuron circuit at the columns.

use crate::analog::{at_stage, AnalogError};
use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::{CrossbarConfig, KernelPath, Mode, SpikeRowKernel, SuperTile};
use nebula_device::units::{Joules, Seconds};
use nebula_device::FaultModel;
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, InputEncoding, SnnStage, SpikingNetwork};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor};
use rand::Rng;

/// A programmed spiking synaptic stage: crossbars in SNN mode.
#[derive(Debug, Clone)]
pub(crate) struct SnnMatrix {
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
}

impl SnnMatrix {
    pub(crate) fn program(weight: &Tensor, config: &CrossbarConfig) -> Result<Self, AnalogError> {
        let (rf, cols) = (weight.shape()[0], weight.shape()[1]);
        if rf == 0 || cols == 0 {
            return Err(AnalogError::BadGeometry {
                reason: format!("degenerate spiking weight matrix {rf}×{cols}"),
            });
        }
        let clip = weight
            .data()
            .iter()
            .fold(0.0f32, |m, v| m.max(v.abs()))
            .max(1e-6) as f64;
        let mut tiles = Vec::new();
        let mut segment_rows = Vec::new();
        for seg_start in (0..rf).step_by(MAX_RF_IN_CORE) {
            let seg_rows = (rf - seg_start).min(MAX_RF_IN_CORE);
            segment_rows.push(seg_rows);
            let mut groups = Vec::new();
            for col_start in (0..cols).step_by(M) {
                let group_cols = (cols - col_start).min(M);
                let mut block = vec![vec![0.0f64; group_cols]; seg_rows];
                for (r, row) in block.iter_mut().enumerate() {
                    for (c, cell) in row.iter_mut().enumerate() {
                        *cell = weight.at(&[seg_start + r, col_start + c]) as f64;
                    }
                }
                let mut st = SuperTile::new(config.clone())?;
                st.program(&block, clip)?;
                groups.push(st);
            }
            tiles.push(groups);
        }
        Ok(Self {
            tiles,
            segment_rows,
            cols,
            rf,
        })
    }

    /// One timestep for one sample through the legacy per-cell crossbar
    /// loop ([`SuperTile::dot_reference`]): binary spike vector in,
    /// real-valued membrane increments (`Wᵀs + b` handled by caller)
    /// out. Bit-identical to one patch of the event-driven
    /// [`scatter`](Self::scatter); kept as the reference for
    /// equivalence tests and the `bench_hotpath` sequential leg.
    pub(crate) fn dot_spikes_reference(&mut self, spikes: &[f32]) -> Result<Vec<f32>, AnalogError> {
        debug_assert_eq!(spikes.len(), self.rf);
        let mut out = vec![0.0f32; self.cols];
        let mut offset = 0usize;
        for (seg, seg_rows) in self.segment_rows.clone().into_iter().enumerate() {
            let drive: Vec<f64> = spikes[offset..offset + seg_rows]
                .iter()
                .map(|&v| f64::from(v > 0.5))
                .collect();
            for (g, tile) in self.tiles[seg].iter_mut().enumerate() {
                let currents = tile.dot_reference(&drive)?;
                let unit = tile.unit_current().0;
                for (c, i) in currents.iter().enumerate() {
                    out[g * M + c] += (i.0 / unit) as f32;
                }
            }
            offset += seg_rows;
        }
        Ok(out)
    }

    /// Advances this synaptic stage by one timestep: drives the spike
    /// tensor `h` through the crossbars and returns `crossbar term +
    /// bias` as `[n, cols]` (dense, `conv == None`) or
    /// `[n, cols, oh, ow]` — one crossbar wave per output position.
    ///
    /// The event-driven path scatters spikes per output band (see
    /// [`Scatter::run`]); `reference` evaluates each `im2col` row
    /// through [`dot_spikes_reference`](Self::dot_spikes_reference)
    /// instead. Both produce the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `h` does not fit the
    /// stage (see [`ScatterShape::of`]).
    fn step(
        &mut self,
        h: &Tensor,
        conv: Option<ConvGeometry>,
        bias: &[f32],
        scratch: &mut EventScratch,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let shape = ScatterShape::of(h.shape(), self.rf, conv)?;
        let reference_sums;
        let sums = if reference {
            let fm = h.reshape(&[shape.n, shape.c, shape.h, shape.w])?;
            let patches = im2col(&fm, shape.geom)?;
            let mut ys = Vec::with_capacity(shape.patches() * self.cols);
            for row in patches.data().chunks(self.rf) {
                ys.extend_from_slice(&self.dot_spikes_reference(row)?);
            }
            reference_sums = ys;
            &reference_sums
        } else {
            self.scatter(h.data(), &shape, scratch, workers);
            &scratch.sums
        };
        let out_shape = match conv {
            Some(_) => vec![shape.n, self.cols, shape.oh, shape.ow],
            None => vec![shape.n, self.cols],
        };
        // NCHW from the patch-major sums. `sum + b` even for a silent
        // patch (`sum == 0.0`), never a bare `b`, keeps the bits of a
        // `-0.0` bias.
        let (cols, spatial) = (self.cols, shape.oh * shape.ow);
        let mut out = Vec::with_capacity(sums.len());
        for img in sums.chunks((cols * spatial).max(1)) {
            for (o, &b) in bias.iter().enumerate() {
                out.extend(img[o..].iter().step_by(cols).map(|&v| v + b));
            }
        }
        Ok(Tensor::from_vec(out, &out_shape)?)
    }

    /// Event-driven crossbar evaluation of one timestep into
    /// `scratch.sums` (per patch, per output channel) — the stage's
    /// spikes scattered per output band, with read energy accrued per
    /// (patch, AC) in ascending patch order afterwards.
    ///
    /// The sums are **bit-identical** to
    /// [`dot_spikes_reference`](Self::dot_spikes_reference) on each
    /// `im2col` row in turn, for any worker count: every (patch, AC)
    /// accumulator sees its rows in ascending order (see
    /// [`Scatter::run`]), and each AC accrues its patches in ascending
    /// order as [`SuperTile::accrue_batch`] does for the sequential
    /// batch path. Energy is bit-identical too under
    /// [`KernelPath::Scalar`]; the default [`KernelPath::Auto`]
    /// re-associates the total-current sum per row and tracks the
    /// reference to a relative error ≤ 1e-12.
    ///
    /// A spike-free input skips everything but zeroing the sums — no
    /// tile preparation, no pool dispatch, no accrual walk. With
    /// `workers > 1` contiguous band blocks run on the pool; accrual
    /// stays sequential. `workers == 1` never touches the pool — how the
    /// multi-chip pipeline executor keeps stage evaluation flat while
    /// the pipeline itself provides the concurrency.
    fn scatter(
        &mut self,
        input: &[f32],
        shape: &ScatterShape,
        scratch: &mut EventScratch,
        workers: usize,
    ) {
        let cols = self.cols;
        scratch.sums.clear();
        scratch.sums.resize(shape.patches() * cols, 0.0);
        scratch.driven = false;
        if scratch.index_spikes(input, shape.w) == 0 {
            return;
        }
        scratch.index_taps(shape);
        scratch.index_rows(self);
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        let kernels: Vec<SpikeRowKernel<'_>> = self
            .tiles
            .iter()
            .flatten()
            .flat_map(SuperTile::spike_row_kernels)
            .collect();
        let acs = kernels.len();
        let EventScratch {
            spikes,
            line_starts,
            taps,
            rows,
            slots,
            slot_width,
            currents,
            sums,
            bands,
            driven,
        } = scratch;
        currents.clear();
        currents.resize(shape.patches() * acs, 0.0);
        let scatter = Scatter {
            shape: *shape,
            spikes,
            line_starts,
            taps,
            rows,
            slots,
            slot_width: *slot_width,
            kernels: &kernels,
            tiles: &self.tiles,
            cols,
        };
        let total = shape.bands();
        let blocks = workers.clamp(1, total.max(1));
        if bands.len() < blocks {
            bands.resize_with(blocks, BandScratch::default);
        }
        let bands = &mut bands[..blocks];
        for band in bands.iter_mut() {
            band.driven = false;
        }
        if blocks == 1 {
            scatter.run(0..total, &mut bands[0], currents, sums);
        } else {
            // Contiguous band blocks own disjoint patch ranges of the
            // current and sum buffers; per-band values do not depend on
            // the partition.
            let (mut cur_rest, mut sum_rest) = (&mut currents[..], &mut sums[..]);
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(blocks);
            for (b, band) in bands.iter_mut().enumerate() {
                let (lo, hi) = (b * total / blocks, (b + 1) * total / blocks);
                let patches = (hi - lo) * shape.ow;
                let (cur, rest) = std::mem::take(&mut cur_rest).split_at_mut(patches * acs);
                cur_rest = rest;
                let (sum, rest) = std::mem::take(&mut sum_rest).split_at_mut(patches * cols);
                sum_rest = rest;
                let scatter = &scatter;
                tasks.push(Box::new(move || scatter.run(lo..hi, band, cur, sum)));
            }
            nebula_tensor::pool::run_scoped(tasks);
        }
        *driven = bands.iter().any(|band| band.driven);
        if !*driven {
            return;
        }
        // Sequential accrual in ascending patch order per atomic crossbar.
        let mut ac = 0usize;
        for tile in self.tiles.iter_mut().flatten() {
            let chunks = tile.chunk_count();
            tile.accrue_batch(currents.chunks_exact(acs).map(|row| &row[ac..ac + chunks]));
            ac += chunks;
        }
    }

    pub(crate) fn read_energy(&self) -> Joules {
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::accumulated_read_energy)
            .sum()
    }

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for tile in self.tiles.iter_mut().flatten() {
            tile.set_kernel_path(path);
        }
    }

    /// Bytes of the current kernel path's conductance caches across this
    /// matrix's tiles, building any missing layouts first (see
    /// [`SuperTile::kernel_cache_bytes`]).
    fn kernel_cache_bytes(&mut self) -> usize {
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::kernel_cache_bytes)
            .sum()
    }
}

/// Shape of one synaptic stage's spike scatter: an `[n, c, h, w]` spike
/// map driven through `geom`'s taps onto an `oh × ow` output grid per
/// image. A dense stage is the 1×1 convolution of its `[n, rf]` input
/// viewed as `[n, rf, 1, 1]`.
#[derive(Debug, Clone, Copy)]
struct ScatterShape {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    geom: ConvGeometry,
}

impl ScatterShape {
    /// Checks `input` against a stage compiled for `rf` receptive-field
    /// rows: rank 4 with `c·kh·kw == rf` for a convolution (`geom` set),
    /// rank 2 with `rf` features for a dense stage.
    fn of(input: &[usize], rf: usize, conv: Option<ConvGeometry>) -> Result<Self, AnalogError> {
        match (conv, input) {
            (Some(geom), &[n, c, h, w]) if c * geom.kh * geom.kw == rf => {
                let (oh, ow) = geom.out_hw(h, w)?;
                Ok(Self {
                    n,
                    c,
                    h,
                    w,
                    oh,
                    ow,
                    geom,
                })
            }
            (Some(geom), _) => Err(AnalogError::BadGeometry {
                reason: format!(
                    "conv stage ({}×{} kernel, {rf} rows) expects [n, {}, h, w] input, got {input:?}",
                    geom.kh,
                    geom.kw,
                    rf / (geom.kh * geom.kw)
                ),
            }),
            (None, &[n, features]) if features == rf => Ok(Self {
                n,
                c: rf,
                h: 1,
                w: 1,
                oh: 1,
                ow: 1,
                geom: ConvGeometry::new(1, 1, 0),
            }),
            (None, _) => Err(AnalogError::BadGeometry {
                reason: format!("dense stage expects [n, {rf}] input, got {input:?}"),
            }),
        }
    }

    /// Output bands `(img, oy)`, each the `ow` patches of one output row.
    fn bands(&self) -> usize {
        self.n * self.oh
    }

    fn patches(&self) -> usize {
        self.n * self.oh * self.ow
    }
}

/// Where receptive-field row `r` lands: AC `first + g·step` of column
/// group `g` (ACs numbered in (segment, group, chunk) order), row
/// `local` within that AC.
#[derive(Debug, Clone, Copy)]
struct RowSlot {
    first: u32,
    step: u32,
    local: u32,
}

/// One worker's band accumulators, zero between bands.
#[derive(Debug, Clone, Default)]
struct BandScratch {
    /// Differential currents per (output column `ox`, AC): `ow` rows of
    /// [`EventScratch::slot_width`], each AC at its lane-padded slot.
    diff: Vec<f64>,
    /// Whether any row was driven since the block started.
    driven: bool,
}

/// Marks a `(kx, x)` tap that reaches no output column.
const NO_TAP: u32 = u32::MAX;

/// Per-stage event scratch, owned by each synaptic stage and rebuilt in
/// place every timestep, so steady-state timesteps allocate nothing
/// here (asserted by
/// `event_gather_scratch_does_not_grow_across_timesteps`).
#[derive(Debug, Clone, Default)]
pub(crate) struct EventScratch {
    /// Spiking `x` positions of every input line `(img, ch, y)`,
    /// ascending, in CSR form over `line_starts`. Sized to the input so
    /// the index pass can write every position and keep the spiking
    /// ones; `line_starts` marks the kept prefix of each line.
    spikes: Vec<u32>,
    line_starts: Vec<usize>,
    /// Output column `ox` that kernel column `kx` of input column `x`
    /// reaches (`x = ox·stride + kx − pad`), at `kx·w + x`; [`NO_TAP`]
    /// where none does.
    taps: Vec<u32>,
    /// Row → (AC, row) map of the stage's matrix, built once.
    rows: Vec<RowSlot>,
    /// Offset of each AC's slot in one `ox` row of the band
    /// accumulators, and that row's width.
    slots: Vec<usize>,
    slot_width: usize,
    /// Total current each (patch, AC) drew, patch-major.
    currents: Vec<f64>,
    /// Crossbar term of each (patch, output channel), patch-major.
    sums: Vec<f32>,
    /// One band accumulator set per worker block.
    bands: Vec<BandScratch>,
    /// Whether the last timestep drove any crossbar row.
    pub(crate) driven: bool,
}

impl EventScratch {
    /// Indexes the spiking (`> 0.5`) entries of `data` per `w`-wide
    /// input line, branch-free: every position is written and the
    /// cursor only advances past spiking ones. Returns the spike count.
    fn index_spikes(&mut self, data: &[f32], w: usize) -> usize {
        debug_assert!(u32::try_from(w).is_ok());
        let w = w.max(1);
        self.spikes.resize(data.len().max(self.spikes.len()), 0);
        self.line_starts.clear();
        let mut k = 0usize;
        for line in data.chunks_exact(w) {
            self.line_starts.push(k);
            let out = &mut self.spikes[k..k + w];
            let mut kept = 0usize;
            for (x, &v) in line.iter().enumerate() {
                out[kept] = x as u32;
                kept += usize::from(v > 0.5);
            }
            k += kept;
        }
        self.line_starts.push(k);
        k
    }

    /// Tabulates the output column each `(kx, x)` tap reaches.
    fn index_taps(&mut self, s: &ScatterShape) {
        let g = s.geom;
        self.taps.clear();
        for kx in 0..g.kw {
            self.taps
                .extend((0..s.w).map(|x| match (x + g.pad).checked_sub(kx) {
                    Some(u) if u % g.stride == 0 && u / g.stride < s.ow => (u / g.stride) as u32,
                    _ => NO_TAP,
                }));
        }
    }

    /// Builds the row → (AC, row) map and the accumulator slot layout of
    /// `matrix`, once.
    fn index_rows(&mut self, matrix: &SnnMatrix) {
        if self.rows.len() == matrix.rf {
            return;
        }
        self.rows.clear();
        self.slots.clear();
        let mut first = 0usize;
        let mut width = 0usize;
        for (seg, &seg_rows) in matrix.segment_rows.iter().enumerate() {
            let tiles = &matrix.tiles[seg];
            let (m, step) = (tiles[0].m(), tiles[0].chunk_count());
            self.rows.extend((0..seg_rows).map(|r| RowSlot {
                first: (first + r / m) as u32,
                step: step as u32,
                local: (r % m) as u32,
            }));
            for tile in tiles {
                for _ in 0..step {
                    self.slots.push(width);
                    width += tile.scratch_cols();
                }
            }
            first += step * tiles.len();
        }
        self.slot_width = width;
    }
}

/// The read-only half of one stage's scatter, shared by its worker
/// blocks.
struct Scatter<'a> {
    shape: ScatterShape,
    spikes: &'a [u32],
    line_starts: &'a [usize],
    taps: &'a [u32],
    rows: &'a [RowSlot],
    slots: &'a [usize],
    slot_width: usize,
    kernels: &'a [SpikeRowKernel<'a>],
    tiles: &'a [Vec<SuperTile>],
    cols: usize,
}

impl Scatter<'_> {
    /// Evaluates output bands `bands`, filling their patches' rows of
    /// `currents` (per AC) and `sums` (per output channel, pre-zeroed).
    ///
    /// For band `(img, oy)` it walks, per channel `ch` and kernel row
    /// `ky`, input line `(img, ch, oy·stride + ky − pad)`; per kernel
    /// column `kx` it adds row `(ch·kh + ky)·kw + kx` into the per-AC
    /// accumulators of every patch `ox` a spiking `x` of the line
    /// reaches. A patch meets each `(ch, ky, kx)` at most once, so every
    /// (patch, AC) accumulator receives its rows in ascending order from
    /// zero — the order a dense binary drive of the patch's `im2col`
    /// row visits them. The ACs are then merged in ascending order and
    /// each column group adds its `totals / unit` into the patch's sum,
    /// segment by segment, as
    /// [`SnnMatrix::dot_spikes_reference`] does.
    fn run(
        &self,
        bands: std::ops::Range<usize>,
        band: &mut BandScratch,
        currents: &mut [f64],
        sums: &mut [f32],
    ) {
        let s = &self.shape;
        let (kh, kw, stride, pad) = (s.geom.kh, s.geom.kw, s.geom.stride, s.geom.pad);
        let acs = self.kernels.len();
        let groups = self.tiles[0].len();
        let width = self.slot_width;
        band.diff.resize(s.ow * width, 0.0);
        let lo = bands.start;
        for b in bands {
            let (img, oy) = (b / s.oh, b % s.oh);
            let patch0 = (b - lo) * s.ow;
            let currents = &mut currents[patch0 * acs..(patch0 + s.ow) * acs];
            let mut hit = false;
            for ch in 0..s.c {
                for ky in 0..kh {
                    let Some(y) = (oy * stride + ky).checked_sub(pad) else {
                        continue;
                    };
                    if y >= s.h {
                        continue;
                    }
                    let line = (img * s.c + ch) * s.h + y;
                    let xs = &self.spikes[self.line_starts[line]..self.line_starts[line + 1]];
                    if xs.is_empty() {
                        continue;
                    }
                    let row0 = (ch * kh + ky) * kw;
                    for kx in 0..kw {
                        let slot = self.rows[row0 + kx];
                        let taps = &self.taps[kx * s.w..(kx + 1) * s.w];
                        for g in 0..groups {
                            let ac = slot.first as usize + g * slot.step as usize;
                            let reached = xs.iter().filter_map(|&x| {
                                let ox = taps[x as usize];
                                (ox != NO_TAP).then_some(ox as usize)
                            });
                            self.kernels[ac].add_row_at(
                                slot.local as usize,
                                reached.inspect(|_| hit = true),
                                &mut band.diff[self.slots[ac]..],
                                width,
                                &mut currents[ac..],
                                acs,
                            );
                        }
                    }
                }
            }
            if !hit {
                // Nothing reached this band: its sums stay zero and its
                // accumulators untouched.
                continue;
            }
            band.driven = true;
            // Merge. An accumulator is never `-0.0` (it starts at `+0.0`
            // and only adds values that are not `-0.0`), so `0.0 + d ==
            // d`, and an AC (or segment) no row reached adds exactly
            // `+0.0` — merging every AC reproduces the reference, which
            // merges only the driven ones.
            // The lane kernel only ever adds zeros into a slot's padding,
            // so clearing the `kernels()` live columns restores an
            // all-zero accumulator.
            for ox in 0..s.ow {
                let sum = &mut sums[(patch0 + ox) * self.cols..][..self.cols];
                let diff = &mut band.diff[ox * width..][..width];
                let mut ac = 0usize;
                for seg_tiles in self.tiles {
                    for (g, tile) in seg_tiles.iter().enumerate() {
                        let (k, first) = (tile.kernels(), self.slots[ac]);
                        // Kirchhoff current summation, AC-ascending, into
                        // the first AC's slot.
                        for a in ac + 1..ac + tile.chunk_count() {
                            let (head, rest) = diff.split_at_mut(self.slots[a]);
                            for (t, d) in head[first..first + k].iter_mut().zip(&mut rest[..k]) {
                                *t += std::mem::take(d);
                            }
                        }
                        let unit = tile.unit_current().0;
                        for (o, t) in sum[g * M..].iter_mut().zip(&mut diff[first..first + k]) {
                            *o += (std::mem::take(t) / unit) as f32;
                        }
                        ac += tile.chunk_count();
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum SpikingAnalogStage {
    /// Crossbar-backed dense synapses + digital bias injection.
    Dense {
        matrix: SnnMatrix,
        bias: Vec<f32>,
        scratch: EventScratch,
    },
    /// Crossbar-backed convolution + bias; spikes are scattered per
    /// output band, never lowered to `im2col` patches.
    Conv {
        matrix: SnnMatrix,
        bias: Vec<f32>,
        geom: ConvGeometry,
        scratch: EventScratch,
    },
    /// IF population on the column outputs.
    IntegrateFire(IfPopulation),
    /// Software average pooling (fixed-weight circuit on hardware).
    AvgPool {
        k: usize,
    },
    Flatten,
}

impl SpikingAnalogStage {
    /// The programmed crossbars of a synaptic stage.
    pub(crate) fn matrix(&self) -> Option<&SnnMatrix> {
        match self {
            SpikingAnalogStage::Dense { matrix, .. } | SpikingAnalogStage::Conv { matrix, .. } => {
                Some(matrix)
            }
            _ => None,
        }
    }
}

/// A spiking network executing its synaptic arithmetic on SNN-mode
/// crossbar models.
///
/// Build from a *converted* [`SpikingNetwork`] with
/// [`compile_snn`]; the conversion's threshold balancing (v_th = 1)
/// carries over unchanged.
#[derive(Debug, Clone)]
pub struct AnalogSpikingNetwork {
    pub(crate) stages: Vec<SpikingAnalogStage>,
    pub(crate) encoding: InputEncoding,
    pub(crate) timestep_waves: u64,
    /// Index of `stages[0]` in the network this one was cut from (0
    /// unless it is a multi-chip unit), so geometry errors name the
    /// whole network's stage.
    pub(crate) first_stage: usize,
}

/// Compiles a converted spiking network onto SNN-mode crossbars.
///
/// # Errors
///
/// Returns [`AnalogError::Unsupported`] for stages the analog executor
/// cannot realize (depthwise convolutions, quantizer stages — quantize
/// *before* conversion instead).
pub fn compile_snn(
    snn: &SpikingNetwork,
    config: &CrossbarConfig,
) -> Result<AnalogSpikingNetwork, AnalogError> {
    let mut stages = Vec::with_capacity(snn.stages().len());
    for stage in snn.stages() {
        match stage {
            SnnStage::Synaptic(Layer::Dense(d)) => stages.push(SpikingAnalogStage::Dense {
                matrix: SnnMatrix::program(&d.weight.value, config)?,
                bias: d.bias.value.data().to_vec(),
                scratch: EventScratch::default(),
            }),
            SnnStage::Synaptic(Layer::Conv2d(c)) => {
                let s = c.weight.value.shape();
                let (oc, ckk) = (s[0], s[1] * s[2] * s[3]);
                let wmat = c.weight.value.reshape(&[oc, ckk])?.transpose()?;
                stages.push(SpikingAnalogStage::Conv {
                    matrix: SnnMatrix::program(&wmat, config)?,
                    bias: c.bias.value.data().to_vec(),
                    geom: c.geom,
                    scratch: EventScratch::default(),
                });
            }
            SnnStage::Synaptic(Layer::AvgPool(p)) => {
                stages.push(SpikingAnalogStage::AvgPool { k: p.k })
            }
            SnnStage::Synaptic(Layer::Flatten(_)) => stages.push(SpikingAnalogStage::Flatten),
            SnnStage::IntegrateFire(pop) => stages.push(SpikingAnalogStage::IntegrateFire(
                IfPopulation::with_dynamics(pop.threshold, pop.reset, pop.leak, pop.refractory),
            )),
            SnnStage::Synaptic(other) => {
                return Err(AnalogError::Unsupported {
                    layer: other.name().to_string(),
                })
            }
        }
    }
    Ok(AnalogSpikingNetwork {
        stages,
        encoding: InputEncoding::Poisson,
        timestep_waves: 0,
        first_stage: 0,
    })
}

impl AnalogSpikingNetwork {
    /// Sets the input encoding (defaults to Poisson rate coding).
    pub fn set_encoding(&mut self, encoding: InputEncoding) {
        self.encoding = encoding;
    }

    /// Selects the crossbar inner-loop kernel every programmed tile
    /// evaluates through (default [`KernelPath::Auto`]). Outputs are
    /// bit-identical on both paths; under Auto read energy uses the
    /// per-row-sum formulation and agrees with the scalar/reference path
    /// to a relative error ≤ 1e-12 per dot instead of bitwise (see
    /// [`nebula_crossbar::kernel`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                matrix.set_kernel_path(path);
            }
        }
    }

    /// Number of programmed super-tiles across all synaptic stages —
    /// the address space [`kill_ac`](Self::kill_ac) indexes.
    pub fn supertile_count(&self) -> usize {
        self.stages
            .iter()
            .filter_map(SpikingAnalogStage::matrix)
            .map(|m| m.tiles.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Samples hard faults into every programmed super-tile, in stage
    /// then tile order (the draw sequence is reproducible for a fixed
    /// seed). Returns the total number of faulty cells. The event-driven
    /// engine must stay bit-identical to the sequential reference under
    /// any fault map — faults perturb conductances, not the active-set
    /// bookkeeping.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        let mut faulty = 0;
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for tile in matrix.tiles.iter_mut().flatten() {
                    faulty += tile.inject_faults(model, rng);
                }
            }
        }
        faulty
    }

    /// Advances every programmed crossbar's age by `dt`, driving
    /// retention-drift faults (see [`SuperTile::advance_age`]).
    pub fn advance_age(&mut self, dt: Seconds) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for tile in matrix.tiles.iter_mut().flatten() {
                    tile.advance_age(dt);
                }
            }
        }
    }

    /// Power-gates one atomic crossbar: `tile` counts super-tiles in
    /// stage-then-tile compile order (see
    /// [`supertile_count`](Self::supertile_count)), `ac` is the AC index
    /// within it.
    ///
    /// # Panics
    ///
    /// Panics when `tile` or `ac` is out of range.
    pub fn kill_ac(&mut self, tile: usize, ac: usize) {
        let mut idx = 0;
        for stage in &mut self.stages {
            if let SpikingAnalogStage::Dense { matrix, .. }
            | SpikingAnalogStage::Conv { matrix, .. } = stage
            {
                for t in matrix.tiles.iter_mut().flatten() {
                    if idx == tile {
                        t.kill_ac(ac);
                        return;
                    }
                    idx += 1;
                }
            }
        }
        panic!("super-tile {tile} outside the {idx} programmed tiles");
    }

    /// Bytes the conductance caches backing the current kernel path
    /// occupy across all programmed tiles (building any missing layouts
    /// first) — the footprint `bench_hotpath` reports per path.
    pub fn conductance_cache_bytes(&mut self) -> usize {
        self.stages
            .iter_mut()
            .map(|s| match s {
                SpikingAnalogStage::Dense { matrix, .. }
                | SpikingAnalogStage::Conv { matrix, .. } => matrix.kernel_cache_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Output-potential shape this network produces for `input_shape`
    /// — the shape [`run`](Self::run) returns (before accumulation the
    /// per-timestep tensors have the same shape). Used by the zero
    /// timestep corner and by the serving layer to size empty results
    /// without executing a wave.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the compiled stages.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        let mut shape = input_shape.to_vec();
        if shape.is_empty() {
            return Err(AnalogError::BadGeometry {
                reason: "rank-0 input".into(),
            });
        }
        for (at, stage) in self.stages.iter().enumerate() {
            shape = match stage {
                SpikingAnalogStage::Dense { matrix, .. } => {
                    ScatterShape::of(&shape, matrix.rf, None).map_err(|e| at_stage(at, e))?;
                    vec![shape[0], matrix.cols]
                }
                SpikingAnalogStage::Conv { matrix, geom, .. } => {
                    let s = ScatterShape::of(&shape, matrix.rf, Some(*geom))
                        .map_err(|e| at_stage(at, e))?;
                    vec![s.n, matrix.cols, s.oh, s.ow]
                }
                SpikingAnalogStage::IntegrateFire(_) => shape,
                SpikingAnalogStage::AvgPool { k } => {
                    if shape.len() != 4 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("avg-pool stage expects rank-4 input, got {shape:?}"),
                        });
                    }
                    vec![shape[0], shape[1], shape[2] / k, shape[3] / k]
                }
                SpikingAnalogStage::Flatten => {
                    vec![shape[0], shape[1..].iter().product()]
                }
            };
        }
        Ok(shape)
    }

    pub(crate) fn reset_state(&mut self) {
        for stage in &mut self.stages {
            if let SpikingAnalogStage::IntegrateFire(p) = stage {
                p.reset_state();
            }
        }
    }

    /// Runs `timesteps` of circuit-backed spiking inference and returns
    /// the accumulated output potentials `[N, classes]`.
    ///
    /// All samples advance through each timestep together: every
    /// synaptic stage scatters the wave's spikes through its crossbars
    /// in one event-driven pass instead of one dense `dot` per sample
    /// and patch. Outputs, RNG consumption, waves and scalar energy are
    /// bit-identical to [`run_sequential`](Self::run_sequential).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] naming the first stage the
    /// input does not fit; propagates circuit and tensor failures.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        self.run_impl(inputs, timesteps, rng, false)
    }

    /// [`run`](Self::run) through the legacy path: one uncached
    /// per-cell crossbar evaluation per sample per timestep — the
    /// pre-cache baseline. The encoder consumes the RNG identically
    /// (whole batch per timestep), so outputs match [`run`](Self::run)
    /// bit for bit. Kept for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    pub fn run_sequential<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        self.run_impl(inputs, timesteps, rng, true)
    }

    /// Runs `timesteps` of circuit-backed spiking inference for a batch
    /// of independently seeded request groups — the serving layer's
    /// entry point for dynamically batched SNN jobs.
    ///
    /// `groups` partitions the batch rows: `(rows, seed)` covers the
    /// next `rows` samples and encodes them, every timestep, from its
    /// own [`rand::rngs::StdRng`] stream seeded with `seed`. Because a
    /// solo run over one group's rows consumes its RNG in exactly the
    /// same order (row-major per timestep), the output potentials are
    /// **bit-identical** to concatenating
    /// `run(group_rows, timesteps, StdRng::seed_from_u64(seed))` per
    /// group — and hence, by the batched-evaluator contract, to
    /// [`run_sequential`](Self::run_sequential) per group. Coalescing
    /// requests into one wave therefore cannot change any tenant's
    /// answer.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the group row counts
    /// don't sum to the batch size; propagates circuit and tensor
    /// failures.
    pub fn run_seeded_groups(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
    ) -> Result<Tensor, AnalogError> {
        let mut encode = seeded_group_encoder(self.encoding, inputs, groups)?;
        self.run_with_encoder(inputs, timesteps, false, &mut encode)
    }

    fn run_impl<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
        reference: bool,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder(inputs, timesteps, reference, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    fn run_with_encoder(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        reference: bool,
        encode: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Result<Tensor, AnalogError> {
        self.reset_state();
        let mut acc: Option<Tensor> = None;
        let stage_count = self.stages.len();
        for _ in 0..timesteps {
            let h = self.step_range(encode(inputs), 0..stage_count, reference)?;
            match &mut acc {
                Some(a) => a.add_assign(&h)?,
                none => *none = Some(h),
            }
        }
        match acc {
            Some(a) => Ok(a),
            // Zero timesteps: no wave ran and no energy accrued, but the
            // result must still have the shape a one-or-more-timestep
            // run would produce (all-zero potentials), so callers —
            // the serving layer in particular — can split it per
            // request. (This used to return a `[0, 0]` placeholder.)
            None => Ok(Tensor::zeros(&self.output_shape(inputs.shape())?)),
        }
    }

    /// Advances one already-encoded spike wave `h` through stages
    /// `range`, mutating IF state and accruing crossbar energy exactly
    /// as the matching slice of a full timestep would. Extracted from
    /// the timestep loop so the multi-chip pipelined executor
    /// ([`crate::multichip`]) can advance each chip's contiguous stage
    /// span independently while staying bit-identical to
    /// [`run_sequential`](Self::run_sequential): for a fixed wave the
    /// stage loop is a left-to-right fold, so splitting it at any
    /// boundary changes nothing.
    pub(crate) fn step_range(
        &mut self,
        h: Tensor,
        range: std::ops::Range<usize>,
        reference: bool,
    ) -> Result<Tensor, AnalogError> {
        self.step_range_with(h, range, reference, nebula_tensor::pool::size())
    }

    /// [`step_range`](Self::step_range) with the crossbar worker count
    /// explicit (`workers == 1` keeps the slice entirely on the calling
    /// thread — the pipelined executor's per-stage mode). Bit-identical
    /// for any worker count.
    pub(crate) fn step_range_with(
        &mut self,
        mut h: Tensor,
        range: std::ops::Range<usize>,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let mut stages = std::mem::take(&mut self.stages);
        let step: Result<(), AnalogError> = (|| {
            for (at, stage) in stages[range.clone()].iter_mut().enumerate() {
                let waves = &mut self.timestep_waves;
                let mut count_waves = |y: &Tensor, cols: usize| *waves += (y.len() / cols) as u64;
                h = match stage {
                    SpikingAnalogStage::Dense {
                        matrix,
                        bias,
                        scratch,
                    } => matrix
                        .step(&h, None, bias, scratch, reference, workers)
                        .inspect(|y| count_waves(y, matrix.cols)),
                    SpikingAnalogStage::Conv {
                        matrix,
                        bias,
                        geom,
                        scratch,
                        ..
                    } => matrix
                        .step(&h, Some(*geom), bias, scratch, reference, workers)
                        .inspect(|y| count_waves(y, matrix.cols)),
                    SpikingAnalogStage::IntegrateFire(pop) => Ok(pop.step(&h)?),
                    SpikingAnalogStage::AvgPool { k } => Ok(avg_pool2d(&h, *k)?),
                    SpikingAnalogStage::Flatten => {
                        let n = h.shape()[0];
                        let rest: usize = h.shape()[1..].iter().product();
                        Ok(h.reshape(&[n, rest])?)
                    }
                }
                .map_err(|e| at_stage(self.first_stage + range.start + at, e))?;
            }
            Ok(())
        })();
        self.stages = stages;
        step?;
        Ok(h)
    }

    /// Classification accuracy of the circuit-backed SNN.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    ///
    /// # Panics
    ///
    /// Panics when the label count differs from the batch size.
    pub fn accuracy<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        timesteps: usize,
        rng: &mut R,
    ) -> Result<f64, AnalogError> {
        let potentials = self.run(inputs, timesteps, rng)?;
        let preds = potentials.argmax_rows()?;
        assert_eq!(preds.len(), labels.len());
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }

    /// Read energy of every stage in stage order, `Joules::ZERO` for
    /// stages without crossbars. Summing it gives
    /// [`read_energy`](Self::read_energy); a sharded network folds its
    /// units' stages into one sum the same way, so the totals agree bit
    /// for bit.
    pub(crate) fn stage_read_energies(&self) -> impl Iterator<Item = Joules> + '_ {
        self.stages
            .iter()
            .map(|s| s.matrix().map_or(Joules::ZERO, SnnMatrix::read_energy))
    }

    /// Total analog read energy the crossbars dissipated — the
    /// event-driven energy figure (silent rows are free).
    pub fn read_energy(&self) -> Joules {
        self.stage_read_energies().sum()
    }

    /// Crossbar waves executed (one per sample per output position per
    /// timestep).
    pub fn waves(&self) -> u64 {
        self.timestep_waves
    }
}

/// Checks that `groups` partitions the batch rows of `inputs`, then
/// returns the per-timestep encoder for them: group `(rows, seed)`
/// covers the next `rows` batch rows and draws from its own
/// [`rand::rngs::StdRng`] seeded with `seed`, elementwise in row-major
/// order — exactly the draws (Poisson) or values (Constant) a solo
/// [`encode_with`] over that group's rows would produce. Every
/// seeded-groups entry point, single-chip and sharded, encodes through
/// this, which is what keeps the serving paths bit-identical.
///
/// # Errors
///
/// Returns [`AnalogError::BadGeometry`] for a rank-0 input or when the
/// group row counts don't sum to the batch size.
pub(crate) fn seeded_group_encoder<'g>(
    encoding: InputEncoding,
    inputs: &Tensor,
    groups: &'g [(usize, u64)],
) -> Result<impl FnMut(&Tensor) -> Tensor + Send + 'g, AnalogError> {
    let n = *inputs
        .shape()
        .first()
        .ok_or_else(|| AnalogError::BadGeometry {
            reason: "rank-0 input".into(),
        })?;
    let total: usize = groups.iter().map(|&(rows, _)| rows).sum();
    if total != n {
        return Err(AnalogError::BadGeometry {
            reason: format!("seeded groups cover {total} rows, batch has {n}"),
        });
    }
    let row_elems = inputs.len().checked_div(n).unwrap_or(0);
    let mut rngs: Vec<rand::rngs::StdRng> = groups
        .iter()
        .map(|&(_, seed)| rand::SeedableRng::seed_from_u64(seed))
        .collect();
    Ok(move |x: &Tensor| {
        let mut t = Tensor::zeros(x.shape());
        let mut offset = 0usize;
        for (&(rows, _), rng) in groups.iter().zip(rngs.iter_mut()) {
            let lo = offset * row_elems;
            let hi = (offset + rows) * row_elems;
            match encoding {
                InputEncoding::Poisson => {
                    for (d, &p) in t.data_mut()[lo..hi].iter_mut().zip(&x.data()[lo..hi]) {
                        if rng.gen::<f32>() < p.clamp(0.0, 1.0) {
                            *d = 1.0;
                        }
                    }
                }
                InputEncoding::Constant => {
                    for (d, &p) in t.data_mut()[lo..hi].iter_mut().zip(&x.data()[lo..hi]) {
                        *d = p.clamp(0.0, 1.0);
                    }
                }
            }
            offset += rows;
        }
        t
    })
}

/// Encodes one timestep of input under `encoding`, drawing from `rng`
/// elementwise in row-major order (Poisson consumes exactly one draw
/// per element; Constant consumes none).
pub(crate) fn encode_with<R: Rng + ?Sized>(
    encoding: InputEncoding,
    inputs: &Tensor,
    rng: &mut R,
) -> Tensor {
    match encoding {
        InputEncoding::Poisson => {
            let mut t = Tensor::zeros(inputs.shape());
            for (d, &p) in t.data_mut().iter_mut().zip(inputs.data()) {
                if rng.gen::<f32>() < p.clamp(0.0, 1.0) {
                    *d = 1.0;
                }
            }
            t
        }
        InputEncoding::Constant => inputs.clamp(0.0, 1.0),
    }
}

/// Compiles with the paper's default SNN-mode crossbars (0.25 V binary
/// drivers).
///
/// # Errors
///
/// See [`compile_snn`].
pub fn compile_snn_default(snn: &SpikingNetwork) -> Result<AnalogSpikingNetwork, AnalogError> {
    compile_snn(snn, &CrossbarConfig::paper_default(Mode::Snn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::convert::{ann_to_snn, ConversionConfig};
    use nebula_nn::optim::{train, Dataset, TrainConfig};
    use nebula_nn::snn::ResetMode;
    use nebula_nn::{Layer as L, Network};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(404)
    }

    /// Trains a small two-feature classifier with inputs in [0, 1].
    fn trained_net(r: &mut rand::rngs::StdRng) -> (Network, Dataset) {
        let inputs = Tensor::rand_uniform(&[120, 2], 0.0, 1.0, r);
        let labels: Vec<usize> = (0..120)
            .map(|i| usize::from(inputs.data()[2 * i] < inputs.data()[2 * i + 1]))
            .collect();
        let data = Dataset::new(inputs, labels).unwrap();
        let mut net = Network::new(vec![L::dense(2, 12, r), L::relu(), L::dense(12, 2, r)]);
        let cfg = TrainConfig::builder().epochs(30).batch_size(20).build();
        train(&mut net, &data, &cfg, r).unwrap();
        (net, data)
    }

    #[test]
    fn packed_scatter_dismisses_silent_items_without_energy() {
        let weight = Tensor::from_vec(
            (0..10 * 3).map(|i| (i % 5) as f32 / 4.0 - 0.4).collect(),
            &[10, 3],
        )
        .unwrap();
        let config = CrossbarConfig::paper_default(Mode::Snn);
        let mut packed = SnnMatrix::program(&weight, &config).unwrap();
        packed.set_kernel_path(KernelPath::Auto);
        let mut scratch = EventScratch::default();
        let workers = nebula_tensor::pool::size();

        // A batch of only silent items must produce zero outputs and
        // touch neither the LUT nor the energy counters.
        let silent = Tensor::zeros(&[3, 10]);
        let out = packed
            .step(&silent, None, &[0.0; 3], &mut scratch, false, workers)
            .unwrap();
        assert_eq!(out.shape(), [3, 3]);
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert!(!scratch.driven);
        assert_eq!(
            packed.read_energy(),
            Joules::ZERO,
            "silent items must not accrue read energy"
        );

        // Mixed batch (silent / single-row / multi-row): bitwise equal to
        // the per-item scalar reference; silent item contributes nothing.
        let mut scalar = SnnMatrix::program(&weight, &config).unwrap();
        scalar.set_kernel_path(KernelPath::Scalar);
        let mut spikes = vec![vec![0.0f32; 10]; 3];
        spikes[1][4] = 1.0;
        for r in [0usize, 3, 9] {
            spikes[2][r] = 1.0;
        }
        let x = Tensor::from_vec(spikes.concat(), &[3, 10]).unwrap();
        let out = packed
            .step(&x, None, &[0.0; 3], &mut scratch, false, workers)
            .unwrap();
        assert!(scratch.driven);
        for (i, item) in spikes.iter().enumerate() {
            let reference = scalar.dot_spikes_reference(item).unwrap();
            for (c, (&q, &s)) in out.data()[i * 3..(i + 1) * 3]
                .iter()
                .zip(&reference)
                .enumerate()
            {
                assert_eq!(q.to_bits(), (s + 0.0).to_bits(), "item {i} col {c}");
            }
        }
        // Energy: the packed layout accrues via per-row sums, within
        // 1e-12 of the per-cell reference chain on the same activity.
        let (e_auto, e_ref) = (packed.read_energy().0, scalar.read_energy().0);
        assert!(
            (e_auto - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "auto energy {e_auto} vs reference {e_ref}"
        );
    }

    #[test]
    fn circuit_backed_snn_classifies_like_functional_snn() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let mut functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let func_acc = functional
            .accuracy(&data.inputs, &data.labels, 150, &mut r)
            .unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let analog_acc = analog
            .accuracy(&data.inputs, &data.labels, 150, &mut r)
            .unwrap();
        assert!(
            (func_acc - analog_acc).abs() < 0.12,
            "functional {func_acc} vs circuit {analog_acc}"
        );
        assert!(analog_acc > 0.8, "circuit SNN failed: {analog_acc}");
    }

    #[test]
    fn silent_timesteps_cost_no_crossbar_energy() {
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        // Zero the biases: a bias is a constant current injection that
        // legitimately fires neurons even with silent inputs, so the
        // zero-energy property only holds for bias-free networks.
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                for b in d.bias.value.data_mut() {
                    *b = 0.0;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let zeros = Tensor::zeros(&[4, 2]);
        analog.run(&zeros, 20, &mut r).unwrap();
        assert_eq!(
            analog.read_energy(),
            Joules::ZERO,
            "all-silent input must dissipate nothing in the arrays"
        );
    }

    /// A small conv + dense spiking stack exercising both scatter shapes.
    fn conv_snn(r: &mut rand::rngs::StdRng) -> AnalogSpikingNetwork {
        let snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(L::conv2d(1, 2, 3, 1, 1, r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
                SnnStage::Synaptic(L::flatten()),
                SnnStage::Synaptic(L::dense(2 * 8 * 8, 3, r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            ],
            InputEncoding::Poisson,
        );
        compile_snn_default(&snn).unwrap()
    }

    /// Capacities of every event-scratch buffer, per synaptic stage:
    /// the spike and tap indexes, the row map and slot layout, the
    /// per-patch currents and sums, and every worker's band
    /// accumulators.
    fn scratch_caps(net: &AnalogSpikingNetwork) -> Vec<Vec<usize>> {
        net.stages
            .iter()
            .filter_map(|s| match s {
                SpikingAnalogStage::Dense { scratch, .. }
                | SpikingAnalogStage::Conv { scratch, .. } => {
                    let mut caps = vec![
                        scratch.spikes.capacity(),
                        scratch.line_starts.capacity(),
                        scratch.taps.capacity(),
                        scratch.rows.capacity(),
                        scratch.slots.capacity(),
                        scratch.currents.capacity(),
                        scratch.sums.capacity(),
                        scratch.bands.capacity(),
                    ];
                    for band in &scratch.bands {
                        caps.push(band.diff.capacity());
                    }
                    Some(caps)
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn event_gather_scratch_does_not_grow_across_timesteps() {
        // The per-stage event scratch must amortize to zero allocations
        // per timestep: a second identically seeded run replays exactly
        // the same activity, so if the vectors are truly rebuilt in
        // place their capacities cannot move.
        let mut r = rng();
        let mut analog = conv_snn(&mut r);
        let x = Tensor::rand_uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut r);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r1).unwrap();
        let caps = scratch_caps(&analog);
        assert_eq!(caps.len(), 2, "one scratch per synaptic stage");
        assert!(
            caps.iter().flatten().all(|&c| c > 0),
            "every warm scratch buffer should hold capacity: {caps:?}"
        );
        let mut r2 = rand::rngs::StdRng::seed_from_u64(41);
        analog.run(&x, 25, &mut r2).unwrap();
        assert_eq!(
            scratch_caps(&analog),
            caps,
            "steady-state timesteps must not grow the event scratch"
        );
    }

    #[test]
    fn band_blocks_are_bitwise_for_any_worker_count() {
        // The scatter fans contiguous band blocks out over `workers`;
        // outputs, waves and (scalar) energy must not depend on the
        // split, including more workers than bands.
        let mut r = rng();
        let mut master = conv_snn(&mut r);
        master.set_kernel_path(KernelPath::Scalar);
        let x = Tensor::rand_uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut r);
        let len = master.stages.len();
        let run = |workers: usize| {
            let mut net = master.clone();
            let mut enc = rand::rngs::StdRng::seed_from_u64(8);
            let outs: Vec<Vec<u32>> = (0..12)
                .map(|_| {
                    let h = encode_with(InputEncoding::Poisson, &x, &mut enc);
                    let y = net.step_range_with(h, 0..len, false, workers).unwrap();
                    y.data().iter().map(|v| v.to_bits()).collect()
                })
                .collect();
            (outs, net.waves(), net.read_energy().0.to_bits())
        };
        let one = run(1);
        for workers in [2, 3, 64] {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn all_silent_timesteps_skip_crossbars_and_match_sequential() {
        // Constant-encoded zeros never spike, so every timestep takes the
        // whole-layer skip in every synaptic stage: no crossbar energy,
        // and outputs bitwise identical to the sequential reference
        // (which walks the full dense machinery).
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                for b in d.bias.value.data_mut() {
                    *b = 0.0;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        let mut slow = compile_snn_default(&functional).unwrap();
        fast.set_encoding(InputEncoding::Constant);
        slow.set_encoding(InputEncoding::Constant);
        let zeros = Tensor::zeros(&[4, 2]);
        let yf = fast.run(&zeros, 12, &mut r).unwrap();
        let ys = slow.run_sequential(&zeros, 12, &mut r).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.read_energy(), Joules::ZERO);
        assert_eq!(slow.read_energy(), Joules::ZERO);
        assert_eq!(fast.waves(), slow.waves(), "waves still tick when silent");
    }

    #[test]
    fn silent_first_layer_with_bias_matches_sequential_bitwise() {
        // All-silent input into a *biased* first layer: the skip path
        // must still inject the bias (as `0.0 + b`, so even a `-0.0`
        // bias keeps identical bits), which can fire downstream neurons
        // whose spikes then drive the later crossbars for real. Scalar
        // kernels make even the energy comparison bitwise.
        let mut r = rng();
        let (mut net, data) = trained_net(&mut r);
        let mut biased = false;
        for layer in net.layers_mut() {
            if let nebula_nn::layer::Layer::Dense(d) = layer {
                if !biased {
                    for (i, b) in d.bias.value.data_mut().iter_mut().enumerate() {
                        *b = 0.3 + 0.05 * i as f32;
                    }
                    biased = true;
                }
            }
        }
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        fast.set_kernel_path(KernelPath::Scalar);
        let mut slow = fast.clone();
        fast.set_encoding(InputEncoding::Constant);
        slow.set_encoding(InputEncoding::Constant);
        let zeros = Tensor::zeros(&[3, 2]);
        let yf = fast.run(&zeros, 30, &mut r).unwrap();
        let ys = slow.run_sequential(&zeros, 30, &mut r).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.read_energy(), slow.read_energy());
        assert!(
            fast.read_energy() > Joules::ZERO,
            "bias-driven downstream spikes should reach the crossbars"
        );
    }

    #[test]
    fn conv_event_path_matches_sequential_bitwise() {
        let mut r = rng();
        let mut fast = conv_snn(&mut r);
        let mut slow = fast.clone();
        let x = Tensor::rand_uniform(&[2, 1, 8, 8], 0.0, 0.6, &mut r);
        let mut rf = rand::rngs::StdRng::seed_from_u64(77);
        let mut rs = rand::rngs::StdRng::seed_from_u64(77);
        let yf = fast.run(&x, 20, &mut rf).unwrap();
        let ys = slow.run_sequential(&x, 20, &mut rs).unwrap();
        assert_eq!(yf.shape(), ys.shape());
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(fast.waves(), slow.waves());
    }

    #[test]
    fn busier_inputs_cost_more_energy() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut quiet = compile_snn_default(&functional).unwrap();
        let mut busy = compile_snn_default(&functional).unwrap();
        quiet.run(&Tensor::full(&[4, 2], 0.05), 30, &mut r).unwrap();
        busy.run(&Tensor::full(&[4, 2], 0.9), 30, &mut r).unwrap();
        assert!(
            busy.read_energy() > quiet.read_energy() * 2.0,
            "event-driven scaling broken: {} vs {}",
            busy.read_energy(),
            quiet.read_energy()
        );
    }

    #[test]
    fn batched_run_matches_sequential_reference_exactly() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut fast = compile_snn_default(&functional).unwrap();
        let mut slow = fast.clone();
        let cols = data.inputs.shape()[1];
        let x = Tensor::from_vec(data.inputs.data()[..16 * cols].to_vec(), &[16, cols]).unwrap();
        // Same seed for both legs: the Poisson encoder draws per
        // timestep for the whole batch, so RNG consumption is identical.
        let mut scalar = fast.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let mut r_fast = rand::rngs::StdRng::seed_from_u64(9);
        let mut r_slow = rand::rngs::StdRng::seed_from_u64(9);
        let mut r_scalar = rand::rngs::StdRng::seed_from_u64(9);
        let yf = fast.run(&x, 40, &mut r_fast).unwrap();
        let ys = slow.run_sequential(&x, 40, &mut r_slow).unwrap();
        let yk = scalar.run(&x, 40, &mut r_scalar).unwrap();
        assert_eq!(yf.shape(), ys.shape());
        for ((a, b), c) in yf.data().iter().zip(ys.data()).zip(yk.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast {a} vs reference {b}");
            assert_eq!(c.to_bits(), b.to_bits(), "scalar {c} vs reference {b}");
        }
        // Scalar kernel: energy bitwise-identical to the reference leg;
        // auto kernel: per-row energy re-association within 1e-12.
        assert_eq!(scalar.read_energy(), slow.read_energy());
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "auto energy {e_vec} vs reference {e_ref}"
        );
        assert_eq!(fast.waves(), slow.waves());
    }

    #[test]
    fn seeded_groups_match_solo_runs_bitwise() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let compiled = compile_snn_default(&functional).unwrap();
        let cols = data.inputs.shape()[1];
        // Three requests of 2, 1 and 3 samples with distinct seeds.
        let groups = [(2usize, 11u64), (1, 22), (3, 33)];
        let n: usize = groups.iter().map(|g| g.0).sum();
        let x = Tensor::from_vec(data.inputs.data()[..n * cols].to_vec(), &[n, cols]).unwrap();
        let mut batched = compiled.clone();
        let y = batched.run_seeded_groups(&x, 60, &groups).unwrap();
        assert_eq!(y.shape(), [n, 2]);
        let out_cols = y.shape()[1];
        let mut offset = 0usize;
        for &(rows, seed) in &groups {
            let xg = Tensor::from_vec(
                x.data()[offset * cols..(offset + rows) * cols].to_vec(),
                &[rows, cols],
            )
            .unwrap();
            // The per-group reference is the *sequential* evaluator with
            // that group's own RNG stream — the serving bit-identity
            // contract.
            let mut solo = compiled.clone();
            let mut rg: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(seed);
            let yg = solo.run_sequential(&xg, 60, &mut rg).unwrap();
            for (i, (a, b)) in y.data()[offset * out_cols..(offset + rows) * out_cols]
                .iter()
                .zip(yg.data())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "group seed {seed}, element {i}: batched {a} vs solo {b}"
                );
            }
            offset += rows;
        }
    }

    #[test]
    fn zero_timesteps_yield_shaped_zeros_and_no_energy() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let mut analog = compile_snn_default(&functional).unwrap();
        let x = Tensor::from_vec(data.inputs.data()[..5 * 2].to_vec(), &[5, 2]).unwrap();
        let y = analog.run(&x, 0, &mut r).unwrap();
        assert_eq!(
            y.shape(),
            [5, 2],
            "zero-timestep output keeps the batch shape"
        );
        assert!(y.data().iter().all(|&v| v == 0.0));
        assert_eq!(analog.read_energy(), Joules::ZERO);
        assert_eq!(analog.waves(), 0);
        let mut seq = compile_snn_default(&functional).unwrap();
        let ys = seq.run_sequential(&x, 0, &mut r).unwrap();
        assert_eq!(ys.shape(), y.shape());
        assert_eq!(seq.read_energy(), Joules::ZERO);
    }

    #[test]
    fn output_shape_walks_every_stage_kind() {
        let mut r = rng();
        let (net, data) = trained_net(&mut r);
        let functional = ann_to_snn(&net, &data, &ConversionConfig::default()).unwrap();
        let analog = compile_snn_default(&functional).unwrap();
        assert_eq!(analog.output_shape(&[7, 2]).unwrap(), vec![7, 2]);
        assert!(analog.output_shape(&[7, 3]).is_err(), "wrong feature width");
        assert!(analog.output_shape(&[]).is_err(), "rank-0 input");
    }

    #[test]
    fn malformed_inputs_are_typed_geometry_errors_on_every_entry_point() {
        // A conv stage compiled for 2 input channels: 3 or 1 channels
        // (wrong receptive field) and a rank-2 tensor must all fail with
        // a geometry error naming the stage, never panic or run.
        let mut r = rng();
        let snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(L::conv2d(2, 3, 3, 1, 1, &mut r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
                SnnStage::Synaptic(L::flatten()),
                SnnStage::Synaptic(L::dense(3 * 6 * 6, 4, &mut r)),
            ],
            InputEncoding::Constant,
        );
        let net = compile_snn_default(&snn).unwrap();
        let expect_stage = |res: Result<Tensor, AnalogError>, stage: &str, what: &str| match res {
            Err(AnalogError::BadGeometry { reason }) => {
                assert!(reason.starts_with(stage), "{what}: {reason}");
            }
            other => panic!("{what}: expected a geometry error, got {other:?}"),
        };
        let bad = [
            Tensor::full(&[1, 3, 6, 6], 0.9),
            Tensor::full(&[1, 1, 6, 6], 0.9),
            Tensor::full(&[1, 72], 0.9),
        ];
        for x in &bad {
            let what = format!("input {:?}", x.shape());
            expect_stage(net.clone().run(x, 3, &mut r), "stage 0", &what);
            expect_stage(net.clone().run_sequential(x, 3, &mut r), "stage 0", &what);
            let mut sharded =
                crate::multichip::ShardedSpikingNetwork::layer_pipelined(net.clone(), 2).unwrap();
            let cfg = crate::multichip::PipelineConfig::default();
            expect_stage(sharded.run_pipelined(x, 3, &mut r, &cfg), "stage 0", &what);
            assert!(net.output_shape(x.shape()).is_err(), "{what}");
        }
        // A dense stage fed the wrong feature count fails at its own
        // index, after the well-formed stages before it.
        let dense_only = compile_snn_default(&SpikingNetwork::new(
            vec![
                SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
                SnnStage::Synaptic(L::dense(5, 2, &mut r)),
            ],
            InputEncoding::Constant,
        ))
        .unwrap();
        for x in [Tensor::full(&[2, 4], 0.9), Tensor::full(&[2, 1, 2, 2], 0.9)] {
            let what = format!("dense input {:?}", x.shape());
            expect_stage(dense_only.clone().run(&x, 2, &mut r), "stage 1", &what);
            expect_stage(
                dense_only.clone().run_sequential(&x, 2, &mut r),
                "stage 1",
                &what,
            );
        }
        // Well-formed input still runs.
        let y = net
            .clone()
            .run(&Tensor::full(&[1, 2, 6, 6], 0.9), 3, &mut r)
            .unwrap();
        assert_eq!(y.shape(), [1, 4]);
    }

    #[test]
    fn unsupported_stage_is_rejected() {
        let mut r = rng();
        let snn = SpikingNetwork::new(
            vec![SnnStage::Synaptic(L::depthwise_conv2d(2, 3, 1, 1, &mut r))],
            InputEncoding::Poisson,
        );
        assert!(matches!(
            compile_snn_default(&snn),
            Err(AnalogError::Unsupported { .. })
        ));
    }
}
