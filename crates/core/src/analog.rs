//! Analog execution: compile a trained (quantized) network onto actual
//! super-tile circuit structures and run inference *through the
//! device-level crossbar models* — the functional twin of programming a
//! real NEBULA chip.
//!
//! Where the [`engine`](crate::engine) module prices a workload
//! analytically, this module computes with it: every dense/conv MAC goes
//! through [`SuperTile::dot`] (DW-MTJ conductances, reference-column
//! signed weights, 16-level quantization, optional read noise), patch
//! gathers straight from the feature map (an implicit im2col) play the
//! role of the input buffers and drivers, and one crossbar evaluation
//! corresponds to one 110 ns wave of the Fig. 8 pipeline.
//!
//! Supported layers: `Dense`, `Conv2d`, `Relu`, `ActivationQuant`,
//! `AvgPool`, `Flatten`. Biases are applied digitally (a real chip would
//! dedicate a bias row; the paper does not detail it). Depthwise
//! convolutions and batch-norm must be lowered/folded before
//! compilation.

use crate::components::{M, MAX_RF_IN_CORE};
use nebula_crossbar::{kernel, CrossbarConfig, CrossbarError, KernelPath, Mode, SuperTile};
use nebula_device::units::{Amps, Joules};
use nebula_device::FaultModel;
use nebula_nn::layer::Layer;
use nebula_nn::{Network, NnError};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor, TensorError};
use rand::Rng;

/// Errors produced while compiling or executing analog networks.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AnalogError {
    /// A layer kind the analog compiler does not support.
    Unsupported {
        /// Name of the offending layer.
        layer: String,
    },
    /// The kernel is too large even for the multi-core path this
    /// executor models (receptive field beyond `16M` per column group is
    /// split; zero-sized layers are rejected).
    BadGeometry {
        /// Explanation.
        reason: String,
    },
    /// Circuit-level failure.
    Crossbar(CrossbarError),
    /// Inter-chip fabric failure (multi-chip sharded execution).
    Noc(nebula_noc::NocError),
    /// Tensor failure.
    Tensor(TensorError),
}

impl std::fmt::Display for AnalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalogError::Unsupported { layer } => {
                write!(f, "analog compiler does not support `{layer}` layers")
            }
            AnalogError::BadGeometry { reason } => write!(f, "bad analog geometry: {reason}"),
            AnalogError::Crossbar(e) => write!(f, "crossbar failure: {e}"),
            AnalogError::Noc(e) => write!(f, "inter-chip fabric failure: {e}"),
            AnalogError::Tensor(e) => write!(f, "tensor failure: {e}"),
        }
    }
}

impl std::error::Error for AnalogError {}

impl From<nebula_noc::NocError> for AnalogError {
    fn from(e: nebula_noc::NocError) -> Self {
        AnalogError::Noc(e)
    }
}

impl From<CrossbarError> for AnalogError {
    fn from(e: CrossbarError) -> Self {
        AnalogError::Crossbar(e)
    }
}

impl From<TensorError> for AnalogError {
    fn from(e: TensorError) -> Self {
        AnalogError::Tensor(e)
    }
}

impl From<NnError> for AnalogError {
    fn from(e: NnError) -> Self {
        match e {
            NnError::Tensor(t) => AnalogError::Tensor(t),
            other => AnalogError::BadGeometry {
                reason: other.to_string(),
            },
        }
    }
}

/// One weight matrix programmed across super-tiles: rows are split into
/// `R_f ≤ 16M` segments (multi-core spill), columns into groups of `M`.
#[derive(Debug, Clone)]
pub(crate) struct ProgrammedMatrix {
    /// `tiles[segment][group]`.
    pub(crate) tiles: Vec<Vec<SuperTile>>,
    pub(crate) segment_rows: Vec<usize>,
    pub(crate) cols: usize,
    pub(crate) rf: usize,
    /// Input normalization: activations are divided by this before
    /// driving the bit-lines (so drives stay in `[0, 1]`).
    pub(crate) x_scale: f32,
}

impl ProgrammedMatrix {
    /// Programs `weight[rf][cols]` (row-major `Tensor` `[rf, cols]`).
    pub(crate) fn program(
        weight: &Tensor,
        x_scale: f32,
        config: &CrossbarConfig,
    ) -> Result<Self, AnalogError> {
        let (rf, cols) = (weight.shape()[0], weight.shape()[1]);
        if rf == 0 || cols == 0 {
            return Err(AnalogError::BadGeometry {
                reason: format!("degenerate weight matrix {rf}×{cols}"),
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
            x_scale,
        })
    }

    /// Evaluates one input vector (length `rf`, real units) through the
    /// legacy per-cell crossbar loop ([`SuperTile::dot_reference`]):
    /// drives the crossbars with `x / x_scale` and returns the
    /// real-valued products `Wᵀx` per column. Bit-identical to one item
    /// of [`dot_batch_with`](Self::dot_batch_with); kept as the
    /// reference for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    pub(crate) fn dot_reference(&mut self, x: &[f32]) -> Result<Vec<f32>, AnalogError> {
        debug_assert_eq!(x.len(), self.rf);
        let mut out = vec![0.0f32; self.cols];
        let mut offset = 0usize;
        for (seg, seg_rows) in self.segment_rows.clone().into_iter().enumerate() {
            let drive: Vec<f64> = x[offset..offset + seg_rows]
                .iter()
                .map(|&v| f64::from(drive_level(v, self.x_scale)))
                .collect();
            for (g, tile) in self.tiles[seg].iter_mut().enumerate() {
                let currents = tile.dot_reference(&drive)?;
                let unit = tile.unit_current().0;
                for (c, i) in currents.iter().enumerate() {
                    // value (weight units) → real: × x_scale (drive
                    // normalization) — clip is already the weight unit.
                    out[g * M + c] += (i.0 / unit) as f32 * self.x_scale;
                }
            }
            offset += seg_rows;
        }
        Ok(out)
    }

    /// Evaluates a whole batch of items through the split-phase fast
    /// path and returns their products `Wᵀx` item-major (`n × cols`):
    /// every tile's conductance caches are prepared once, the persistent
    /// worker pool evaluates items concurrently against the shared tiles
    /// (`&self` — [`SuperTile::eval_dense_prepared`]), and read energy is
    /// then accrued sequentially in ascending item order per atomic
    /// crossbar. Outputs are **bit-identical** to calling
    /// [`dot_reference`](Self::dot_reference) on each item in turn — for
    /// any worker count — because each item's floating-point work is
    /// per-item pure and the accrual order matches the sequential path.
    /// Energy counters are bit-identical too under
    /// [`KernelPath::Scalar`]; the default [`KernelPath::Auto`] kernel
    /// re-associates the total-current sum per row and tracks the
    /// reference to a relative error ≤ 1e-12.
    ///
    /// `fill(i, drive)` writes item `i`'s bit-line drives (all `rf` of
    /// them, already normalized — see [`drive_level`]) into a reused
    /// buffer, so a dense stage copies its input row and a conv stage
    /// gathers its patch straight from the feature map. Each item's
    /// driven rows are indexed once per receptive-field segment and the
    /// list is shared by every column group. Workers take contiguous
    /// item blocks with per-block flat buffers; `workers == 1` never
    /// touches the pool, which lets the pipeline executor keep a stage
    /// on one thread.
    pub(crate) fn dot_batch_with(
        &mut self,
        n: usize,
        workers: usize,
        fill: impl Fn(usize, &mut [f64]) + Sync,
    ) -> Vec<f32> {
        for tile in self.tiles.iter_mut().flatten() {
            tile.prepare();
        }
        if n == 0 {
            return Vec::new();
        }
        let (x_scale, cols, rf) = (self.x_scale, self.cols, self.rf);
        let segment_rows = &self.segment_rows;
        let tiles = &self.tiles;
        // Per-AC total currents of one item, in (segment, group, chunk)
        // order.
        let total_chunks: usize = tiles.iter().flatten().map(SuperTile::chunk_count).sum();
        let blocks = workers.clamp(1, n);
        let per_block: Vec<(Vec<f32>, Vec<f64>)> =
            nebula_tensor::pool::par_map_indexed(blocks, workers, |b| {
                let items = b * n / blocks..(b + 1) * n / blocks;
                let mut outs = vec![0.0f32; items.len() * cols];
                let mut currents = vec![0.0f64; items.len() * total_chunks];
                let mut totals = vec![Amps::ZERO; M];
                // Lane-padded so the f64 lane kernel can write its
                // tail lanes (every tile's scratch_cols() is ≤ this).
                let mut diff = vec![0.0f64; kernel::padded_len(M)];
                let mut drive = vec![0.0f64; rf];
                let mut active = vec![0u32; MAX_RF_IN_CORE.min(rf)];
                let per_item = outs
                    .chunks_exact_mut(cols)
                    .zip(currents.chunks_exact_mut(total_chunks));
                for (i, (out, item_currents)) in items.zip(per_item) {
                    fill(i, &mut drive);
                    let mut chunk_off = 0usize;
                    let segments = drive.chunks(MAX_RF_IN_CORE).zip(segment_rows);
                    for ((seg_drive, &seg_rows), groups) in segments.zip(tiles) {
                        debug_assert_eq!(seg_drive.len(), seg_rows);
                        let driven = kernel::index_active(seg_drive, &mut active);
                        for (g, tile) in groups.iter().enumerate() {
                            let chunks = tile.chunk_count();
                            tile.eval_dense_prepared(
                                seg_drive,
                                &active[..driven],
                                &mut totals,
                                &mut item_currents[chunk_off..chunk_off + chunks],
                                &mut diff,
                            );
                            let unit = tile.unit_current().0;
                            for (c, t) in totals[..tile.kernels()].iter().enumerate() {
                                out[g * M + c] += (t.0 / unit) as f32 * x_scale;
                            }
                            chunk_off += chunks;
                        }
                    }
                }
                (outs, currents)
            });
        // Sequential accrual in ascending item order per atomic crossbar.
        let mut chunk_off = 0usize;
        for tile in self.tiles.iter_mut().flatten() {
            let chunks = tile.chunk_count();
            tile.accrue_batch(
                per_block
                    .iter()
                    .flat_map(|(_, currents)| currents.chunks_exact(total_chunks))
                    .map(|item| &item[chunk_off..chunk_off + chunks]),
            );
            chunk_off += chunks;
        }
        let mut outs = per_block.into_iter().map(|(outs, _)| outs);
        let first = outs.next().unwrap_or_default();
        outs.fold(first, |mut all, block| {
            all.extend_from_slice(&block);
            all
        })
    }

    pub(crate) fn read_energy(&self) -> Joules {
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::accumulated_read_energy)
            .sum()
    }

    pub(crate) fn program_energy(&self) -> Joules {
        self.tiles
            .iter()
            .flatten()
            .map(SuperTile::accumulated_program_energy)
            .sum()
    }

    pub(crate) fn supertile_count(&self) -> usize {
        self.tiles.iter().map(Vec::len).sum()
    }

    pub(crate) fn set_kernel_path(&mut self, path: KernelPath) {
        for tile in self.tiles.iter_mut().flatten() {
            tile.set_kernel_path(path);
        }
    }

    /// Builds any missing cache layouts and returns the total bytes the
    /// current kernel path's conductance caches occupy across all tiles
    /// (see [`SuperTile::kernel_cache_bytes`]).
    pub(crate) fn kernel_cache_bytes(&mut self) -> usize {
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

/// The bit-line drive level of activation `v` under input scale
/// `x_scale`: `v / x_scale` clamped to the DAC range `[0, 1]`.
fn drive_level(v: f32, x_scale: f32) -> f32 {
    (v / x_scale).clamp(0.0, 1.0)
}

/// A conv stage's input as drive levels, read patch by patch: the
/// implicit form of `im2col`.
struct FeatureMap<'a> {
    /// Drive level of every NCHW input element.
    levels: &'a [f32],
    chw: [usize; 3],
    geom: ConvGeometry,
    ohw: [usize; 2],
    /// Offset of tap `(ch·kh + ky)·kw + kx` from its patch's top-left
    /// input element, for patches clear of the padding.
    taps: Vec<usize>,
}

impl<'a> FeatureMap<'a> {
    fn new(levels: &'a [f32], chw: [usize; 3], geom: ConvGeometry, ohw: [usize; 2]) -> Self {
        let [c, h, w] = chw;
        let taps = (0..c * geom.kh)
            .flat_map(|r| (0..geom.kw).map(move |kx| ((r / geom.kh) * h + r % geom.kh) * w + kx))
            .collect();
        Self {
            levels,
            chw,
            geom,
            ohw,
            taps,
        }
    }

    /// Writes patch `ri` (image-major, then output row, then column —
    /// `im2col`'s row order) into `drive`, tap `(ch·kh + ky)·kw + kx`
    /// at a time; taps in the zero padding drive `0.0`. Bit-identical
    /// to row `ri` of `im2col` over the levels.
    fn patch(&self, ri: usize, drive: &mut [f64]) {
        let ([c, h, w], [oh, ow], g) = (self.chw, self.ohw, self.geom);
        let (img, rem) = (ri / (oh * ow), ri % (oh * ow));
        let (y0, x0) = ((rem / ow) * g.stride, (rem % ow) * g.stride);
        let image = &self.levels[img * c * h * w..][..c * h * w];
        let drive = &mut drive[..self.taps.len()];
        // Clear of the padding: one offset table serves every tap.
        if y0 >= g.pad && y0 + g.kh <= h + g.pad && x0 >= g.pad && x0 + g.kw <= w + g.pad {
            let origin = &image[(y0 - g.pad) * w + x0 - g.pad..];
            for (d, &t) in drive.iter_mut().zip(&self.taps) {
                *d = f64::from(origin[t]);
            }
            return;
        }
        // Kernel columns kx_lo..kx_hi land inside the image: input
        // column x0 + kx − pad ∈ [0, w).
        let kx_lo = g.pad.saturating_sub(x0).min(g.kw);
        let kx_hi = (w + g.pad).saturating_sub(x0).clamp(kx_lo, g.kw);
        for (r, row) in drive.chunks_exact_mut(g.kw).enumerate() {
            let (ch, ky) = (r / g.kh, r % g.kh);
            match (y0 + ky).checked_sub(g.pad).filter(|&iy| iy < h) {
                Some(iy) if kx_lo < kx_hi => {
                    let line = &image[(ch * h + iy) * w..][..w];
                    row[..kx_lo].fill(0.0);
                    let from = &line[x0 + kx_lo - g.pad..][..kx_hi - kx_lo];
                    for (d, &v) in row[kx_lo..kx_hi].iter_mut().zip(from) {
                        *d = f64::from(v);
                    }
                    row[kx_hi..].fill(0.0);
                }
                _ => row.fill(0.0),
            }
        }
    }
}

/// Prefixes a geometry error with the index of the stage it arose in.
pub(crate) fn at_stage(stage: usize, e: AnalogError) -> AnalogError {
    match e {
        AnalogError::BadGeometry { reason } => AnalogError::BadGeometry {
            reason: format!("stage {stage}: {reason}"),
        },
        e => e,
    }
}

/// One compiled stage of an analog network.
#[derive(Debug, Clone)]
pub(crate) enum AnalogStage {
    Dense {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
    },
    Conv {
        matrix: ProgrammedMatrix,
        bias: Vec<f32>,
        geom: ConvGeometry,
    },
    Relu,
    Quant {
        amax: f32,
        levels: usize,
    },
    AvgPool {
        k: usize,
    },
    Flatten,
}

impl AnalogStage {
    /// The programmed crossbars of a synaptic stage.
    pub(crate) fn matrix(&self) -> Option<&ProgrammedMatrix> {
        match self {
            AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => Some(matrix),
            _ => None,
        }
    }

    fn matrix_mut(&mut self) -> Option<&mut ProgrammedMatrix> {
        match self {
            AnalogStage::Dense { matrix, .. } | AnalogStage::Conv { matrix, .. } => Some(matrix),
            _ => None,
        }
    }
}

/// A network compiled onto crossbar hardware models.
///
/// Build with [`compile`]; run with [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct AnalogNetwork {
    pub(crate) stages: Vec<AnalogStage>,
    pub(crate) waves: u64,
    /// Index of `stages[0]` in the network this one was cut from (0
    /// unless it is a multi-chip unit), so geometry errors name the
    /// whole network's stage.
    pub(crate) first_stage: usize,
}

/// Compiles a (preferably 4-bit-quantized, BN-folded) network for analog
/// execution in the given mode.
///
/// Per-layer input scales are taken from the preceding
/// [`Layer::ActivationQuant`] ceiling when present (quantized networks),
/// else 1.0 (suitable for inputs already in `[0, 1]`).
///
/// # Errors
///
/// Returns [`AnalogError::Unsupported`] for depthwise convolutions and
/// live batch-norm layers.
pub fn compile(net: &Network, config: &CrossbarConfig) -> Result<AnalogNetwork, AnalogError> {
    let mut stages = Vec::with_capacity(net.len());
    // The scale of the *current* activations flowing between stages.
    let mut x_scale = 1.0f32;
    for layer in net.layers() {
        match layer {
            Layer::Dense(d) => {
                let matrix = ProgrammedMatrix::program(&d.weight.value, x_scale, config)?;
                stages.push(AnalogStage::Dense {
                    matrix,
                    bias: d.bias.value.data().to_vec(),
                });
            }
            Layer::Conv2d(c) => {
                let s = c.weight.value.shape();
                let (oc, ckk) = (s[0], s[1] * s[2] * s[3]);
                // Kernel matrix [R_f, OC] = flattened kernels as columns.
                let wmat = c.weight.value.reshape(&[oc, ckk])?.transpose()?;
                let matrix = ProgrammedMatrix::program(&wmat, x_scale, config)?;
                stages.push(AnalogStage::Conv {
                    matrix,
                    bias: c.bias.value.data().to_vec(),
                    geom: c.geom,
                });
            }
            Layer::Relu(_) => stages.push(AnalogStage::Relu),
            Layer::ActivationQuant(q) => {
                stages.push(AnalogStage::Quant {
                    amax: q.amax,
                    levels: q.levels,
                });
                x_scale = q.amax;
            }
            Layer::AvgPool(p) => stages.push(AnalogStage::AvgPool { k: p.k }),
            Layer::Flatten(_) => stages.push(AnalogStage::Flatten),
            other => {
                return Err(AnalogError::Unsupported {
                    layer: other.name().to_string(),
                })
            }
        }
    }
    Ok(AnalogNetwork {
        stages,
        waves: 0,
        first_stage: 0,
    })
}

impl AnalogNetwork {
    /// Runs a batch through the crossbar models and returns the logits.
    ///
    /// All samples advance through each stage together: every weight
    /// stage evaluates its whole batch of rows (conv patches gathered
    /// straight from the feature map) against tiles prepared once.
    /// Results, waves and scalar-path energy counters are bit-identical
    /// to [`forward_sequential`](Self::forward_sequential).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] prefixed `stage <i>:` when
    /// the input does not fit stage `i` (wrong rank, feature count or
    /// channel count); propagates circuit and tensor failures.
    pub fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, false, nebula_tensor::pool::size())
    }

    /// [`forward`](Self::forward) with an explicit evaluation worker
    /// count. `workers == 1` keeps the whole pass on the calling thread
    /// (no pool dispatch at all) — the multi-chip pipeline executor runs
    /// each stage this way so stage-level concurrency comes from the
    /// pipeline, not from nested pool fan-out. Bit-identical to
    /// [`forward`](Self::forward) for any worker count, which
    /// worker-count-invariance tests check through this entry point.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    pub fn forward_with_workers(
        &mut self,
        inputs: &Tensor,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, false, workers)
    }

    /// [`forward`](Self::forward) through the legacy path: one
    /// uncached per-cell crossbar evaluation per sample — the pre-cache
    /// baseline. Kept for equivalence tests and the `bench_hotpath`
    /// sequential leg.
    ///
    /// # Errors
    ///
    /// As [`forward`](Self::forward).
    pub fn forward_sequential(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        self.forward_impl(inputs, true, 1)
    }

    fn forward_impl(
        &mut self,
        inputs: &Tensor,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let mut h = inputs.clone();
        // Take stages out to satisfy the borrow checker during mutation.
        let mut stages = std::mem::take(&mut self.stages);
        let result = (|| -> Result<Tensor, AnalogError> {
            for (at, stage) in stages.iter_mut().enumerate() {
                h = self
                    .run_stage(stage, h, reference, workers)
                    .map_err(|e| at_stage(self.first_stage + at, e))?;
            }
            Ok(h)
        })();
        self.stages = stages;
        result
    }

    /// Runs one stage on `h`, reusing its buffer where the stage maps
    /// elementwise. Synaptic stages check `h` against their receptive
    /// field first, so malformed input is a geometry error, never a
    /// panic or a silently wrong result.
    fn run_stage(
        &mut self,
        stage: &mut AnalogStage,
        mut h: Tensor,
        reference: bool,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        Ok(match stage {
            AnalogStage::Dense { matrix, bias } => {
                let (n, rf, cols) = match h.shape() {
                    &[n, features] if features == matrix.rf => (n, matrix.rf, matrix.cols),
                    shape => {
                        return Err(AnalogError::BadGeometry {
                            reason: format!(
                                "dense stage expects [n, {}] input, got {shape:?}",
                                matrix.rf
                            ),
                        })
                    }
                };
                let data = h.data();
                let mut ys = if reference {
                    let mut ys = Vec::with_capacity(n * cols);
                    for row in data.chunks_exact(rf) {
                        ys.extend_from_slice(&matrix.dot_reference(row)?);
                    }
                    ys
                } else {
                    let x_scale = matrix.x_scale;
                    matrix.dot_batch_with(n, workers, |i, drive| {
                        for (d, &v) in drive.iter_mut().zip(&data[i * rf..(i + 1) * rf]) {
                            *d = f64::from(drive_level(v, x_scale));
                        }
                    })
                };
                self.waves += n as u64;
                for y in ys.chunks_exact_mut(cols) {
                    for (v, b) in y.iter_mut().zip(bias.iter()) {
                        *v += b;
                    }
                }
                Tensor::from_vec(ys, &[n, cols])?
            }
            AnalogStage::Conv { matrix, bias, geom } => {
                let (rf, cols) = (matrix.rf, matrix.cols);
                let (n, c, hh, ww) = match h.shape() {
                    &[n, c, hh, ww] if c * geom.kh * geom.kw == rf => (n, c, hh, ww),
                    shape => {
                        return Err(AnalogError::BadGeometry {
                            reason: format!(
                                "conv stage ({}×{} kernel, {rf} rows) expects [n, {}, h, w] \
                                 input, got {shape:?}",
                                geom.kh,
                                geom.kw,
                                rf / (geom.kh * geom.kw)
                            ),
                        })
                    }
                };
                let (oh, ow) = geom.out_hw(hh, ww)?;
                let spatial = oh * ow;
                let total_rows = n * spatial;
                let ys = if reference {
                    // The oracle materializes the [N·OH·OW, R_f] patch
                    // matrix; the fast path gathers the same rows.
                    let patches = im2col(&h, *geom)?;
                    let mut ys = Vec::with_capacity(total_rows * cols);
                    for row in patches.data().chunks_exact(rf) {
                        ys.extend_from_slice(&matrix.dot_reference(row)?);
                    }
                    ys
                } else {
                    // Normalize each input element once, not once per
                    // tap that reads it.
                    let x_scale = matrix.x_scale;
                    let mut levels = h.into_vec();
                    for v in &mut levels {
                        *v = drive_level(*v, x_scale);
                    }
                    let fm = FeatureMap::new(&levels, [c, hh, ww], *geom, [oh, ow]);
                    matrix.dot_batch_with(total_rows, workers, |ri, drive| fm.patch(ri, drive))
                };
                self.waves += total_rows as u64;
                let mut out = vec![0.0f32; n * cols * spatial];
                for (img, out) in out.chunks_exact_mut(cols * spatial).enumerate() {
                    for s in 0..spatial {
                        let y = &ys[(img * spatial + s) * cols..][..cols];
                        for (o, (&v, &b)) in y.iter().zip(bias.iter()).enumerate() {
                            out[o * spatial + s] = v + b;
                        }
                    }
                }
                Tensor::from_vec(out, &[n, cols, oh, ow])?
            }
            AnalogStage::Relu => {
                for v in h.data_mut() {
                    *v = v.max(0.0);
                }
                h
            }
            AnalogStage::Quant { amax, levels } => {
                let step = *amax / (*levels - 1) as f32;
                for v in h.data_mut() {
                    *v = (v.clamp(0.0, *amax) / step).round() * step;
                }
                h
            }
            AnalogStage::AvgPool { k } => avg_pool2d(&h, *k)?,
            AnalogStage::Flatten => match *h.shape() {
                [n, ref rest @ ..] => {
                    let shape = [n, rest.iter().product()];
                    Tensor::from_vec(h.into_vec(), &shape)?
                }
                [] => {
                    return Err(AnalogError::BadGeometry {
                        reason: "flatten stage fed a rank-0 tensor".into(),
                    })
                }
            },
        })
    }

    /// Predicted class per input row.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    pub fn predict(&mut self, inputs: &Tensor) -> Result<Vec<usize>, AnalogError> {
        Ok(self.forward(inputs)?.argmax_rows()?)
    }

    /// Classification accuracy over a labelled batch.
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures.
    ///
    /// # Panics
    ///
    /// Panics when the label count differs from the batch size.
    pub fn accuracy(&mut self, inputs: &Tensor, labels: &[usize]) -> Result<f64, AnalogError> {
        let preds = self.predict(inputs)?;
        assert_eq!(preds.len(), labels.len());
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }

    /// Selects the crossbar inner-loop kernel every programmed tile
    /// evaluates through (default [`KernelPath::Auto`]). Outputs are
    /// bit-identical on both paths; under Auto read energy uses the
    /// per-row-sum formulation and agrees with the scalar/reference path
    /// to a relative error ≤ 1e-12 per dot instead of bitwise (see
    /// [`nebula_crossbar::kernel`]).
    pub fn set_kernel_path(&mut self, path: KernelPath) {
        for matrix in self.stages.iter_mut().filter_map(AnalogStage::matrix_mut) {
            matrix.set_kernel_path(path);
        }
    }

    /// The programmed super-tiles in stage-then-tile compile order.
    fn tiles_mut(&mut self) -> impl Iterator<Item = &mut SuperTile> {
        self.stages
            .iter_mut()
            .filter_map(AnalogStage::matrix_mut)
            .flat_map(|m| m.tiles.iter_mut().flatten())
    }

    /// Samples hard faults into every programmed super-tile, in stage
    /// then tile order (the draw sequence is reproducible for a fixed
    /// seed). Returns the total number of faulty cells.
    pub fn inject_faults<R: Rng + ?Sized>(&mut self, model: &FaultModel, rng: &mut R) -> usize {
        self.tiles_mut().map(|t| t.inject_faults(model, rng)).sum()
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
        let count = self.supertile_count();
        self.tiles_mut()
            .nth(tile)
            .unwrap_or_else(|| panic!("super-tile {tile} outside the {count} programmed tiles"))
            .kill_ac(ac);
    }

    /// Bytes the conductance caches backing the current kernel path
    /// occupy across all programmed tiles (building any missing layouts
    /// first) — the footprint `bench_hotpath` reports per path. Auto
    /// holds both the f64 lane and the 4-bit packed layout.
    pub fn conductance_cache_bytes(&mut self) -> usize {
        self.stages
            .iter_mut()
            .filter_map(AnalogStage::matrix_mut)
            .map(ProgrammedMatrix::kernel_cache_bytes)
            .sum()
    }

    /// Crossbar evaluation waves executed so far (each is one 110 ns
    /// pipeline wave on hardware).
    pub fn waves(&self) -> u64 {
        self.waves
    }

    /// Super-tiles this network's weights occupy.
    pub fn supertile_count(&self) -> usize {
        self.stages
            .iter()
            .filter_map(AnalogStage::matrix)
            .map(ProgrammedMatrix::supertile_count)
            .sum()
    }

    /// `energy` of every stage in stage order, `Joules::ZERO` for stages
    /// without crossbars. Summing it gives the network total; a sharded
    /// network folds its units' stages into one sum the same way, so
    /// the totals agree bit for bit.
    pub(crate) fn stage_energies(
        &self,
        energy: fn(&ProgrammedMatrix) -> Joules,
    ) -> impl Iterator<Item = Joules> + '_ {
        self.stages
            .iter()
            .map(move |s| s.matrix().map_or(Joules::ZERO, energy))
    }

    /// Total analog read energy accrued across all crossbars.
    pub fn read_energy(&self) -> Joules {
        self.stage_energies(ProgrammedMatrix::read_energy).sum()
    }

    /// Total programming energy spent writing the weights.
    pub fn program_energy(&self) -> Joules {
        self.stage_energies(ProgrammedMatrix::program_energy).sum()
    }
}

/// Compiles with the paper's default ANN-mode crossbars.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann(net: &Network) -> Result<AnalogNetwork, AnalogError> {
    compile(net, &CrossbarConfig::paper_default(Mode::Ann))
}

/// Compiles with read noise of the given sigma (Monte-Carlo studies).
/// Note: noise sampling requires driving evaluation through
/// [`AnalogNetwork::forward`] after constructing the config explicitly —
/// this helper only sets the config's sigma so programmed conductances
/// carry it.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann_noisy(net: &Network, sigma: f64) -> Result<AnalogNetwork, AnalogError> {
    let mut cfg = CrossbarConfig::paper_default(Mode::Ann);
    cfg.read_noise_sigma = sigma;
    compile(net, &cfg)
}

/// Perturbs every programmed conductance once (device-mismatch style)
/// by re-programming the network's weights with multiplicative Gaussian
/// noise — the §IV-D Monte-Carlo experiment, executed at circuit level.
///
/// # Errors
///
/// See [`compile`].
pub fn compile_ann_with_mismatch<R: Rng + ?Sized>(
    net: &Network,
    sigma: f64,
    rng: &mut R,
) -> Result<AnalogNetwork, AnalogError> {
    let model = nebula_device::variation::VariationModel::new(sigma);
    let mut noisy = net.clone();
    for layer in noisy.layers_mut() {
        if layer.is_weight_layer() {
            for p in layer.params_mut() {
                model.perturb_slice_f32(p.value.data_mut(), rng);
            }
        }
    }
    compile_ann(&noisy)
}

/// Number of `ACS_PER_SUPERTILE`-AC super-tiles a dense `rf×cols`
/// matrix occupies under this executor's splitting (for capacity
/// sanity-checks in tests).
pub fn expected_supertiles(rf: usize, cols: usize) -> usize {
    rf.div_ceil(MAX_RF_IN_CORE) * cols.div_ceil(M)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::Layer as L;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    #[test]
    fn analog_dense_matches_digital_within_quantization() {
        let mut r = rng();
        let mut net = Network::new(vec![L::dense(12, 6, &mut r)]);
        // Quantize weights onto the 16-level grid so analog == digital.
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[4, 12], 0.0, 1.0, &mut r);
        let digital = net.forward(&x).unwrap();
        let mut analog = compile_ann(&net).unwrap();
        let a = analog.forward(&x).unwrap();
        for (d, v) in digital.data().iter().zip(a.data()) {
            assert!(
                (d - v).abs() < 1e-3 * d.abs().max(1.0),
                "analog {v} vs digital {d}"
            );
        }
        assert_eq!(analog.waves(), 4);
        assert_eq!(analog.supertile_count(), 1);
    }

    #[test]
    fn analog_conv_matches_digital_within_quantization() {
        let mut r = rng();
        let mut net = Network::new(vec![L::conv2d(2, 3, 3, 1, 1, &mut r)]);
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[1, 2, 5, 5], 0.0, 1.0, &mut r);
        let digital = net.forward(&x).unwrap();
        let mut analog = compile_ann(&net).unwrap();
        let a = analog.forward(&x).unwrap();
        assert_eq!(a.shape(), digital.shape());
        for (d, v) in digital.data().iter().zip(a.data()) {
            assert!(
                (d - v).abs() < 2e-3 * d.abs().max(1.0),
                "analog {v} vs digital {d}"
            );
        }
        assert_eq!(analog.waves(), 25); // 5×5 output positions
    }

    #[test]
    fn large_matrices_split_across_supertiles() {
        let mut r = rng();
        // R_f = 3000 > 2048 → 2 segments; 200 cols → 2 groups.
        let net = Network::new(vec![L::dense(3000, 200, &mut r)]);
        let analog = compile_ann(&net).unwrap();
        assert_eq!(analog.supertile_count(), expected_supertiles(3000, 200));
        assert_eq!(analog.supertile_count(), 4);
    }

    #[test]
    fn unsupported_layers_are_rejected() {
        let mut r = rng();
        let net = Network::new(vec![L::depthwise_conv2d(4, 3, 1, 1, &mut r)]);
        assert!(matches!(
            compile_ann(&net),
            Err(AnalogError::Unsupported { .. })
        ));
        let bn = Network::new(vec![L::batch_norm2d(4)]);
        assert!(compile_ann(&bn).is_err());
    }

    #[test]
    fn energy_accrues_with_execution() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(8, 4, &mut r)]);
        let mut analog = compile_ann(&net).unwrap();
        assert!(analog.program_energy().0 > 0.0, "programming costs energy");
        let before = analog.read_energy();
        analog
            .forward(&Tensor::rand_uniform(&[2, 8], 0.1, 1.0, &mut r))
            .unwrap();
        assert!(analog.read_energy() > before, "reads cost energy");
    }

    #[test]
    fn batched_forward_matches_sequential_reference_exactly() {
        let mut r = rng();
        // Conv → pool → dense exercises every batched stage kind.
        let net = Network::new(vec![
            L::conv2d(2, 4, 3, 1, 1, &mut r),
            L::relu(),
            L::avg_pool(2),
            L::flatten(),
            L::dense(4 * 4 * 4, 5, &mut r),
        ]);
        let x = Tensor::rand_uniform(&[6, 2, 8, 8], 0.0, 1.0, &mut r);
        let mut fast = compile_ann(&net).unwrap();
        let mut slow = fast.clone();
        let mut scalar = fast.clone();
        scalar.set_kernel_path(KernelPath::Scalar);
        let yf = fast.forward(&x).unwrap();
        let ys = slow.forward_sequential(&x).unwrap();
        let yk = scalar.forward(&x).unwrap();
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
    fn batched_forward_matches_reference_under_device_mismatch() {
        let mut r = rng();
        let net = Network::new(vec![L::dense(3000, 20, &mut r)]);
        let x = Tensor::rand_uniform(&[3, 3000], 0.0, 1.0, &mut r);
        let mut fast = compile_ann_with_mismatch(&net, 0.10, &mut r).unwrap();
        let mut slow = fast.clone();
        let yf = fast.forward(&x).unwrap();
        let ys = slow.forward_sequential(&x).unwrap();
        for (a, b) in yf.data().iter().zip(ys.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "fast {a} vs reference {b}");
        }
        let (e_vec, e_ref) = (fast.read_energy().0, slow.read_energy().0);
        assert!(
            (e_vec - e_ref).abs() <= 1e-12 * e_ref.abs(),
            "auto energy {e_vec} vs reference {e_ref}"
        );
    }

    #[test]
    fn malformed_inputs_are_typed_geometry_errors_on_every_entry_point() {
        // A conv stage compiled for 3 input channels and a dense stage
        // compiled for 16 features: wrong ranks, channel counts and
        // feature counts must fail with a geometry error naming the
        // stage, never panic or return garbage.
        let mut r = rng();
        let conv = compile_ann(&Network::new(vec![
            L::conv2d(3, 4, 3, 1, 1, &mut r),
            L::relu(),
            L::flatten(),
            L::dense(4 * 8 * 8, 5, &mut r),
        ]))
        .unwrap();
        let dense = compile_ann(&Network::new(vec![L::relu(), L::dense(16, 4, &mut r)])).unwrap();
        let expect_stage = |res: Result<Tensor, AnalogError>, stage: &str, what: &str| match res {
            Err(AnalogError::BadGeometry { reason }) => {
                assert!(reason.starts_with(stage), "{what}: {reason}");
            }
            other => panic!("{what}: expected a geometry error, got {other:?}"),
        };
        let cases = [
            (&conv, Tensor::full(&[2, 192], 0.5), "stage 0"),
            (&conv, Tensor::full(&[2, 4, 8, 8], 0.5), "stage 0"),
            (&conv, Tensor::full(&[2, 1, 8, 8], 0.5), "stage 0"),
            (&dense, Tensor::full(&[2, 20], 0.5), "stage 1"),
            (&dense, Tensor::full(&[2, 12], 0.5), "stage 1"),
            (&dense, Tensor::full(&[2, 1, 4, 4], 0.5), "stage 1"),
        ];
        let cfg = crate::multichip::PipelineConfig::default();
        for (net, x, stage) in cases {
            let what = format!("input {:?}", x.shape());
            expect_stage(net.clone().forward(&x), stage, &what);
            expect_stage(net.clone().forward_sequential(&x), stage, &what);
            for workers in [1, 3] {
                expect_stage(net.clone().forward_with_workers(&x, workers), stage, &what);
            }
            let mut sharded =
                crate::multichip::ShardedAnalogNetwork::layer_pipelined(net.clone(), 1).unwrap();
            expect_stage(sharded.forward(&x), stage, &what);
            expect_stage(sharded.forward_pipelined(&x, &cfg), stage, &what);
        }
        let y = conv
            .clone()
            .forward(&Tensor::full(&[2, 3, 8, 8], 0.5))
            .unwrap();
        assert_eq!(y.shape(), [2, 5]);
    }

    #[test]
    fn mismatch_compilation_perturbs_but_preserves_function() {
        let mut r = rng();
        let mut net = Network::new(vec![L::dense(10, 4, &mut r)]);
        for layer in net.layers_mut() {
            for p in layer.params_mut() {
                nebula_nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
            }
        }
        let x = Tensor::rand_uniform(&[8, 10], 0.0, 1.0, &mut r);
        let mut clean = compile_ann(&net).unwrap();
        let mut noisy = compile_ann_with_mismatch(&net, 0.10, &mut r).unwrap();
        let yc = clean.forward(&x).unwrap();
        let yn = noisy.forward(&x).unwrap();
        let mut diff = 0.0f32;
        let mut scale = 0.0f32;
        for (a, b) in yc.data().iter().zip(yn.data()) {
            diff += (a - b).abs();
            scale += a.abs();
        }
        assert!(diff > 0.0, "mismatch must perturb outputs");
        assert!(
            diff / scale.max(1e-6) < 0.5,
            "10% mismatch should not destroy outputs: rel {diff}/{scale}"
        );
    }
}
