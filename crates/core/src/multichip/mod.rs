//! Multi-chip sharding: execute one network across a ring of NEBULA
//! chips, with inter-chip traffic as first-class NoC links.
//!
//! Two strategies, matching how real workloads outgrow one chip:
//!
//! * **Layer-pipelined** ([`ShardStrategy::LayerPipelined`]) —
//!   contiguous layer spans live on successive chips and batches stream
//!   through the pipeline. The planner balances per-stage latency with
//!   the linear-partition DP ([`crate::mapper::plan_stages`]); the
//!   pipeline's steady-state initiation interval is the bottleneck
//!   stage, so throughput scales until one stage dominates.
//! * **Tensor-sharded** ([`ShardStrategy::TensorSharded`]) — wide
//!   layers are split *row-wise* (along the receptive field) across
//!   chips: each chip holds some of the layer's `16M`-row crossbar
//!   segments and computes a partial sum; partials ride the ring to the
//!   home chip and reduce there. This is the strategy that makes a
//!   layer wider than one chip's core pool runnable at all.
//!
//! The functional executors ([`ShardedAnalogNetwork`],
//! [`ShardedSpikingNetwork`]) are built by *cutting an already-compiled*
//! single-chip network into units — contiguous stage spans, each a
//! single-chip network of its own whose programmed [`SuperTile`]s moved
//! there, never reprogrammed. Every unit runs through the single-chip
//! stage code ([`AnalogNetwork`]'s forward pass, or
//! [`AnalogSpikingNetwork`]'s timestep step), so outputs, wave counts
//! and (scalar-path) energy counters are **bit-identical** to the
//! single-chip engine:
//!
//! * Pipelined: a forward pass is a left-to-right fold over stages, so
//!   cutting the stage list at any boundary changes no operation.
//! * Tensor-sharded: a wide layer stays one whole matrix in a unit of
//!   its own and is evaluated exactly as on one chip — its segments'
//!   partial sums are added in ascending segment order inside the
//!   matrix. Segment placement (segment `s` on chip `s % chips`) only
//!   decides which remote chips the layer's traffic is priced for.
//! * Energy: the totals fold every stage's energy, across all units,
//!   into one running sum in stage order — the single-chip additions,
//!   not per-chip subtotals, which would re-associate the sum.
//!
//! Inter-chip traffic is accounted through a
//! [`nebula_noc::ChipCluster`]: one ring `send` per pipeline boundary
//! per wave, and one `multicast_across` (input fan-out) plus one
//! `reduce_across` (partial fan-in) per tensor-sharded stage per wave.
//! Payload sizes come from the real tensor shapes: 4-bit activations in
//! ANN mode, 1-bit spike bitmaps in SNN mode, 32-bit partial sums on
//! the reduction. Dead chip-to-chip links reroute the other way around
//! the ring or surface as [`AnalogError::Noc`] /
//! [`NocError::UnroutableChips`] — the same detour-or-fail fault model
//! the intra-chip mesh uses.
//!
//! Both executors have a **concurrent pipelined** entry point
//! ([`ShardedAnalogNetwork::forward_pipelined`],
//! [`ShardedSpikingNetwork::run_pipelined`]) that streams micro-batches
//! (ANN) or timesteps (SNN) through the chip stages on pool workers,
//! turning the plan's modeled overlap into measured wall-clock overlap
//! while keeping every counter bit-identical to the sequential walk —
//! see the [`exec`] module docs for the scheduler and the journaled
//! traffic replay that make that hold.
//!
//! [`SuperTile`]: nebula_crossbar::SuperTile
//! [`NocError::UnroutableChips`]: nebula_noc::NocError::UnroutableChips

mod exec;

pub use exec::PipelineConfig;

use exec::{run_units, SourceFn, TrafficSink};

use crate::analog::{AnalogError, AnalogNetwork, AnalogStage, ProgrammedMatrix};
use crate::analog_snn::{
    encode_with, seeded_group_encoder, AnalogSpikingNetwork, SpikingAnalogStage,
};
use crate::capacity::CapacityExceeded;
use crate::chip::ChipConfig;
use crate::components::{MAX_RF_IN_CORE, MESH_SIDE};
use crate::energy::ExecMode;
use crate::mapper;
use crate::pipeline;
use nebula_device::units::Joules;
use nebula_nn::snn::InputEncoding;
use nebula_nn::stats::LayerDescriptor;
use nebula_noc::{ChipCluster, ClusterNode, MeshTopology, NodeId, TrafficStats, LINK_HOP_CYCLES};
use nebula_tensor::Tensor;
use rand::Rng;

/// Bits per inter-chip activation in ANN mode (4-bit quantized values).
const ANN_ACT_BITS: u64 = 4;
/// Bits per inter-chip activation in SNN mode (binary spike bitmap).
const SNN_ACT_BITS: u64 = 1;
/// Bits per reduced partial sum (full-precision f32 on the ring).
const PARTIAL_BITS: u64 = 32;
/// The chip that owns inputs, non-sharded stages and reductions under
/// tensor sharding.
const HOME: usize = 0;

/// How a network is distributed across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStrategy {
    /// Contiguous layer spans per chip; batches stream through.
    LayerPipelined,
    /// Wide layers split row-wise across chips; partials reduce to the
    /// home chip.
    TensorSharded,
}

impl ShardStrategy {
    /// `"layer_pipelined"` or `"tensor_sharded"` — the label benches
    /// report.
    pub fn name(&self) -> &'static str {
        match self {
            ShardStrategy::LayerPipelined => "layer_pipelined",
            ShardStrategy::TensorSharded => "tensor_sharded",
        }
    }
}

/// A cluster to plan against: chip count, strategy, per-chip design
/// point.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Chips in the ring.
    pub chips: usize,
    /// Distribution strategy.
    pub strategy: ShardStrategy,
    /// Per-chip configuration (core pools, mesh side).
    pub chip: ChipConfig,
}

impl ClusterConfig {
    /// A cluster of `chips` paper-default chips under `strategy`.
    pub fn new(chips: usize, strategy: ShardStrategy) -> Self {
        Self {
            chips,
            strategy,
            chip: ChipConfig::default(),
        }
    }
}

/// The analytic outcome of planning a workload onto a cluster:
/// stage/shard assignment, per-chip core demand and pipeline timing.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Strategy planned for.
    pub strategy: ShardStrategy,
    /// Chips in the cluster.
    pub chips: usize,
    /// Pipeline stages actually used (`1` under tensor sharding).
    pub stage_count: usize,
    /// Stage index per layer (all zeros under tensor sharding).
    pub stage_of_layer: Vec<usize>,
    /// Per-stage latency of one inference pass, in 110 ns cycles.
    pub stage_cycles: Vec<u64>,
    /// Core demand per chip.
    pub per_chip_cores: Vec<usize>,
    /// The slowest stage — the pipeline's steady-state initiation
    /// interval.
    pub bottleneck_cycles: u64,
    /// One full single-chip pass (Σ over all layers) — the scaling
    /// baseline.
    pub single_pass_cycles: u64,
}

impl ClusterPlan {
    /// Cycles to drain `batches` independent inference passes through
    /// the pipeline: fill (every stage plus a link crossing per
    /// boundary) then one bottleneck interval per additional batch.
    pub fn makespan_cycles(&self, batches: u64) -> u64 {
        if batches == 0 {
            return 0;
        }
        let fill: u64 = self.stage_cycles.iter().sum::<u64>()
            + self.stage_count.saturating_sub(1) as u64 * LINK_HOP_CYCLES;
        fill + (batches - 1) * self.bottleneck_cycles.max(1)
    }

    /// Throughput speedup over one chip running the same `batches`
    /// back-to-back (`batches × single_pass / makespan`). Approaches
    /// `single_pass / bottleneck` as batches grow; `≈ 1` under tensor
    /// sharding, which buys capacity rather than throughput.
    pub fn speedup(&self, batches: u64) -> f64 {
        if batches == 0 {
            return 1.0;
        }
        (batches as f64 * self.single_pass_cycles as f64) / self.makespan_cycles(batches) as f64
    }
}

/// Plans a workload onto a cluster. Layer-pipelined planning balances
/// per-stage latency under the per-chip core pool
/// ([`crate::mapper::plan_stages`]); tensor-sharded planning deals
/// segments round-robin and checks each chip's share of every layer
/// against the pool.
///
/// # Errors
///
/// Returns [`CapacityExceeded`] when the workload cannot fit this
/// cluster under the chosen strategy — including the pipelined case of
/// a single layer wider than one chip, which only tensor sharding can
/// run.
pub fn plan_cluster(
    descriptors: &[LayerDescriptor],
    config: &ClusterConfig,
    mode: ExecMode,
) -> Result<ClusterPlan, CapacityExceeded> {
    let chips = config.chips.max(1);
    let pool = match mode {
        ExecMode::Ann => config.chip.ann_cores,
        ExecMode::Snn { .. } => config.chip.snn_cores,
    };
    let mut mappings = mapper::map_network(descriptors);
    let single_pass_cycles: u64 = mappings
        .iter()
        .map(|m| pipeline::layer_latency_cycles(m, 1))
        .sum();
    match config.strategy {
        ShardStrategy::LayerPipelined => {
            let stage_count = mapper::plan_stages(&mut mappings, chips, pool)?;
            let mut stage_cycles = vec![0u64; stage_count];
            let mut per_chip_cores = vec![0usize; chips];
            for m in &mappings {
                stage_cycles[m.stage] += pipeline::layer_latency_cycles(m, 1);
                per_chip_cores[m.stage] += m.cores;
            }
            let bottleneck_cycles = stage_cycles.iter().copied().max().unwrap_or(1);
            Ok(ClusterPlan {
                strategy: config.strategy,
                chips,
                stage_count,
                stage_of_layer: mappings.iter().map(|m| m.stage).collect(),
                stage_cycles,
                per_chip_cores,
                bottleneck_cycles,
                single_pass_cycles,
            })
        }
        ShardStrategy::TensorSharded => {
            // Segment s of every layer lands on chip s % chips; a
            // chip's share of a layer is its share of the segments.
            let mut per_chip_cores = vec![0usize; chips];
            for (m, d) in mappings.iter().zip(descriptors) {
                let segments = d.receptive_field.div_ceil(MAX_RF_IN_CORE).max(1);
                for (chip, cores) in per_chip_cores.iter_mut().enumerate() {
                    let segs_here = segments / chips + usize::from(chip < segments % chips);
                    *cores += (m.cores * segs_here).div_ceil(segments);
                }
            }
            if let Some((chip, &demand)) =
                per_chip_cores.iter().enumerate().find(|&(_, &c)| c > pool)
            {
                let widest = mappings
                    .iter()
                    .max_by_key(|m| m.cores)
                    .expect("non-empty: a chip is over pool");
                let _ = chip;
                return Err(CapacityExceeded {
                    layer_index: widest.layer_index,
                    layer: widest.name.clone(),
                    demanded: demand,
                    available: pool,
                    shortfall: demand - pool,
                });
            }
            Ok(ClusterPlan {
                strategy: config.strategy,
                chips,
                stage_count: 1,
                stage_of_layer: vec![0; mappings.len()],
                stage_cycles: vec![single_pass_cycles],
                per_chip_cores,
                bottleneck_cycles: single_pass_cycles.max(1),
                single_pass_cycles,
            })
        }
    }
}

fn default_cluster(chips: usize) -> Result<ChipCluster, AnalogError> {
    let topo = MeshTopology::new(MESH_SIDE, MESH_SIDE)?;
    Ok(ChipCluster::new(chips.max(1), topo)?)
}

fn portal(chip: usize) -> ClusterNode {
    ClusterNode {
        chip,
        node: NodeId(0),
    }
}

/// Tensor-sharded placement of a stage with `segments` row segments
/// (1 for a stage without crossbars): always the home chip, plus — for
/// a multi-segment layer, whose segment `s` sits on chip `s % chips` —
/// the other chips holding a segment, in first-seen order.
fn shard_placement(segments: usize, chips: usize) -> (usize, Option<Vec<usize>>) {
    (
        HOME,
        (segments > 1).then(|| (HOME + 1..segments.min(chips)).collect()),
    )
}

/// Accounts one tensor-sharded stage's ring traffic: the home chip
/// multicasts the input wave to every remote shard chip, then remote
/// partials reduce back to the home accumulator. Purely additive
/// accounting — values carried by the reduction are ignored — but the
/// routing is real: dead links detour or error.
fn account_shard_traffic(
    cluster: &mut ChipCluster,
    home: usize,
    remote: &[usize],
    in_bits: u64,
    out_bits: u64,
) -> Result<(), AnalogError> {
    if remote.is_empty() {
        return Ok(());
    }
    let dsts: Vec<ClusterNode> = remote.iter().map(|&c| portal(c)).collect();
    cluster.multicast_across(portal(home), &dsts, in_bits)?;
    let sources: Vec<(ClusterNode, f64)> = remote.iter().map(|&c| (portal(c), 0.0)).collect();
    cluster.reduce_across(&sources, portal(home), out_bits)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Units: single-chip network spans placed on the ring
// ---------------------------------------------------------------------

/// A contiguous span of a compiled network's stages, run by the
/// single-chip code on chip `chip`. A tensor-sharded unit is one wide
/// synaptic stage on [`HOME`]; `remote` lists the other chips holding
/// its segments and only prices the ring traffic the layer causes.
#[derive(Debug, Clone)]
pub(crate) struct Unit<N> {
    pub(crate) chip: usize,
    net: N,
    remote: Vec<usize>,
}

/// A single-chip network a [`Unit`] runs.
pub(crate) trait UnitNet {
    /// Ring payload of one activation wave `h`, in bits.
    fn wave_bits(h: &Tensor) -> u64;

    /// Runs one wave through every stage; `true` alongside the output
    /// when the first stage's crossbars were driven (a tensor-sharded
    /// unit only ships traffic then).
    fn eval(&mut self, h: Tensor, workers: usize) -> Result<(Tensor, bool), AnalogError>;
}

impl UnitNet for AnalogNetwork {
    fn wave_bits(h: &Tensor) -> u64 {
        h.len() as u64 * ANN_ACT_BITS
    }

    fn eval(&mut self, h: Tensor, workers: usize) -> Result<(Tensor, bool), AnalogError> {
        Ok((self.forward_with_workers(&h, workers)?, true))
    }
}

impl UnitNet for AnalogSpikingNetwork {
    fn wave_bits(h: &Tensor) -> u64 {
        (h.len() as u64 * SNN_ACT_BITS).max(1)
    }

    fn eval(&mut self, h: Tensor, workers: usize) -> Result<(Tensor, bool), AnalogError> {
        let len = self.stages.len();
        let out = self.step_range_with(h, 0..len, false, workers)?;
        // The layer's own scatter decides, not the input tensor: a
        // strided conv can leave spiking pixels outside every patch.
        let driven = matches!(
            self.stages.first(),
            Some(
                SpikingAnalogStage::Dense { scratch, .. } | SpikingAnalogStage::Conv { scratch, .. }
            ) if scratch.driven
        );
        Ok((out, driven))
    }
}

impl<N: UnitNet> Unit<N> {
    /// Advances one wave: the ring transfer from the previous unit's
    /// chip `from`, the span's single-chip evaluation, then — for a
    /// tensor-sharded unit whose crossbars were driven — the input
    /// fan-out and partial-sum fan-in its remote segments cost.
    fn step<S: TrafficSink>(
        &mut self,
        from: Option<usize>,
        h: Tensor,
        sink: &mut S,
        workers: usize,
    ) -> Result<Tensor, AnalogError> {
        let in_bits = N::wave_bits(&h);
        if let Some(from) = from.filter(|&c| c != self.chip) {
            sink.send(from, self.chip, in_bits)?;
        }
        let (out, driven) = self.net.eval(h, workers)?;
        if driven && !self.remote.is_empty() {
            let out_bits = out.len() as u64 * PARTIAL_BITS;
            sink.shard(HOME, &self.remote, in_bits, out_bits)?;
        }
        Ok(out)
    }
}

/// Cuts a compiled stage list into units. `place` gives stage `i` its
/// chip and, for a tensor-sharded stage, its remote chips; such a stage
/// is a unit of its own, while consecutive stages on one chip share a
/// unit. `wrap(first, stages)` builds a unit's network from its
/// stages, the first of which is stage `first` of the whole network.
fn cut_units<S, N>(
    stages: Vec<S>,
    place: impl Fn(usize, &S) -> (usize, Option<Vec<usize>>),
    wrap: impl Fn(usize, Vec<S>) -> N,
) -> Vec<Unit<N>> {
    let stage_count = stages.len();
    let mut units = Vec::new();
    let mut span: Vec<S> = Vec::new();
    let mut span_chip = HOME;
    for (i, stage) in stages.into_iter().enumerate() {
        let (chip, remote) = place(i, &stage);
        if !span.is_empty() && (chip != span_chip || remote.is_some()) {
            units.push(Unit {
                chip: span_chip,
                net: wrap(i - span.len(), std::mem::take(&mut span)),
                remote: Vec::new(),
            });
        }
        match remote {
            Some(remote) => units.push(Unit {
                chip,
                net: wrap(i, vec![stage]),
                remote,
            }),
            None => {
                span_chip = chip;
                span.push(stage);
            }
        }
    }
    if !span.is_empty() {
        units.push(Unit {
            chip: span_chip,
            net: wrap(stage_count - span.len(), span),
            remote: Vec::new(),
        });
    }
    units
}

/// Runs one wave through `units` in order — the sequential walk.
fn walk<N: UnitNet>(
    units: &mut [Unit<N>],
    mut h: Tensor,
    cluster: &mut ChipCluster,
) -> Result<Tensor, AnalogError> {
    let workers = nebula_tensor::pool::size();
    let mut prev = None;
    for unit in units {
        h = unit.step(prev.replace(unit.chip), h, cluster, workers)?;
    }
    Ok(h)
}

// ---------------------------------------------------------------------
// ANN executor
// ---------------------------------------------------------------------

/// An ANN compiled once, then distributed over a chip cluster. Built
/// from an [`AnalogNetwork`] (faults, aging and kernel-path choices
/// carry over with the moved tiles); outputs, wave counts and
/// scalar-path energy are bit-identical to the donor network's
/// [`AnalogNetwork::forward`].
#[derive(Debug, Clone)]
pub struct ShardedAnalogNetwork {
    units: Vec<Unit<AnalogNetwork>>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    /// Waves the donor network had run before it was distributed.
    donor_waves: u64,
}

impl ShardedAnalogNetwork {
    /// Distributes `net` over `chips` chips under `strategy`.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn new(
        net: AnalogNetwork,
        chips: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, AnalogError> {
        match strategy {
            ShardStrategy::LayerPipelined => Self::layer_pipelined(net, chips),
            ShardStrategy::TensorSharded => Self::tensor_sharded(net, chips),
        }
    }

    /// Pipelines `net` over `chips` chips: contiguous stage spans,
    /// balanced by crossbar (super-tile) weight.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        let costs: Vec<u64> = net
            .stages
            .iter()
            .map(|s| s.matrix().map_or(0, |m| m.supertile_count().max(1) as u64))
            .collect();
        Self::pipelined_with_costs(net, chips, &costs)
    }

    /// Pipelines `net` over `chips` chips with stage spans balanced by
    /// *compute* (crossbar waves × receptive field × columns) for the
    /// given input shape, rather than by super-tile count. Super-tile
    /// weight is a capacity proxy; for convolutional networks the
    /// per-stage wall time is dominated by the im2col row count, which
    /// this walker knows — so the resulting spans bottleneck later. Any
    /// contiguous split is bit-identical (the forward pass is a fold
    /// over stages), so this only moves wall-clock balance.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages; propagates cluster-construction
    /// failures.
    pub fn layer_pipelined_for_input(
        net: AnalogNetwork,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        let mut shape: Vec<usize> = input_shape.get(1..).unwrap_or_default().to_vec();
        let mut costs = Vec::with_capacity(net.stages.len());
        for stage in &net.stages {
            costs.push(match stage {
                AnalogStage::Dense { matrix, .. } => {
                    shape = vec![matrix.cols];
                    (matrix.rf as u64) * matrix.cols as u64
                }
                AnalogStage::Conv { matrix, geom, .. } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("conv stage fed rank-{} image", shape.len()),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[1], shape[2])?;
                    shape = vec![matrix.cols, oh, ow];
                    (oh * ow) as u64 * matrix.rf as u64 * matrix.cols as u64
                }
                AnalogStage::AvgPool { k } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("pool stage fed rank-{} image", shape.len()),
                        });
                    }
                    shape = vec![shape[0], shape[1] / k, shape[2] / k];
                    0
                }
                AnalogStage::Flatten => {
                    shape = vec![shape.iter().product()];
                    0
                }
                AnalogStage::Relu | AnalogStage::Quant { .. } => 0,
            });
        }
        Self::pipelined_with_costs(net, chips, &costs)
    }

    fn pipelined_with_costs(
        net: AnalogNetwork,
        chips: usize,
        costs: &[u64],
    ) -> Result<Self, AnalogError> {
        let assignment = mapper::partition_balanced(costs, chips.max(1));
        Self::distribute(net, chips, ShardStrategy::LayerPipelined, |i, _| {
            (assignment[i], None)
        })
    }

    /// Keeps `net`'s multi-segment layers whole on the home chip, each
    /// as a unit of its own whose segments are placed round-robin
    /// across `chips` chips for traffic pricing; everything else stays
    /// on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::distribute(net, chips, ShardStrategy::TensorSharded, |_, stage| {
            shard_placement(stage.matrix().map_or(1, |m| m.tiles.len()), chips)
        })
    }

    fn distribute(
        net: AnalogNetwork,
        chips: usize,
        strategy: ShardStrategy,
        place: impl Fn(usize, &AnalogStage) -> (usize, Option<Vec<usize>>),
    ) -> Result<Self, AnalogError> {
        Ok(Self {
            cluster: default_cluster(chips)?,
            strategy,
            donor_waves: net.waves,
            units: cut_units(net.stages, place, |first_stage, stages| AnalogNetwork {
                stages,
                waves: 0,
                first_stage,
            }),
        })
    }

    /// The distribution strategy this network was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Chips in the cluster.
    pub fn chips(&self) -> usize {
        self.cluster.chips()
    }

    /// The cluster (traffic statistics live here).
    pub fn cluster(&self) -> &ChipCluster {
        &self.cluster
    }

    /// Mutable cluster access — link fault injection goes through here.
    pub fn cluster_mut(&mut self) -> &mut ChipCluster {
        &mut self.cluster
    }

    /// Cumulative cluster traffic (all meshes plus ring links).
    pub fn traffic(&self) -> TrafficStats {
        self.cluster.stats()
    }

    /// Selects the crossbar kernel path on every unit.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            unit.net.set_kernel_path(path);
        }
    }

    /// Runs a batch through the cluster and returns the logits —
    /// bit-identical to the donor single-chip
    /// [`AnalogNetwork::forward`].
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures; inter-chip routing
    /// failures surface as [`AnalogError::Noc`].
    pub fn forward(&mut self, inputs: &Tensor) -> Result<Tensor, AnalogError> {
        walk(&mut self.units, inputs.clone(), &mut self.cluster)
    }

    /// [`forward`](Self::forward), executed by the concurrent pipeline:
    /// the batch is split into micro-batches of
    /// [`PipelineConfig::micro_batch`] rows that stream through the
    /// chip stages on pool workers, with per-stage traffic journaled
    /// and replayed at the join — outputs, waves, scalar energy and
    /// cluster traffic are bit-identical to the sequential walk for any
    /// worker count and depth (see [`exec`]'s module docs).
    ///
    /// # Errors
    ///
    /// Same contract as [`forward`](Self::forward); routing failures
    /// surface from the journal replay at the join.
    pub fn forward_pipelined(
        &mut self,
        inputs: &Tensor,
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        let n = match inputs.shape().first() {
            Some(&n) if n > 0 && !self.units.is_empty() => n,
            _ => return self.forward(inputs),
        };
        let depth = cfg.micro_batch.max(1).min(n);
        let row_elems = inputs.len() / n;
        let in_shape = inputs.shape().to_vec();
        let data = inputs.data();
        let source: SourceFn<'_> = Box::new(move |idx| {
            let lo = idx * depth;
            let hi = ((idx + 1) * depth).min(n);
            let mut shape = in_shape.clone();
            shape[0] = hi - lo;
            Ok(Tensor::from_vec(
                data[lo * row_elems..hi * row_elems].to_vec(),
                &shape,
            )?)
        });
        let outs = run_units(
            &mut self.units,
            &mut self.cluster,
            n.div_ceil(depth),
            source,
            cfg,
            true,
        )?;
        // Concatenate micro-batch outputs in index order.
        let mut out_shape = outs[0].shape().to_vec();
        out_shape[0] = n;
        let mut out = Vec::with_capacity(n * out_shape[1..].iter().product::<usize>());
        for o in &outs {
            out.extend_from_slice(o.data());
        }
        Ok(Tensor::from_vec(out, &out_shape)?)
    }

    /// Total analog read energy across every chip: one running sum over
    /// every stage of every unit, in stage order — the same additions
    /// as the single-chip engine, hence bitwise equal on the scalar
    /// path.
    pub fn read_energy(&self) -> Joules {
        self.units
            .iter()
            .flat_map(|u| u.net.stage_energies(ProgrammedMatrix::read_energy))
            .sum()
    }

    /// Total programming energy (spent before sharding; tiles moved),
    /// summed like [`read_energy`](Self::read_energy).
    pub fn program_energy(&self) -> Joules {
        self.units
            .iter()
            .flat_map(|u| u.net.stage_energies(ProgrammedMatrix::program_energy))
            .sum()
    }

    /// Crossbar evaluation waves executed across the cluster — equal to
    /// the single-chip count (sharding a wave does not multiply it).
    pub fn waves(&self) -> u64 {
        self.donor_waves + self.units.iter().map(|u| u.net.waves()).sum::<u64>()
    }
}

// ---------------------------------------------------------------------
// SNN executor
// ---------------------------------------------------------------------

/// A spiking network distributed over a chip cluster. Built from a
/// compiled [`AnalogSpikingNetwork`]; outputs, RNG consumption, wave
/// counts and scalar-path energy are bit-identical to the donor's
/// [`AnalogSpikingNetwork::run`] / `run_seeded_groups` — every wave is
/// encoded once at the pipeline head, so the Poisson draw order never
/// changes.
#[derive(Debug, Clone)]
pub struct ShardedSpikingNetwork {
    units: Vec<Unit<AnalogSpikingNetwork>>,
    cluster: ChipCluster,
    strategy: ShardStrategy,
    encoding: InputEncoding,
    /// Waves the donor network had run before it was distributed.
    donor_waves: u64,
}

impl ShardedSpikingNetwork {
    /// Distributes `net` over `chips` chips under `strategy`.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn new(
        net: AnalogSpikingNetwork,
        chips: usize,
        strategy: ShardStrategy,
    ) -> Result<Self, AnalogError> {
        match strategy {
            ShardStrategy::LayerPipelined => Self::layer_pipelined(net, chips),
            ShardStrategy::TensorSharded => Self::tensor_sharded(net, chips),
        }
    }

    /// Pipelines `net` over `chips` chips (contiguous stage spans,
    /// balanced by super-tile weight). IF populations stay with their
    /// synaptic stage's chip, so membrane state is chip-local.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn layer_pipelined(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        let costs: Vec<u64> = net
            .stages
            .iter()
            .map(|s| {
                s.matrix().map_or(0, |m| {
                    m.tiles.iter().map(Vec::len).sum::<usize>().max(1) as u64
                })
            })
            .collect();
        Self::pipelined_with_costs(net, chips, &costs)
    }

    /// Pipelines `net` over `chips` chips with stage spans balanced by
    /// per-timestep *compute* (crossbar rows × receptive field ×
    /// columns) for the given input shape — the SNN counterpart of
    /// [`ShardedAnalogNetwork::layer_pipelined_for_input`]. Any
    /// contiguous split is bit-identical; this only moves wall-clock
    /// balance toward the im2col-heavy convolutional stages.
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the stages; propagates cluster-construction
    /// failures.
    pub fn layer_pipelined_for_input(
        net: AnalogSpikingNetwork,
        chips: usize,
        input_shape: &[usize],
    ) -> Result<Self, AnalogError> {
        let mut shape: Vec<usize> = input_shape.get(1..).unwrap_or_default().to_vec();
        let mut costs = Vec::with_capacity(net.stages.len());
        for stage in &net.stages {
            costs.push(match stage {
                SpikingAnalogStage::Dense { matrix, .. } => {
                    shape = vec![matrix.cols];
                    (matrix.rf as u64) * matrix.cols as u64
                }
                SpikingAnalogStage::Conv { matrix, geom, .. } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("conv stage fed rank-{} image", shape.len()),
                        });
                    }
                    let (oh, ow) = geom.out_hw(shape[1], shape[2])?;
                    shape = vec![matrix.cols, oh, ow];
                    (oh * ow) as u64 * matrix.rf as u64 * matrix.cols as u64
                }
                SpikingAnalogStage::AvgPool { k } => {
                    if shape.len() != 3 {
                        return Err(AnalogError::BadGeometry {
                            reason: format!("pool stage fed rank-{} image", shape.len()),
                        });
                    }
                    shape = vec![shape[0], shape[1] / k, shape[2] / k];
                    0
                }
                SpikingAnalogStage::Flatten => {
                    shape = vec![shape.iter().product()];
                    0
                }
                SpikingAnalogStage::IntegrateFire(_) => 0,
            });
        }
        Self::pipelined_with_costs(net, chips, &costs)
    }

    fn pipelined_with_costs(
        net: AnalogSpikingNetwork,
        chips: usize,
        costs: &[u64],
    ) -> Result<Self, AnalogError> {
        let assignment = mapper::partition_balanced(costs, chips.max(1));
        Self::distribute(net, chips, ShardStrategy::LayerPipelined, |i, _| {
            (assignment[i], None)
        })
    }

    /// Keeps `net`'s multi-segment synaptic layers whole on the home
    /// chip, each as a unit of its own whose segments are placed
    /// round-robin across `chips` chips for traffic pricing; IF
    /// populations and pooling stay on the home chip.
    ///
    /// # Errors
    ///
    /// Propagates cluster-construction failures.
    pub fn tensor_sharded(net: AnalogSpikingNetwork, chips: usize) -> Result<Self, AnalogError> {
        Self::distribute(net, chips, ShardStrategy::TensorSharded, |_, stage| {
            shard_placement(stage.matrix().map_or(1, |m| m.tiles.len()), chips)
        })
    }

    fn distribute(
        net: AnalogSpikingNetwork,
        chips: usize,
        strategy: ShardStrategy,
        place: impl Fn(usize, &SpikingAnalogStage) -> (usize, Option<Vec<usize>>),
    ) -> Result<Self, AnalogError> {
        let encoding = net.encoding;
        Ok(Self {
            cluster: default_cluster(chips)?,
            strategy,
            encoding,
            donor_waves: net.timestep_waves,
            units: cut_units(net.stages, place, |first_stage, stages| {
                AnalogSpikingNetwork {
                    stages,
                    encoding,
                    timestep_waves: 0,
                    first_stage,
                }
            }),
        })
    }

    /// The distribution strategy this network was built with.
    pub fn strategy(&self) -> ShardStrategy {
        self.strategy
    }

    /// Chips in the cluster.
    pub fn chips(&self) -> usize {
        self.cluster.chips()
    }

    /// The cluster (traffic statistics live here).
    pub fn cluster(&self) -> &ChipCluster {
        &self.cluster
    }

    /// Mutable cluster access — link fault injection goes through here.
    pub fn cluster_mut(&mut self) -> &mut ChipCluster {
        &mut self.cluster
    }

    /// Cumulative cluster traffic (all meshes plus ring links).
    pub fn traffic(&self) -> TrafficStats {
        self.cluster.stats()
    }

    /// Sets the input encoding (carried over from the donor network by
    /// default).
    pub fn set_encoding(&mut self, encoding: InputEncoding) {
        self.encoding = encoding;
    }

    /// Selects the crossbar kernel path on every unit.
    pub fn set_kernel_path(&mut self, path: nebula_crossbar::KernelPath) {
        for unit in &mut self.units {
            unit.net.set_kernel_path(path);
        }
    }

    /// Output-potential shape for `input_shape` (used by the
    /// zero-timestep corner).
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when `input_shape` cannot
    /// flow through the units.
    pub fn output_shape(&self, input_shape: &[usize]) -> Result<Vec<usize>, AnalogError> {
        self.units
            .iter()
            .try_fold(input_shape.to_vec(), |shape, u| u.net.output_shape(&shape))
    }

    /// Runs `timesteps` of spiking inference across the cluster —
    /// bit-identical to the donor single-chip
    /// [`AnalogSpikingNetwork::run`] (the whole batch is encoded at the
    /// pipeline head each timestep, so RNG consumption matches).
    ///
    /// # Errors
    ///
    /// Propagates circuit and tensor failures; inter-chip routing
    /// failures surface as [`AnalogError::Noc`].
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder(inputs, timesteps, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    fn run_with_encoder(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        encode: &mut dyn FnMut(&Tensor) -> Tensor,
    ) -> Result<Tensor, AnalogError> {
        for unit in &mut self.units {
            unit.net.reset_state();
        }
        let mut acc: Option<Tensor> = None;
        for _ in 0..timesteps {
            let h = walk(&mut self.units, encode(inputs), &mut self.cluster)?;
            match &mut acc {
                Some(a) => a.add_assign(&h)?,
                none => *none = Some(h),
            }
        }
        match acc {
            Some(a) => Ok(a),
            None => Ok(Tensor::zeros(&self.output_shape(inputs.shape())?)),
        }
    }

    /// [`run`](Self::run), executed by the concurrent pipeline: each
    /// timestep is one pipeline item, so chip stage *k* advances
    /// timestep *t+1* while stage *k+1* advances timestep *t*. The
    /// whole batch is still encoded exactly once per timestep, at the
    /// pipeline head and in ascending timestep order (the source is
    /// serialized), so RNG consumption is untouched; per-stage traffic
    /// is journaled one op per timestep and replayed at the join —
    /// outputs, waves, scalar energy and cluster traffic are
    /// bit-identical to the sequential [`run`](Self::run) for any
    /// worker count.
    ///
    /// # Errors
    ///
    /// Same contract as [`run`](Self::run); routing failures surface
    /// from the journal replay at the join.
    pub fn run_pipelined<R: Rng + Send + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        let encoding = self.encoding;
        self.run_with_encoder_pipelined(inputs, timesteps, cfg, &mut |x: &Tensor| {
            encode_with(encoding, x, rng)
        })
    }

    /// Runs independently seeded request groups through the concurrent
    /// pipeline — the serving layer's entry point; bit-identical to the
    /// donor's [`AnalogSpikingNetwork::run_seeded_groups`].
    ///
    /// # Errors
    ///
    /// Returns [`AnalogError::BadGeometry`] when the group row counts
    /// don't sum to the batch size; propagates circuit, tensor and
    /// routing failures (the latter from the journal replay at the
    /// join).
    pub fn run_seeded_groups_pipelined(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        groups: &[(usize, u64)],
        cfg: &PipelineConfig,
    ) -> Result<Tensor, AnalogError> {
        let mut encode = seeded_group_encoder(self.encoding, inputs, groups)?;
        self.run_with_encoder_pipelined(inputs, timesteps, cfg, &mut encode)
    }

    fn run_with_encoder_pipelined(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        cfg: &PipelineConfig,
        encode: &mut (dyn FnMut(&Tensor) -> Tensor + Send),
    ) -> Result<Tensor, AnalogError> {
        if self.units.is_empty() || timesteps == 0 {
            return self.run_with_encoder(inputs, timesteps, encode);
        }
        for unit in &mut self.units {
            unit.net.reset_state();
        }
        let source: SourceFn<'_> = Box::new(move |_t| Ok(encode(inputs)));
        // Non-coalescing journals: SNN traffic replays one op per
        // timestep (flit rounding and silence skips are per-timestep in
        // the sequential walk).
        let outs = run_units(
            &mut self.units,
            &mut self.cluster,
            timesteps,
            source,
            cfg,
            false,
        )?;
        // Fold potentials in ascending timestep order — the same
        // accumulation the sequential loop performs.
        let mut outs = outs.into_iter();
        let mut acc = outs.next().expect("timesteps >= 1");
        for h in outs {
            acc.add_assign(&h)?;
        }
        Ok(acc)
    }

    /// Total analog read energy across every chip: one running sum over
    /// every stage of every unit, in stage order — bitwise equal to the
    /// single-chip counter on the scalar path.
    pub fn read_energy(&self) -> Joules {
        self.units
            .iter()
            .flat_map(|u| u.net.stage_read_energies())
            .sum()
    }

    /// Crossbar waves executed across the cluster — equal to the
    /// single-chip count.
    pub fn waves(&self) -> u64 {
        self.donor_waves + self.units.iter().map(|u| u.net.waves()).sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula_nn::layer::Layer;
    use nebula_nn::snn::{IfPopulation, ResetMode, SnnStage, SpikingNetwork};
    use nebula_workloads::zoo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A dense ANN whose first matrix spans multiple R_f segments, so
    /// tensor sharding has something to split.
    fn wide_ann(seed: u64) -> AnalogNetwork {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let net = nebula_nn::network::Network::new(vec![
            Layer::dense(MAX_RF_IN_CORE + 7, 6, &mut r),
            Layer::relu(),
            Layer::dense(6, 4, &mut r),
        ]);
        crate::analog::compile_ann(&net).unwrap()
    }

    fn wide_snn(seed: u64) -> AnalogSpikingNetwork {
        let mut r = ChaCha8Rng::seed_from_u64(seed);
        let snn = SpikingNetwork::new(
            vec![
                SnnStage::Synaptic(Layer::dense(MAX_RF_IN_CORE + 5, 5, &mut r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
                SnnStage::Synaptic(Layer::dense(5, 3, &mut r)),
                SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
            ],
            InputEncoding::Poisson,
        );
        crate::analog_snn::compile_snn_default(&snn).unwrap()
    }

    #[test]
    fn sharded_geometry_errors_name_the_network_stage() {
        // A tensor-sharded wide layer is a unit of its own; a bad input
        // reaching it must name its index in the whole network, as the
        // single-chip engine does, not its index inside the unit.
        let expect = |res: Result<Tensor, AnalogError>, what: &str| match res {
            Err(AnalogError::BadGeometry { reason }) => {
                assert!(reason.starts_with("stage 1:"), "{what}: {reason}");
            }
            other => panic!("{what}: expected a geometry error, got {other:?}"),
        };
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let ann = crate::analog::compile_ann(&nebula_nn::network::Network::new(vec![
            Layer::relu(),
            Layer::dense(MAX_RF_IN_CORE + 7, 4, &mut r),
        ]))
        .unwrap();
        let x = Tensor::full(&[2, MAX_RF_IN_CORE], 0.5);
        expect(ann.clone().forward(&x), "single-chip ANN");
        let mut sharded = ShardedAnalogNetwork::tensor_sharded(ann, 2).unwrap();
        expect(sharded.forward(&x), "sharded ANN");
        let cfg = PipelineConfig::default();
        expect(sharded.forward_pipelined(&x, &cfg), "pipelined ANN");
        let snn = crate::analog_snn::compile_snn_default(&SpikingNetwork::new(
            vec![
                SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
                SnnStage::Synaptic(Layer::dense(MAX_RF_IN_CORE + 5, 3, &mut r)),
            ],
            InputEncoding::Constant,
        ))
        .unwrap();
        let mut sharded = ShardedSpikingNetwork::tensor_sharded(snn, 2).unwrap();
        expect(sharded.run(&x, 2, &mut r), "sharded SNN");
        expect(sharded.run_pipelined(&x, 2, &mut r, &cfg), "pipelined SNN");
    }

    #[test]
    fn pipelined_ann_matches_single_chip_bitwise() {
        let master = wide_ann(11);
        let mut r = ChaCha8Rng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&[3, MAX_RF_IN_CORE + 7], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let want = single.forward(&x).unwrap();
        for chips in [1usize, 2, 4] {
            let mut sharded = ShardedAnalogNetwork::layer_pipelined(master.clone(), chips).unwrap();
            let got = sharded.forward(&x).unwrap();
            assert!(bits_equal(&want, &got), "{chips}-chip pipeline diverged");
            assert_eq!(sharded.waves(), single.waves());
        }
    }

    #[test]
    fn tensor_sharded_ann_matches_single_chip_bitwise() {
        let master = wide_ann(19);
        let mut r = ChaCha8Rng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&[2, MAX_RF_IN_CORE + 7], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let want = single.forward(&x).unwrap();
        let mut sharded = ShardedAnalogNetwork::tensor_sharded(master, 2).unwrap();
        let got = sharded.forward(&x).unwrap();
        assert!(bits_equal(&want, &got));
        assert_eq!(sharded.read_energy(), single.read_energy());
        // The wide layer's partials actually crossed the ring.
        assert!(sharded.traffic().link_flit_hops > 0);
    }

    #[test]
    fn sharded_snn_matches_single_chip_bitwise_including_rng() {
        let master = wide_snn(23);
        let mut r = ChaCha8Rng::seed_from_u64(9);
        let x = Tensor::rand_uniform(&[2, MAX_RF_IN_CORE + 5], 0.0, 1.0, &mut r);
        let mut single = master.clone();
        let mut r1 = ChaCha8Rng::seed_from_u64(41);
        let want = single.run(&x, 4, &mut r1).unwrap();
        for strategy in [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded] {
            let mut sharded = ShardedSpikingNetwork::new(master.clone(), 3, strategy).unwrap();
            let mut r2 = ChaCha8Rng::seed_from_u64(41);
            let got = sharded.run(&x, 4, &mut r2).unwrap();
            assert!(bits_equal(&want, &got), "{strategy:?} diverged");
            assert_eq!(sharded.waves(), single.waves(), "{strategy:?} waves");
        }
    }

    #[test]
    fn dead_link_reroutes_or_surfaces_as_noc_error() {
        let master = wide_snn(31);
        let mut sharded = ShardedSpikingNetwork::tensor_sharded(master.clone(), 2).unwrap();
        let x = Tensor::from_vec(vec![1.0; MAX_RF_IN_CORE + 5], &[1, MAX_RF_IN_CORE + 5]).unwrap();
        // Two chips share one link: killing it severs the ring, so the
        // sharded stage's fan-out must fail loudly, not silently.
        sharded.cluster_mut().fail_link(0).unwrap();
        let mut r = ChaCha8Rng::seed_from_u64(1);
        let err = sharded.run(&x, 1, &mut r).unwrap_err();
        assert!(matches!(err, AnalogError::Noc(_)), "got {err:?}");
        // On a 4-chip ring one dead link just detours the long way.
        let mut sharded4 = ShardedSpikingNetwork::tensor_sharded(master, 4).unwrap();
        sharded4.cluster_mut().fail_link(0).unwrap();
        let mut r = ChaCha8Rng::seed_from_u64(1);
        sharded4.run(&x, 1, &mut r).unwrap();
        assert!(sharded4.traffic().link_flit_hops > 0);
    }

    #[test]
    fn plan_pipelines_vgg_and_rejects_undersized_clusters() {
        let ds = zoo::vgg13(10);
        let plan = plan_cluster(
            &ds,
            &ClusterConfig::new(4, ShardStrategy::LayerPipelined),
            ExecMode::Snn { timesteps: 1 },
        )
        .unwrap();
        assert!(plan.stage_count >= 2 && plan.stage_count <= 4);
        assert_eq!(plan.stage_of_layer.len(), ds.len());
        assert!(plan.speedup(64) > 1.0, "pipelining must pay at depth 64");
        // A 16384-wide dense layer (16 cores) outweighs the 14-core
        // ANN pool, so it cannot pipeline onto ANY cluster — only
        // tensor sharding runs it: 2 of its 8 segments per chip on 4
        // chips is 4 cores each.
        let wide = vec![LayerDescriptor::dense(
            0,
            "wide_fc",
            8 * MAX_RF_IN_CORE,
            256,
        )];
        let cfg = ClusterConfig::new(16, ShardStrategy::LayerPipelined);
        let err = plan_cluster(&wide, &cfg, ExecMode::Ann).unwrap_err();
        assert!(err.demanded > err.available);
        let cfg = ClusterConfig::new(4, ShardStrategy::TensorSharded);
        let plan = plan_cluster(&wide, &cfg, ExecMode::Ann).unwrap();
        assert!(plan.per_chip_cores.iter().all(|&c| c <= 14));
    }

    #[test]
    fn makespan_fills_then_streams_at_the_bottleneck() {
        let plan = ClusterPlan {
            strategy: ShardStrategy::LayerPipelined,
            chips: 2,
            stage_count: 2,
            stage_of_layer: vec![0, 1],
            stage_cycles: vec![10, 30],
            per_chip_cores: vec![1, 1],
            bottleneck_cycles: 30,
            single_pass_cycles: 40,
        };
        assert_eq!(plan.makespan_cycles(0), 0);
        assert_eq!(plan.makespan_cycles(1), 40 + LINK_HOP_CYCLES);
        assert_eq!(plan.makespan_cycles(3), 40 + LINK_HOP_CYCLES + 2 * 30);
        let s = plan.speedup(1000);
        assert!(s > 1.3 && s < 40.0 / 30.0 + 1e-6, "speedup {s}");
    }
}
