//! Tier-1 contract smoke for multi-chip sharding.
//!
//! Three small nets whose widest layer spans several `16M`-row
//! segments — a dense ANN, a dense SNN and a strided conv SNN — run
//! under both [`ShardStrategy`]s on 2 and 4 chips, through the
//! sequential sharded walk and through the concurrent pipeline with two
//! claimants. Every run must match the single-chip `*_sequential`
//! reference bit for bit in outputs, wave counts and Scalar-path read
//! energy, and must leave exactly the pinned cluster [`TrafficStats`].
//!
//! The traffic figures are pinned as constants rather than compared
//! between the two walks: both walks share the unit executor that
//! prices shard traffic, so a drift in that accounting would move them
//! together and a walk-vs-walk comparison could not see it.

use nebula::core::analog::{compile_ann, AnalogNetwork};
use nebula::core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula::core::components::MAX_RF_IN_CORE;
use nebula::core::multichip::{
    PipelineConfig, ShardStrategy, ShardedAnalogNetwork, ShardedSpikingNetwork,
};
use nebula::crossbar::KernelPath;
use nebula::nn::layer::Layer;
use nebula::nn::network::Network;
use nebula::nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula::noc::TrafficStats;
use nebula::tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const STRATEGIES: [ShardStrategy; 2] =
    [ShardStrategy::LayerPipelined, ShardStrategy::TensorSharded];
const CHIPS: [usize; 2] = [2, 4];
const TIMESTEPS: usize = 4;
const RUN_SEED: u64 = 41;

/// Receptive field of the wide dense layers: three segments, so a
/// 4-chip tensor-sharded layer reaches two remote chips.
const WIDE_RF: usize = 2 * MAX_RF_IN_CORE + 5;
/// Conv input channels: `232 · 3 · 3 = 2088` rows, two segments.
const CONV_CHANNELS: usize = 232;
/// Conv input side. A 3×3 stride-2 unpadded kernel reads rows and
/// columns 0..=4 only, so row and column 5 lie outside every patch.
const CONV_SIDE: usize = 6;

fn two_claimants() -> PipelineConfig {
    PipelineConfig {
        micro_batch: 1,
        workers: 2,
        ..PipelineConfig::default()
    }
}

/// Pinned cluster traffic per (strategy, chips), in `STRATEGIES` ×
/// `CHIPS` order: `(transfers, flit_hops, ru_adds, ru_activations,
/// link_flit_hops)`.
type Pinned = [[(u64, u64, u64, u64, u64); 2]; 2];

fn pinned(table: &Pinned, s: usize, c: usize) -> TrafficStats {
    let (transfers, flit_hops, ru_adds, ru_activations, link_flit_hops) = table[s][c];
    TrafficStats {
        transfers,
        flit_hops,
        ru_adds,
        ru_activations,
        link_flit_hops,
    }
}

fn assert_bits(tag: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{tag} shape");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag} element {i}: {a} vs {b}");
    }
}

fn wide_ann() -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(11);
    let net = Network::new(vec![
        Layer::dense(WIDE_RF, 6, &mut r),
        Layer::relu(),
        Layer::dense(6, 4, &mut r),
    ]);
    let mut ann = compile_ann(&net).unwrap();
    ann.set_kernel_path(KernelPath::Scalar);
    ann
}

fn wide_dense_snn() -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(23);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(WIDE_RF, 5, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(5, 3, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    let mut net = compile_snn_default(&snn).unwrap();
    net.set_kernel_path(KernelPath::Scalar);
    net
}

fn wide_conv_snn() -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(31);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(CONV_CHANNELS, 2, 3, 2, 0, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(2 * 2 * 2, 3, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
        ],
        InputEncoding::Poisson,
    );
    let mut net = compile_snn_default(&snn).unwrap();
    net.set_kernel_path(KernelPath::Scalar);
    net
}

fn ann_contract(master: &AnalogNetwork, x: &Tensor, traffic: &Pinned) {
    let mut single = master.clone();
    let want = single.forward_sequential(x).unwrap();
    for (s, strategy) in STRATEGIES.into_iter().enumerate() {
        for (c, chips) in CHIPS.into_iter().enumerate() {
            let mut walk = ShardedAnalogNetwork::new(master.clone(), chips, strategy).unwrap();
            let mut piped = walk.clone();
            let runs = [
                ("walk", walk.forward(x).unwrap(), &walk),
                (
                    "pipeline",
                    piped.forward_pipelined(x, &two_claimants()).unwrap(),
                    &piped,
                ),
            ];
            for (how, got, net) in &runs {
                let tag = format!("ann {strategy:?}/{chips} {how}");
                assert_bits(&tag, &want, got);
                assert_eq!(net.waves(), single.waves(), "{tag} waves");
                assert_eq!(
                    net.read_energy().0.to_bits(),
                    single.read_energy().0.to_bits(),
                    "{tag} energy"
                );
                assert_eq!(net.traffic(), pinned(traffic, s, c), "{tag} traffic");
            }
        }
    }
}

fn snn_contract(master: &AnalogSpikingNetwork, x: &Tensor, traffic: &Pinned) {
    let mut single = master.clone();
    let mut r = ChaCha8Rng::seed_from_u64(RUN_SEED);
    let want = single.run_sequential(x, TIMESTEPS, &mut r).unwrap();
    for (s, strategy) in STRATEGIES.into_iter().enumerate() {
        for (c, chips) in CHIPS.into_iter().enumerate() {
            let mut walk = ShardedSpikingNetwork::new(master.clone(), chips, strategy).unwrap();
            let mut piped = walk.clone();
            let mut r_walk = ChaCha8Rng::seed_from_u64(RUN_SEED);
            let mut r_piped = ChaCha8Rng::seed_from_u64(RUN_SEED);
            let runs = [
                ("walk", walk.run(x, TIMESTEPS, &mut r_walk).unwrap(), &walk),
                (
                    "pipeline",
                    piped
                        .run_pipelined(x, TIMESTEPS, &mut r_piped, &two_claimants())
                        .unwrap(),
                    &piped,
                ),
            ];
            for (how, got, net) in &runs {
                let tag = format!("snn {strategy:?}/{chips} {how}");
                assert_bits(&tag, &want, got);
                assert_eq!(net.waves(), single.waves(), "{tag} waves");
                assert_eq!(
                    net.read_energy().0.to_bits(),
                    single.read_energy().0.to_bits(),
                    "{tag} energy"
                );
                assert_eq!(net.traffic(), pinned(traffic, s, c), "{tag} traffic");
            }
        }
    }
}

#[test]
fn wide_dense_ann_contract() {
    let mut r = ChaCha8Rng::seed_from_u64(5);
    let x = Tensor::rand_uniform(&[3, WIDE_RF], 0.0, 1.0, &mut r);
    ann_contract(
        &wide_ann(),
        &x,
        &[
            [(3, 81, 0, 0, 3), (3, 81, 0, 0, 3)],
            [(6, 42012, 1, 1, 1556), (14, 104252, 2, 1, 4668)],
        ],
    );
}

#[test]
fn wide_dense_snn_contract() {
    let mut r = ChaCha8Rng::seed_from_u64(9);
    let x = Tensor::rand_uniform(&[2, WIDE_RF], 0.0, 1.0, &mut r);
    snn_contract(
        &wide_dense_snn(),
        &x,
        &[
            [(12, 108, 0, 0, 4), (12, 108, 0, 0, 4)],
            [(24, 28836, 4, 4, 1068), (56, 71556, 8, 4, 3204)],
        ],
    );
}

#[test]
fn wide_conv_snn_contract() {
    let mut r = ChaCha8Rng::seed_from_u64(13);
    let x = Tensor::rand_uniform(&[2, CONV_CHANNELS, CONV_SIDE, CONV_SIDE], 0.0, 1.0, &mut r);
    snn_contract(
        &wide_conv_snn(),
        &x,
        &[
            [(12, 108, 0, 0, 4), (12, 108, 0, 0, 4)],
            [(24, 58104, 4, 4, 2152), (24, 58104, 4, 4, 2152)],
        ],
    );
}

/// Spikes only on the row and column the strided kernel never reads:
/// the input wave is not silent, but every patch is, so the conv layer
/// ships no shard traffic — only the 1-bit stage-boundary transfers.
#[test]
fn strided_conv_outside_every_patch_ships_no_shard_traffic() {
    let mut x = Tensor::zeros(&[2, CONV_CHANNELS, CONV_SIDE, CONV_SIDE]);
    let last = CONV_SIDE - 1;
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        let (y, xx) = ((i / CONV_SIDE) % CONV_SIDE, i % CONV_SIDE);
        if y == last || xx == last {
            *v = 1.0;
        }
    }
    let mut net = wide_conv_snn();
    net.set_encoding(InputEncoding::Constant);
    snn_contract(
        &net,
        &x,
        &[
            [(12, 108, 0, 0, 4), (12, 108, 0, 0, 4)],
            [(0, 0, 0, 0, 0), (0, 0, 0, 0, 0)],
        ],
    );
}
