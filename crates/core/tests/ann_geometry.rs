//! Geometry coverage of the ANN dense-drive pass.
//!
//! The fast path never materializes `im2col`: each conv patch is
//! gathered straight from the NCHW input (pad taps drive `0.0`), its
//! driven rows are indexed once per receptive-field segment, and every
//! atomic crossbar walks its slice of that list in 16-lane column tiles
//! with an 8-lane tail. Its bit-identity with
//! [`AnalogNetwork::forward_sequential`] rests on the gather reproducing
//! `im2col` row for row, and on every output column receiving its rows
//! in ascending order whatever the tiling. These properties sweep
//! exactly those: kernels k ∈ {1, 2, 3, 5}, strides {1, 2, 3} and
//! paddings {0, 1, 2}; receptive fields over one AC (150, 288 rows), a
//! dense layer over 2048 rows (two segments) and 130 columns (two column
//! groups); column counts that end in a lone 8-lane tail (8, 10), whole
//! tiles, or tiles plus a tail (24, 40); all-zero inputs and patches; a
//! palette-spilling TMR fault map and a killed AC; the Scalar and Auto
//! kernel paths.
//!
//! Each case runs these legs on clones of one compiled network:
//! - the sequential reference;
//! - [`AnalogNetwork::forward_with_workers`] on 1, 2 and 3 pool workers,
//!   then a warm second call;
//! - a one-chip [`ShardedAnalogNetwork`] run pipelined in one-row
//!   micro-batches with two claimants, whose stage bodies evaluate on a
//!   single worker.
//!
//! Outputs and waves must match bit for bit, read energy too on the
//! scalar path, and within 1e-9 relative on the Auto path.

use nebula_core::analog::{compile_ann, AnalogNetwork};
use nebula_core::multichip::PipelineConfig;
use nebula_core::ShardedAnalogNetwork;
use nebula_crossbar::KernelPath;
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::Network;
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance (1e-12 relative per dot).
const ENERGY_RTOL: f64 = 1e-9;

const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Auto];

/// `quant → conv(c_in → c_out, k, stride, pad) → relu → quant → flatten
/// → dense(→ head)` on `side × side` frames. The quantizers give both
/// synaptic stages an input scale other than 1.
fn conv_net(
    [c_in, c_out, k, stride, pad, side]: [usize; 6],
    head: usize,
    seed: u64,
) -> AnalogNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let out = (side + 2 * pad - k) / stride + 1;
    let net = Network::new(vec![
        Layer::activation_quant(0.8, 16),
        Layer::conv2d(c_in, c_out, k, stride, pad, &mut r),
        Layer::relu(),
        Layer::activation_quant(1.5, 16),
        Layer::flatten(),
        Layer::dense(c_out * out * out, head, &mut r),
    ]);
    compile_ann(&net).unwrap()
}

/// Input tensor of `shape` whose entries survive with probability
/// `density` (the rest exactly `0.0`), drawn from `seed`.
fn input(shape: &[usize], density: f64, seed: u64) -> Tensor {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let t = Tensor::rand_uniform(shape, 0.0, 1.0, &mut r);
    let keep = Tensor::rand_uniform(shape, 0.0, 1.0, &mut r);
    let data = t
        .data()
        .iter()
        .zip(keep.data())
        .map(|(&v, &k)| if f64::from(k) < density { v } else { 0.0 })
        .collect();
    Tensor::from_vec(data, shape).unwrap()
}

fn assert_bits(label: &str, want: &Tensor, got: &Tensor) {
    assert_eq!(want.shape(), got.shape(), "{label}: shape");
    for (i, (a, b)) in want.data().iter().zip(got.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}: {a} vs {b}");
    }
}

fn assert_energy(label: &str, path: KernelPath, want: f64, got: f64) {
    if path == KernelPath::Scalar {
        assert_eq!(want.to_bits(), got.to_bits(), "{label}: scalar energy");
    } else if want == 0.0 {
        assert_eq!(got, 0.0, "{label}: energy from a silent run");
    } else {
        assert!(
            ((got - want) / want).abs() <= ENERGY_RTOL,
            "{label}: energy {got} vs {want}"
        );
    }
}

/// Runs every leg on `master` under `path` and asserts the contract.
fn assert_legs(label: &str, master: &AnalogNetwork, path: KernelPath, x: &Tensor) {
    let label = format!("{label} {path:?}");
    let mut seq = master.clone();
    seq.set_kernel_path(path);
    let fresh = seq.clone();
    let want = seq.forward_sequential(x).unwrap();
    let e_want = seq.read_energy().0;

    for workers in [1, 2, 3] {
        let leg = format!("{label} {workers} workers");
        let mut fast = fresh.clone();
        let got = fast.forward_with_workers(x, workers).unwrap();
        assert_bits(&leg, &want, &got);
        assert_eq!(seq.waves(), fast.waves(), "{leg}: waves");
        assert_energy(&leg, path, e_want, fast.read_energy().0);
        // A second call reuses the prepared caches.
        let again = fast.forward_with_workers(x, workers).unwrap();
        assert_bits(&format!("{leg} warm"), &want, &again);
    }

    let mut piped = ShardedAnalogNetwork::layer_pipelined(fresh, 1).unwrap();
    let cfg = PipelineConfig {
        micro_batch: 1,
        workers: 2,
        ..PipelineConfig::default()
    };
    let got = piped.forward_pipelined(x, &cfg).unwrap();
    assert_bits(&format!("{label} pipelined"), &want, &got);
    assert_eq!(seq.waves(), piped.waves(), "{label} pipelined: waves");
    assert_energy(
        &format!("{label} pipelined"),
        path,
        e_want,
        piped.read_energy().0,
    );
}

proptest! {
    /// Every kernel / stride / padding combination on small frames,
    /// activity swept from all-zero to dense, with conv and dense column
    /// counts on both sides of the 8- and 16-lane tile widths.
    #[test]
    fn conv_patches_match_sequential_for_every_geometry(
        k in prop::sample::select(vec![1usize, 2, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        extra in 0usize..5,
        c_in in 1usize..4,
        c_out in prop::sample::select(vec![1usize, 3, 8, 10, 24, 40]),
        head in prop::sample::select(vec![2usize, 8, 10, 24, 40]),
        samples in 1usize..4,
        density_step in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let side = k.saturating_sub(2 * pad).max(1) + extra;
        let net = conv_net([c_in, c_out, k, stride, pad, side], head, seed);
        let x = input(&[samples, c_in, side, side], density_step as f64 / 4.0, seed ^ 0x5EED);
        let label = format!("k{k} s{stride} p{pad} side{side} c{c_in}->{c_out}->{head}");
        for path in PATHS {
            assert_legs(&label, &net, path, &x);
        }
    }

    /// Receptive fields over one AC (rf = c_in·k² of 150 or 288 rows)
    /// and output channels over one column group (130 > 128): rows land
    /// on several ACs and every item on several tiles.
    #[test]
    fn multi_ac_and_multi_group_convs_match_sequential(
        shape in prop::sample::select(vec![(6usize, 5usize, 1usize, 2usize), (32, 3, 1, 1), (32, 3, 2, 0)]),
        wide in 0u8..2,
        density_step in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let (c_in, k, stride, pad) = shape;
        let c_out = if wide == 1 { 130 } else { 10 };
        let net = conv_net([c_in, c_out, k, stride, pad, 5], 3, seed);
        let x = input(&[2, c_in, 5, 5], density_step as f64 / 4.0, seed ^ 0xAC);
        let label = format!("rf{} cols{c_out} s{stride} p{pad}", c_in * k * k);
        for path in PATHS {
            assert_legs(&label, &net, path, &x);
        }
    }

    /// Faults: a TMR-degradation map (per-cell factors spill the packed
    /// palette) and an optional killed AC.
    #[test]
    fn faulted_and_killed_arrays_match_sequential(
        rate in 0.05f64..0.3,
        killed_ac in 0usize..2,
        kill in 0u8..2,
        density_step in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let mut net = conv_net([15, 24, 3, 1, 1, 5], 10, seed);
        let model = FaultModel::single(FaultClass::TmrDegradation, rate);
        net.inject_faults(&model, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xFA17));
        if kill == 1 {
            net.kill_ac(0, killed_ac);
        }
        let x = input(&[2, 15, 5, 5], density_step as f64 / 4.0, seed ^ 0xF00);
        for path in PATHS {
            assert_legs("tmr conv", &net, path, &x);
        }
    }
}

/// A dense layer over 2048 rows spans two receptive-field segments (two
/// rows of super-tiles whose partial outputs add in f32), here with
/// output columns over one group as well.
#[test]
fn multi_segment_dense_matches_sequential() {
    let mut r = ChaCha8Rng::seed_from_u64(21);
    let net = compile_ann(&Network::new(vec![
        Layer::dense(2100, 130, &mut r),
        Layer::relu(),
        Layer::activation_quant(2.0, 16),
        Layer::dense(130, 3, &mut r),
    ]))
    .unwrap();
    for (i, density) in [0.0, 0.05, 0.5, 1.0].into_iter().enumerate() {
        let x = input(&[3, 2100], density, 40 + i as u64);
        for path in PATHS {
            assert_legs(&format!("dense 2100 density {density}"), &net, path, &x);
        }
    }
}
