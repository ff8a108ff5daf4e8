//! Geometry coverage of the event-driven spike scatter.
//!
//! The event path scatters each spike of a synaptic stage's input into
//! the per-AC accumulators of every patch it reaches, one output-row
//! band at a time. Its bit-identity with
//! [`AnalogSpikingNetwork::run_sequential`] rests on every (patch, AC)
//! accumulator receiving its rows in ascending order, which depends on
//! the tap arithmetic (kernel size, stride, padding) and on how rows map
//! onto atomic crossbars, column tiles and receptive-field segments.
//! These properties sweep exactly those: kernels k ∈ {1, 2, 3, 5},
//! strides {1, 2, 3} and paddings {0, 1, 2}; receptive fields over one
//! AC (multi-AC super-tiles), over 128 columns (multi-tile groups) and a
//! dense layer over 2048 rows (multi-segment); a palette-spilling TMR
//! fault map and a killed AC; the Scalar and Auto kernel paths.
//!
//! Each case runs three legs on clones of one compiled network:
//! - the sequential reference;
//! - [`AnalogSpikingNetwork::run`], whose stages fan band blocks out
//!   over the whole worker pool (`NEBULA_THREADS`);
//! - a one-chip [`ShardedSpikingNetwork`] run pipelined with two
//!   claimants, whose stage bodies evaluate on a single worker.
//!
//! Outputs and waves must match bit for bit, read energy too on the
//! scalar path, and within 1e-9 relative on the Auto path.

use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_core::multichip::PipelineConfig;
use nebula_core::ShardedSpikingNetwork;
use nebula_crossbar::KernelPath;
use nebula_device::{FaultClass, FaultModel};
use nebula_nn::layer::Layer;
use nebula_nn::snn::{IfPopulation, InputEncoding, ResetMode, SnnStage, SpikingNetwork};
use nebula_tensor::Tensor;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Accumulated per-row-sum energy tolerance (1e-12 relative per dot).
const ENERGY_RTOL: f64 = 1e-9;

const PATHS: [KernelPath; 2] = [KernelPath::Scalar, KernelPath::Auto];

/// `conv(c_in → c_out, k, stride, pad) → IF → flatten → dense → IF` on
/// `side × side` frames.
fn conv_net([c_in, c_out, k, stride, pad, side]: [usize; 6], seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let out = (side + 2 * pad - k) / stride + 1;
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(c_in, c_out, k, stride, pad, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.5, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(c_out * out * out, 3, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.5, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
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

/// Runs the three legs on `master` under `path` and asserts the
/// contract.
fn assert_legs(label: &str, master: &AnalogSpikingNetwork, path: KernelPath, x: &Tensor, t: usize) {
    let label = format!("{label} {path:?}");
    let mut seq = master.clone();
    seq.set_kernel_path(path);
    let (mut fast, fresh) = (seq.clone(), seq.clone());
    let want = seq
        .run_sequential(x, t, &mut ChaCha8Rng::seed_from_u64(3))
        .unwrap();
    let e_want = seq.read_energy().0;

    let got = fast.run(x, t, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
    assert_bits(&format!("{label} run"), &want, &got);
    assert_eq!(seq.waves(), fast.waves(), "{label} run: waves");
    assert_energy(&format!("{label} run"), path, e_want, fast.read_energy().0);
    // A second call reuses the warm event scratch.
    let again = fast.run(x, t, &mut ChaCha8Rng::seed_from_u64(3)).unwrap();
    assert_bits(&format!("{label} warm run"), &want, &again);

    let mut piped = ShardedSpikingNetwork::layer_pipelined(fresh, 1).unwrap();
    let cfg = PipelineConfig {
        workers: 2,
        ..PipelineConfig::default()
    };
    let got = piped
        .run_pipelined(x, t, &mut ChaCha8Rng::seed_from_u64(3), &cfg)
        .unwrap();
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
    /// activity swept from silent to dense, both encodings.
    #[test]
    fn conv_taps_match_sequential_for_every_geometry(
        k in prop::sample::select(vec![1usize, 2, 3, 5]),
        stride in 1usize..4,
        pad in 0usize..3,
        extra in 0usize..5,
        c_in in 1usize..4,
        c_out in 1usize..5,
        samples in 1usize..3,
        timesteps in 1usize..5,
        constant in 0u8..2,
        density_step in 0usize..5,
        seed in 0u64..1_000,
    ) {
        let side = k.saturating_sub(2 * pad).max(1) + extra;
        let mut net = conv_net([c_in, c_out, k, stride, pad, side], seed);
        if constant == 1 {
            net.set_encoding(InputEncoding::Constant);
        }
        let x = input(&[samples, c_in, side, side], density_step as f64 / 4.0, seed ^ 0x5EED);
        let label = format!("k{k} s{stride} p{pad} side{side} c{c_in}->{c_out}");
        for path in PATHS {
            assert_legs(&label, &net, path, &x, timesteps);
        }
    }

    /// Receptive fields over one AC (rf = c_in·k² > 128) and output
    /// channels over one column tile (> 128): rows land on several ACs
    /// and every row on several tiles.
    #[test]
    fn multi_ac_and_multi_tile_convs_match_sequential(
        shape in prop::sample::select(vec![(6usize, 5usize, 1usize, 2usize), (15, 3, 2, 1), (15, 3, 1, 0)]),
        wide in 0u8..2,
        density_step in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let (c_in, k, stride, pad) = shape;
        let c_out = if wide == 1 { 130 } else { 4 };
        let side = 5;
        let net = conv_net([c_in, c_out, k, stride, pad, side], seed);
        let x = input(&[2, c_in, side, side], density_step as f64 / 4.0, seed ^ 0xAC);
        let label = format!("rf{} cols{c_out} s{stride} p{pad}", c_in * k * k);
        for path in PATHS {
            assert_legs(&label, &net, path, &x, 3);
        }
    }

    /// Faults: a TMR-degradation map (per-cell factors spill the packed
    /// palette to the f64 lane layout) and an optional killed AC.
    #[test]
    fn faulted_and_killed_arrays_match_sequential(
        rate in 0.05f64..0.3,
        killed_ac in 0usize..2,
        kill in 0u8..2,
        density_step in 1usize..5,
        seed in 0u64..1_000,
    ) {
        let mut net = conv_net([15, 6, 3, 1, 1, 5], seed);
        let model = FaultModel::single(FaultClass::TmrDegradation, rate);
        net.inject_faults(&model, &mut ChaCha8Rng::seed_from_u64(seed ^ 0xFA17));
        if kill == 1 {
            net.kill_ac(0, killed_ac);
        }
        let x = input(&[2, 15, 5, 5], density_step as f64 / 4.0, seed ^ 0xF00);
        for path in PATHS {
            assert_legs("tmr conv", &net, path, &x, 3);
        }
    }
}

/// A dense layer over 2048 rows spans two receptive-field segments (two
/// rows of super-tiles whose partial outputs add in f32), here with
/// output columns over one tile as well.
#[test]
fn multi_segment_dense_matches_sequential() {
    let mut r = ChaCha8Rng::seed_from_u64(21);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(2100, 130, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.5, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(130, 3, &mut r)),
        ],
        InputEncoding::Poisson,
    );
    let net = compile_snn_default(&snn).unwrap();
    for (i, density) in [0.0, 0.05, 0.5].into_iter().enumerate() {
        let x = input(&[2, 2100], density, 40 + i as u64);
        for path in PATHS {
            assert_legs(&format!("dense 2100 density {density}"), &net, path, &x, 3);
        }
    }
}
