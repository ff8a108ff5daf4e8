//! Property-based equivalence of the event-driven SNN engine against
//! the sequential reference.
//!
//! The event-driven hot path ([`AnalogSpikingNetwork::run`]) skips
//! silent rows, silent spike items, zero-current AC accruals, silent
//! layers and fully-silent timesteps. These properties pin down the
//! contract that makes all that skipping legal: on arbitrary small
//! spiking networks — dense and convolutional, Poisson and Constant
//! encoded, with zero-activity timesteps and fully-silent samples in
//! range — outputs are **bitwise identical** to
//! [`AnalogSpikingNetwork::run_sequential`] on every [`KernelPath`],
//! wave counts match exactly, and read energy is bitwise identical on
//! the scalar path (reference formulation) and within 1e-9 relative on
//! the per-row-sum paths. The same holds after hard faults, retention
//! aging and AC kill switches mutate the arrays, because faults perturb
//! conductances, never the active-set bookkeeping.

use nebula_core::analog_snn::{compile_snn_default, AnalogSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_device::units::Seconds;
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

/// A dense two-stage spiking net: `input → IF → hidden → IF`.
fn dense_snn(input: usize, hidden: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::dense(input, hidden, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::dense(hidden, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.7, ResetMode::Zero)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// A conv + dense spiking net on `side×side` single-channel frames,
/// exercising the patch-gather (im2col CSR) event path.
fn conv_snn(side: usize, out: usize, seed: u64) -> AnalogSpikingNetwork {
    let mut r = ChaCha8Rng::seed_from_u64(seed);
    let snn = SpikingNetwork::new(
        vec![
            SnnStage::Synaptic(Layer::conv2d(1, 2, 3, 1, 1, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
            SnnStage::Synaptic(Layer::flatten()),
            SnnStage::Synaptic(Layer::dense(2 * side * side, out, &mut r)),
            SnnStage::IntegrateFire(IfPopulation::new(0.6, ResetMode::Subtract)),
        ],
        InputEncoding::Poisson,
    );
    compile_snn_default(&snn).unwrap()
}

/// Runs `master` both ways with identically seeded RNGs and asserts the
/// full equivalence contract for `path`.
fn assert_equivalent(
    master: &AnalogSpikingNetwork,
    path: KernelPath,
    x: &Tensor,
    timesteps: usize,
    seed: u64,
) {
    let mut seq = master.clone();
    let mut fast = master.clone();
    fast.set_kernel_path(path);
    let mut r_seq = ChaCha8Rng::seed_from_u64(seed);
    let mut r_fast = ChaCha8Rng::seed_from_u64(seed);
    let ys = seq.run_sequential(x, timesteps, &mut r_seq).unwrap();
    let yf = fast.run(x, timesteps, &mut r_fast).unwrap();
    assert_eq!(ys.shape(), yf.shape());
    for (i, (a, b)) in ys.data().iter().zip(yf.data()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{path:?} element {i}: {a} vs {b}");
    }
    assert_eq!(seq.waves(), fast.waves(), "{path:?} wave counts");
    let (e_seq, e_fast) = (seq.read_energy().0, fast.read_energy().0);
    if path == KernelPath::Scalar {
        // Scalar kernels accrue the reference energy formulation: even
        // the joule counter must agree bit for bit.
        assert_eq!(e_seq.to_bits(), e_fast.to_bits());
    } else if e_seq == 0.0 {
        assert_eq!(e_fast, 0.0, "{path:?} energy from silent run");
    } else {
        assert!(
            ((e_fast - e_seq) / e_seq).abs() <= ENERGY_RTOL,
            "{path:?} energy {e_fast} vs {e_seq}"
        );
    }
}

/// Applies an activity mask: elements whose keep-draw clears the
/// density survive, the rest go exactly to `0.0`. `density_step` runs
/// 0..=4 so fully-silent (0) and fully-dense (4) samples are in range.
fn mask(raw: Vec<(f32, f64)>, density_step: usize) -> Vec<f32> {
    let density = density_step as f64 / 4.0;
    raw.into_iter()
        .map(|(v, keep)| if keep < density { v } else { 0.0 })
        .collect()
}

proptest! {
    /// Dense nets: every kernel path, both encodings, activity swept
    /// from fully silent to fully dense.
    #[test]
    fn dense_event_run_matches_sequential_bitwise(
        input in 2usize..10,
        hidden in 2usize..12,
        out in 2usize..5,
        samples in 1usize..4,
        timesteps in 1usize..10,
        constant in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 9 * 3),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, out, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let flat = mask(raw, density_step);
        let x = Tensor::from_vec(flat[..samples * input].to_vec(), &[samples, input]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Fully-silent samples are an exact corner: zero inputs under
    /// Constant encoding mean *every* timestep skips all crossbar work,
    /// yet outputs (bias-driven IF dynamics included) and the zero
    /// energy counter must match the reference bitwise.
    #[test]
    fn fully_silent_samples_match_sequential_bitwise(
        input in 2usize..10,
        hidden in 2usize..12,
        timesteps in 1usize..12,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, 3, net_seed);
        master.set_encoding(InputEncoding::Constant);
        let x = Tensor::zeros(&[2, input]);
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Conv nets: the im2col patch-gather event path against the
    /// sequential reference, silent planes included.
    #[test]
    fn conv_event_run_matches_sequential_bitwise(
        timesteps in 1usize..8,
        constant in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 2 * 6 * 6),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = conv_snn(6, 3, net_seed);
        if constant == 1 {
            master.set_encoding(InputEncoding::Constant);
        }
        let x = Tensor::from_vec(mask(raw, density_step), &[2, 1, 6, 6]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }

    /// Equivalence survives every conductance-mutating reliability
    /// event: sampled hard faults, retention aging and AC kill switches
    /// applied once to the shared master before both engines run.
    #[test]
    fn equivalence_holds_under_faults_aging_and_kill_switches(
        input in 2usize..10,
        hidden in 2usize..12,
        timesteps in 1usize..8,
        fault_kind in 0usize..5,
        fault_rate in 0.0f64..0.2,
        age_s in 0.0f64..1e7,
        killed_ac in 0usize..16,
        kill in 0u8..2,
        raw in proptest::collection::vec((0.0f32..1.0, 0.0f64..1.0), 9 * 3),
        density_step in 0usize..5,
        net_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mut master = dense_snn(input, hidden, 3, net_seed);
        let model = FaultModel::single(FaultClass::ALL[fault_kind], fault_rate);
        let mut fault_rng = ChaCha8Rng::seed_from_u64(net_seed ^ 0xFA17);
        master.inject_faults(&model, &mut fault_rng);
        master.advance_age(Seconds(age_s));
        if kill == 1 {
            // Power-gate one AC of one super-tile: its partial currents
            // read as zero on both engines.
            let tiles = master.supertile_count();
            master.kill_ac(net_seed as usize % tiles, killed_ac);
        }
        let flat = mask(raw, density_step);
        let x = Tensor::from_vec(flat[..2 * input].to_vec(), &[2, input]).unwrap();
        for path in PATHS {
            assert_equivalent(&master, path, &x, timesteps, run_seed);
        }
    }
}
