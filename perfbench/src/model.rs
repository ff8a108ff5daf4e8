//! The fixed model, the seeded inputs and the correctness gate.
//!
//! The model never depends on the workload seed: it is
//! `setup::trained(Vgg10, 500, 20)`, quantized with the default
//! `QuantConfig` and converted with the default `ConversionConfig`,
//! both calibrated on the first 64 training images. The seed only
//! generates inputs.

use std::time::Instant;

use nebula_bench::setup::{trained, Trained, Workload};
use nebula_core::analog::compile_ann;
use nebula_core::analog_snn::compile_snn_default;
use nebula_core::{AnalogNetwork, AnalogSpikingNetwork};
use nebula_crossbar::KernelPath;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_nn::{Dataset, InputEncoding, Network, SpikingNetwork};
use nebula_tensor::Tensor;
use nebula_workloads::events::{generate_events, EventStreamConfig};
use nebula_workloads::synthetic::{generate, SyntheticConfig};

use crate::stats::median;

/// Images used to calibrate quantization and conversion.
const CALIBRATION: usize = 64;

/// Relative tolerance between the per-row-sum read energy of the
/// vectorized layouts (which `KernelPath::Auto` dispatches to) and the
/// per-cell reference: each dot agrees to 1e-12 relative, so the sum
/// over a whole run stays far inside this.
pub const ENERGY_RTOL: f64 = 1e-9;

/// The trained float model and when it became available.
pub struct Training {
    pub model: Trained,
    pub train_s: f64,
    /// Process start to trained model.
    pub trained_s: f64,
}

/// `setup::trained(Vgg10, 500, 20)`, timed.
pub fn train(started: Instant) -> Training {
    let t = Instant::now();
    let model = trained(Workload::Vgg10, 500, 20);
    Training {
        model,
        train_s: t.elapsed().as_secs_f64(),
        trained_s: started.elapsed().as_secs_f64(),
    }
}

/// The quantized ANN.
pub fn quantize(t: &Trained) -> Network {
    quantize_network(&t.net, &t.train.take(CALIBRATION), &QuantConfig::default())
        .expect("quantizing the trained VGG/10")
}

/// The converted SNN of the quantized ANN.
pub fn convert(t: &Trained, q: &Network) -> SpikingNetwork {
    ann_to_snn(q, &t.train.take(CALIBRATION), &ConversionConfig::default())
        .expect("converting the quantized VGG/10")
}

/// The circuit-level ANN on the `Auto` kernel path.
pub fn ann_chip(q: &Network) -> AnalogNetwork {
    let mut chip = compile_ann(q).expect("compiling the ANN");
    chip.set_kernel_path(KernelPath::Auto);
    chip
}

/// The circuit-level SNN on the `Auto` kernel path.
pub fn snn_chip(snn: &SpikingNetwork, encoding: InputEncoding) -> AnalogSpikingNetwork {
    let mut chip = compile_snn_default(snn).expect("compiling the SNN");
    chip.set_kernel_path(KernelPath::Auto);
    chip.set_encoding(encoding);
    chip
}

/// Median set-up times over repeated set-ups (training runs once).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Process start to trained model.
    pub trained_s: f64,
    pub train_s: f64,
    pub quantize_s: f64,
    pub convert_s: f64,
    pub compile_s: f64,
    pub first_call_ms: f64,
    /// Process start to steady state: `trained_s` plus the median of
    /// quantize + convert + compile + cold first call.
    pub setup_s: f64,
    pub reps: usize,
}

/// What repeated set-up leaves behind.
pub struct Built<T, R> {
    /// The last set-up's executor, warmed by its first call.
    pub chip: T,
    pub quantized: Network,
    pub snn: SpikingNetwork,
    /// Every set-up's first call, for the correctness gate.
    pub first_calls: Vec<R>,
    pub times: SetupTimes,
}

/// Runs quantize → convert → `compile` → cold `first_call` `reps`
/// times after training and reports the medians. Training is done once
/// per process: at ≈15 s it is most of a run's budget.
pub fn build<T, R>(
    training: &Training,
    reps: usize,
    mut compile: impl FnMut(&Network, &SpikingNetwork) -> T,
    mut first_call: impl FnMut(&mut T) -> R,
) -> Built<T, R> {
    let t = &training.model;
    let (mut qs, mut cs, mut ks, mut fs, mut totals) = (vec![], vec![], vec![], vec![], vec![]);
    let mut first_calls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let quantized = quantize(t);
        let t1 = Instant::now();
        let snn = convert(t, &quantized);
        let t2 = Instant::now();
        let mut chip = compile(&quantized, &snn);
        let t3 = Instant::now();
        first_calls.push(first_call(&mut chip));
        let t4 = Instant::now();
        qs.push((t1 - t0).as_secs_f64());
        cs.push((t2 - t1).as_secs_f64());
        ks.push((t3 - t2).as_secs_f64());
        fs.push((t4 - t3).as_secs_f64() * 1e3);
        totals.push((t4 - t0).as_secs_f64());
        last = Some((chip, quantized, snn));
    }
    let (chip, quantized, snn) = last.expect("at least one set-up");
    Built {
        chip,
        quantized,
        snn,
        first_calls,
        times: SetupTimes {
            trained_s: training.trained_s,
            train_s: training.train_s,
            quantize_s: median(&qs),
            convert_s: median(&cs),
            compile_s: median(&ks),
            first_call_ms: median(&fs),
            setup_s: training.trained_s + median(&totals),
            reps: totals.len(),
        },
    }
}

/// SplitMix64 finalizer: derives independent seeds from the workload
/// seed so no generated input set coincides with the training data.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` fresh 16×16 texture images (10 classes) from the seed.
pub fn textures(seed: u64, tag: u64, n: usize) -> Dataset {
    generate(&SyntheticConfig::textures(16, 10, n).with_seed(mix(seed, tag)))
        .expect("texture generation")
}

/// `n` 95%-sparse DVS event frames from the seed.
pub fn dvs_frames(seed: u64, tag: u64, n: usize) -> Dataset {
    generate_events(&EventStreamConfig::dvs(16, 10, n, 0.95).with_seed(mix(seed, tag)))
        .expect("event-frame generation")
}

/// Splits a dataset into consecutive batches of `batch` samples.
pub fn batches(data: &Dataset, batch: usize) -> Vec<Dataset> {
    (0..data.len() / batch)
        .map(|b| data.gather(&(b * batch..(b + 1) * batch).collect::<Vec<_>>()))
        .collect()
}

/// What one executor call produced: its output and the waves and read
/// energy it added to the executor's counters.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub out: Tensor,
    pub waves: u64,
    pub energy_j: f64,
}

/// Runs `call` and attributes the counter deltas to it.
pub fn observe<T>(
    chip: &mut T,
    counters: impl Fn(&T) -> (u64, f64),
    call: impl FnOnce(&mut T) -> Tensor,
) -> Outcome {
    let (w0, e0) = counters(chip);
    let out = call(chip);
    let (w1, e1) = counters(chip);
    Outcome {
        out,
        waves: w1 - w0,
        energy_j: e1 - e0,
    }
}

pub fn snn_counters(c: &AnalogSpikingNetwork) -> (u64, f64) {
    (c.waves(), c.read_energy().0)
}

pub fn ann_counters(c: &AnalogNetwork) -> (u64, f64) {
    (c.waves(), c.read_energy().0)
}

pub fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn energy_close(got: f64, want: f64) -> bool {
    (got - want).abs() <= ENERGY_RTOL * want.abs()
}

/// The gate for a timed call on the `Auto` path against the sequential
/// reference: outputs and waves bit for bit, read energy to
/// [`ENERGY_RTOL`].
pub fn matches(got: &Outcome, want: &Outcome) -> bool {
    bits_equal(&got.out, &want.out)
        && got.waves == want.waves
        && energy_close(got.energy_j, want.energy_j)
}

/// The gate for a call pinned to `KernelPath::Scalar`: outputs, waves
/// and read energy all bit for bit.
pub fn matches_exactly(got: &Outcome, want: &Outcome) -> bool {
    bits_equal(&got.out, &want.out)
        && got.waves == want.waves
        && got.energy_j.to_bits() == want.energy_j.to_bits()
}

/// Top-1 hits of accumulated potentials or logits against `labels`.
pub fn hits(out: &Tensor, labels: &[usize]) -> usize {
    out.argmax_rows()
        .map(|p| p.iter().zip(labels).filter(|(p, l)| p == l).count())
        .unwrap_or(0)
}
