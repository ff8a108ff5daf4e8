//! The four workloads, timed with tracing off.
//!
//! Each one trains the fixed model once, sets up its executor several
//! times (reporting the median), computes the sequential reference of
//! every input set outside the timed window, and then calls the
//! executor round-robin over the input sets for the requested number of
//! seconds, checking every call against its set's reference.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use nebula_core::multichip::PipelineConfig;
use nebula_core::{
    InferenceRequest, ModelSpec, RequestKind, ResponseHandle, ServeConfig, Server,
    ShardedSpikingNetwork,
};
use nebula_crossbar::KernelPath;
use nebula_nn::{Dataset, InputEncoding};
use nebula_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::model::{self, bits_equal, matches, matches_exactly, observe, Outcome, SetupTimes};
use crate::stats::{
    cpu_seconds, host_probe_ms, host_slowdown, median, quantile, rss_mb, steal_seconds,
    steal_share, undisturbed, Counts, Report,
};

/// Timesteps of the VGG SNN workloads and the served SNN model.
pub const SNN_T: usize = 150;
/// Timesteps of the event-frame workload.
pub const EVENTS_T: usize = 300;
/// Images per SNN call.
pub const SNN_BATCH: usize = 8;
/// Images per ANN call.
pub const ANN_BATCH: usize = 64;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Chips of the layer-pipelined cluster.
pub const CHIPS: usize = 2;

/// Per-call latency limits of the batch workloads (goodput counts the
/// calls that finish within them).
const SNN_CALL_LIMIT_MS: f64 = 1500.0;
const ANN_CALL_LIMIT_MS: f64 = 400.0;
const EVENTS_CALL_LIMIT_MS: f64 = 2000.0;

/// Offered load of `serve_mixed_open`, in requests per second over both
/// kinds: a quarter of the single-replica capacity (≈39 requests/s
/// completed under saturation at 1 worker on a 2-vCPU host). At half
/// the capacity the SNN replica is half busy, so a host slowdown feeds
/// back through the queue: the median SNN latency spread 51% over ten
/// seeds there, against 7% at a quarter.
pub const SERVE_RATE: f64 = 10.0;
/// Per-kind latency limits of served requests, from the scheduled send.
pub const ANN_LIMIT_MS: f64 = 50.0;
pub const SNN_LIMIT_MS: f64 = 400.0;
/// Distinct requests per kind; the schedule cycles through them so each
/// needs only one sequential reference.
pub const SERVE_PAYLOADS: usize = 16;

/// Everything a workload shares with the runner.
pub struct Ctx {
    pub started: Instant,
    pub seed: u64,
    pub seconds: f64,
    pub report: Report,
    pub counts: Counts,
}

/// One timed call: wall and process CPU time, the share of host CPU
/// time stolen while it ran, and whether it passed the gate within its
/// latency limit.
struct Call {
    ms: f64,
    cpu_ms: f64,
    steal: f64,
    good: bool,
}

/// One timed window over round-robin input sets.
struct Window {
    calls: Vec<Call>,
    /// [`host_probe_ms`] after every call.
    probes_ms: Vec<f64>,
    peak_rss_mb: f64,
    hits: usize,
    steal_share: f64,
}

/// Calls `call(set)` round-robin over `refs.len()` input sets until
/// `seconds` have passed (and at least three calls ran), checking each
/// outcome against its set's reference.
fn timed_window(
    seconds: f64,
    refs: &[Outcome],
    labels: &[Vec<usize>],
    limit_ms: f64,
    counts: &mut Counts,
    mut call: impl FnMut(usize) -> Outcome,
) -> Window {
    let (mut calls, mut probes_ms) = (Vec::new(), Vec::new());
    let (mut hits, mut peak_rss_mb) = (0, 0.0f64);
    let steal0 = steal_seconds();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || calls.len() < 3 {
        let set = calls.len() % refs.len();
        let (s, cpu) = (steal_seconds(), cpu_seconds());
        let t = Instant::now();
        let got = call(set);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = (cpu_seconds() - cpu) * 1e3;
        let ok = matches(&got, &refs[set]);
        counts.record(ok);
        calls.push(Call {
            ms,
            cpu_ms,
            steal: steal_share(s, ms / 1e3),
            good: ok && ms <= limit_ms,
        });
        hits += model::hits(&got.out, &labels[set]);
        peak_rss_mb = peak_rss_mb.max(rss_mb());
        probes_ms.push(host_probe_ms());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    Window {
        calls,
        probes_ms,
        peak_rss_mb,
        hits,
        steal_share: steal_share(steal0, wall_s),
    }
}

fn report_setup(r: &mut Report, s: &SetupTimes) {
    r.metric("setup_s", s.setup_s, "s", s.reps);
    r.detail("setup.trained_s", s.trained_s, "s", 1);
    r.detail("setup.first_call_ms", s.first_call_ms, "ms", s.reps);
}

/// The end-to-end figures of a batch workload. Timing figures are
/// per-call medians over the calls the host did not disturb (see
/// [`undisturbed`]), scaled to the reference host's speed (see
/// [`host_slowdown`]); the detail block keeps the raw figures. Energy
/// and memory use every call.
fn report_batch(ctx: &mut Ctx, s: &SetupTimes, w: &Window, batch: usize, refs: &[Outcome]) {
    let images = w.calls.len() * batch;
    let used = undisturbed(&w.calls, |c| c.steal);
    let ms: Vec<f64> = used.iter().map(|c| c.ms).collect();
    let cpu: Vec<f64> = used.iter().map(|c| c.cpu_ms).collect();
    let good_share = used.iter().filter(|c| c.good).count() as f64 / used.len() as f64;
    let slow = host_slowdown(&w.probes_ms);
    let p50 = median(&ms);
    let calls_per_s = 1e3 / p50;
    let cpu_ms = median(&cpu) / batch as f64;
    let r = &mut ctx.report;
    report_setup(r, s);
    r.metric(
        "infer_per_s",
        calls_per_s * batch as f64 * slow,
        "1/s",
        used.len(),
    );
    r.metric("cpu_ms_per_infer", cpu_ms / slow, "ms", used.len());
    r.metric("p50_ms", p50 / slow, "ms", ms.len());
    r.metric(
        "goodput_rps",
        good_share * calls_per_s * slow,
        "1/s",
        used.len(),
    );
    let energy = refs.iter().map(|o| o.energy_j).sum::<f64>() / (refs.len() * batch) as f64;
    r.metric(
        "energy_nj_per_infer",
        energy * 1e9,
        "nJ",
        refs.len() * batch,
    );
    r.metric("peak_rss_mb", w.peak_rss_mb, "MiB", w.calls.len());
    r.detail("host_slowdown", slow, "ratio", w.probes_ms.len());
    r.detail(
        "infer_per_s_raw",
        calls_per_s * batch as f64,
        "1/s",
        used.len(),
    );
    r.detail("cpu_ms_per_infer_raw", cpu_ms, "ms", used.len());
    r.detail("p50_ms_raw", p50, "ms", ms.len());
    r.detail("p90_ms_raw", quantile(&ms, 0.9), "ms", ms.len());
    r.detail("accuracy", w.hits as f64 / images as f64, "ratio", images);
    r.detail("calls", w.calls.len() as f64, "count", 1);
    r.detail("calls_timed", used.len() as f64, "count", 1);
    r.detail("steal_share", w.steal_share, "ratio", 1);
}

/// References and untimed checks shared by the batch workloads:
/// `reference(set)` runs the sequential oracle on every input set, and
/// `scalar(0)` the fast path pinned to `KernelPath::Scalar` on the first
/// one (the path whose read energy must match the oracle bit for bit),
/// each on a freshly programmed executor. Every set-up's first call is
/// checked against the first set's reference.
fn references(
    counts: &mut Counts,
    sets: usize,
    first_calls: &[Outcome],
    mut reference: impl FnMut(usize) -> Outcome,
    mut scalar: impl FnMut(usize) -> Outcome,
) -> (Vec<Outcome>, f64) {
    let t = Instant::now();
    let refs: Vec<Outcome> = (0..sets).map(&mut reference).collect();
    counts.record(matches_exactly(&scalar(0), &refs[0]));
    for got in first_calls {
        counts.record(matches(got, &refs[0]));
    }
    (refs, t.elapsed().as_secs_f64())
}

fn labels_of(sets: &[Dataset]) -> Vec<Vec<usize>> {
    sets.iter().map(|d| d.labels.clone()).collect()
}

/// `snn_vgg_poisson`: Poisson-encoded VGG/10 SNN, batches of 8, T=150.
pub fn snn_vgg_poisson(ctx: &mut Ctx) {
    const SETS: usize = 2;
    let training = model::train(ctx.started);
    let sets = model::batches(&model::textures(ctx.seed, 1, SNN_BATCH * SETS), SNN_BATCH);
    let enc: Vec<u64> = (0..SETS as u64)
        .map(|i| model::mix(ctx.seed, 100 + i))
        .collect();
    let run = |chip: &mut nebula_core::AnalogSpikingNetwork, set: usize, sequential: bool| {
        observe(chip, model::snn_counters, |c| {
            let mut rng = ChaCha8Rng::seed_from_u64(enc[set]);
            let x = &sets[set].inputs;
            if sequential {
                c.run_sequential(x, SNN_T, &mut rng)
            } else {
                c.run(x, SNN_T, &mut rng)
            }
            .expect("SNN run")
        })
    };
    let built = model::build(
        &training,
        SETUP_REPS,
        |_, snn| model::snn_chip(snn, InputEncoding::Poisson),
        |chip| run(chip, 0, false),
    );
    let pristine = model::snn_chip(&built.snn, InputEncoding::Poisson);
    let (refs, reference_s) = references(
        &mut ctx.counts,
        SETS,
        &built.first_calls,
        |set| run(&mut pristine.clone(), set, true),
        |set| {
            let mut chip = pristine.clone();
            chip.set_kernel_path(KernelPath::Scalar);
            run(&mut chip, set, false)
        },
    );
    let mut chip = built.chip;
    let w = timed_window(
        ctx.seconds,
        &refs,
        &labels_of(&sets),
        SNN_CALL_LIMIT_MS,
        &mut ctx.counts,
        |set| run(&mut chip, set, false),
    );
    report_batch(ctx, &built.times, &w, SNN_BATCH, &refs);
    ctx.report.detail("reference_s", reference_s, "s", SETS);
}

/// `ann_vgg_batch`: the quantized VGG/10 ANN, batches of 64.
pub fn ann_vgg_batch(ctx: &mut Ctx) {
    const SETS: usize = 4;
    let training = model::train(ctx.started);
    let sets = model::batches(&model::textures(ctx.seed, 2, ANN_BATCH * SETS), ANN_BATCH);
    let run = |chip: &mut nebula_core::AnalogNetwork, set: usize, sequential: bool| {
        observe(chip, model::ann_counters, |c| {
            let x = &sets[set].inputs;
            if sequential {
                c.forward_sequential(x)
            } else {
                c.forward(x)
            }
            .expect("ANN forward")
        })
    };
    let built = model::build(
        &training,
        SETUP_REPS,
        |q, _| model::ann_chip(q),
        |chip| run(chip, 0, false),
    );
    let pristine = model::ann_chip(&built.quantized);
    let (refs, reference_s) = references(
        &mut ctx.counts,
        SETS,
        &built.first_calls,
        |set| run(&mut pristine.clone(), set, true),
        |set| {
            let mut chip = pristine.clone();
            chip.set_kernel_path(KernelPath::Scalar);
            run(&mut chip, set, false)
        },
    );
    let mut chip = built.chip;
    let w = timed_window(
        ctx.seconds,
        &refs,
        &labels_of(&sets),
        ANN_CALL_LIMIT_MS,
        &mut ctx.counts,
        |set| run(&mut chip, set, false),
    );
    report_batch(ctx, &built.times, &w, ANN_BATCH, &refs);
    ctx.report.detail("reference_s", reference_s, "s", SETS);
}

/// `snn_events_2chip`: 95%-sparse DVS frames, Constant encoding,
/// batches of 8, T=300, layer-pipelined over two chips.
pub fn snn_events_2chip(ctx: &mut Ctx) {
    const SETS: usize = 1;
    let training = model::train(ctx.started);
    let sets = model::batches(&model::dvs_frames(ctx.seed, 3, SNN_BATCH * SETS), SNN_BATCH);
    let cfg = PipelineConfig::default();
    // Constant encoding draws nothing; the RNG only satisfies the API.
    let pipelined = |chip: &mut ShardedSpikingNetwork, set: usize| {
        observe(
            chip,
            |c| (c.waves(), c.read_energy().0),
            |c| {
                c.run_pipelined(
                    &sets[set].inputs,
                    EVENTS_T,
                    &mut ChaCha8Rng::seed_from_u64(0),
                    &cfg,
                )
                .expect("pipelined run")
            },
        )
    };
    let shard = |chip| ShardedSpikingNetwork::layer_pipelined(chip, CHIPS).expect("sharding");
    let built = model::build(
        &training,
        SETUP_REPS,
        |_, snn| shard(model::snn_chip(snn, InputEncoding::Constant)),
        |chip| pipelined(chip, 0),
    );
    let pristine = model::snn_chip(&built.snn, InputEncoding::Constant);
    let (refs, reference_s) = references(
        &mut ctx.counts,
        SETS,
        &built.first_calls,
        |set| {
            observe(&mut pristine.clone(), model::snn_counters, |c| {
                c.run_sequential(
                    &sets[set].inputs,
                    EVENTS_T,
                    &mut ChaCha8Rng::seed_from_u64(0),
                )
                .expect("sequential run")
            })
        },
        |set| {
            let mut single = pristine.clone();
            single.set_kernel_path(KernelPath::Scalar);
            observe(&mut single, model::snn_counters, |c| {
                c.run(
                    &sets[set].inputs,
                    EVENTS_T,
                    &mut ChaCha8Rng::seed_from_u64(0),
                )
                .expect("scalar run")
            })
        },
    );
    // The sharded executor documents scalar-path energy bit-identical
    // to its donor, but it sums per-chip subtotals, which re-associates
    // the float sum: on some inputs the total differs in the last bits.
    // Reported (in ULPs) rather than gated, so the defect stays visible
    // without failing the workload's operations.
    let ulps = {
        let mut single = pristine.clone();
        single.set_kernel_path(KernelPath::Scalar);
        let got = pipelined(&mut shard(single), 0);
        ctx.counts
            .record(bits_equal(&got.out, &refs[0].out) && got.waves == refs[0].waves);
        got.energy_j.to_bits().abs_diff(refs[0].energy_j.to_bits())
    };
    let mut chip = built.chip;
    let w = timed_window(
        ctx.seconds,
        &refs,
        &labels_of(&sets),
        EVENTS_CALL_LIMIT_MS,
        &mut ctx.counts,
        |set| pipelined(&mut chip, set),
    );
    report_batch(ctx, &built.times, &w, SNN_BATCH, &refs);
    ctx.report.detail("reference_s", reference_s, "s", SETS);
    ctx.report
        .detail("sharded_scalar_energy_ulps", ulps as f64, "count", 1);
}

/// One served request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub snn: bool,
    /// Completion minus scheduled send.
    pub latency_ms: f64,
    pub queued_ms: f64,
    pub service_ms: f64,
    pub ok: bool,
    pub hit: bool,
    /// Share of host CPU time stolen between send and answer.
    pub steal: f64,
}

/// The distinct requests of a serving session and their references.
pub struct Payloads {
    pub ann: Vec<Tensor>,
    pub snn: Vec<Tensor>,
    pub snn_seeds: Vec<u64>,
    pub ann_labels: Vec<usize>,
    pub snn_labels: Vec<usize>,
    pub ann_refs: Vec<Outcome>,
    pub snn_refs: Vec<Outcome>,
}

impl Payloads {
    /// Single-image requests from the seed, with their sequential
    /// references on freshly programmed executors.
    pub fn new(seed: u64, quantized: &nebula_nn::Network, snn: &nebula_nn::SpikingNetwork) -> Self {
        let images = model::textures(seed, 4, 2 * SERVE_PAYLOADS);
        let one = |i: usize| images.gather(&[i]);
        let ann: Vec<Dataset> = (0..SERVE_PAYLOADS).map(one).collect();
        let snn_in: Vec<Dataset> = (SERVE_PAYLOADS..2 * SERVE_PAYLOADS).map(one).collect();
        let snn_seeds: Vec<u64> = (0..SERVE_PAYLOADS as u64)
            .map(|i| model::mix(seed, 200 + i))
            .collect();
        let ann_chip = model::ann_chip(quantized);
        let snn_chip = model::snn_chip(snn, InputEncoding::Poisson);
        let ann_refs = ann
            .iter()
            .map(|d| {
                observe(&mut ann_chip.clone(), model::ann_counters, |c| {
                    c.forward_sequential(&d.inputs).expect("ANN reference")
                })
            })
            .collect();
        let snn_refs = snn_in
            .iter()
            .zip(&snn_seeds)
            .map(|(d, &s)| {
                observe(&mut snn_chip.clone(), model::snn_counters, |c| {
                    c.run_sequential(&d.inputs, SNN_T, &mut StdRng::seed_from_u64(s))
                        .expect("SNN reference")
                })
            })
            .collect();
        Self {
            ann_labels: ann.iter().map(|d| d.labels[0]).collect(),
            snn_labels: snn_in.iter().map(|d| d.labels[0]).collect(),
            ann: ann.into_iter().map(|d| d.inputs).collect(),
            snn: snn_in.into_iter().map(|d| d.inputs).collect(),
            snn_seeds,
            ann_refs,
            snn_refs,
        }
    }

    /// Request `i` of a session: even requests are ANN, odd ones SNN.
    pub fn request(&self, i: usize) -> (InferenceRequest, bool, usize) {
        let (snn, p) = (i % 2 == 1, (i / 2) % SERVE_PAYLOADS);
        let req = if snn {
            InferenceRequest {
                model: "snn".into(),
                tenant: i as u64,
                input: self.snn[p].clone(),
                kind: RequestKind::Snn {
                    timesteps: SNN_T,
                    seed: self.snn_seeds[p],
                },
            }
        } else {
            InferenceRequest {
                model: "ann".into(),
                tenant: i as u64,
                input: self.ann[p].clone(),
                kind: RequestKind::Ann,
            }
        };
        (req, snn, p)
    }

    fn reference(&self, snn: bool, p: usize) -> (&Outcome, usize) {
        if snn {
            (&self.snn_refs[p], self.snn_labels[p])
        } else {
            (&self.ann_refs[p], self.ann_labels[p])
        }
    }
}

/// A server with one ANN and one SNN replica under the default config.
pub fn start_server(q: &nebula_nn::Network, snn: &nebula_nn::SpikingNetwork) -> Server {
    Server::start(
        ServeConfig::default(),
        vec![
            ModelSpec::ann("ann", model::ann_chip(q), 1),
            ModelSpec::snn("snn", model::snn_chip(snn, InputEncoding::Poisson), 1),
        ],
    )
    .expect("starting the server")
}

/// Sends requests 0 and 1 (one per kind) and waits for both — the cold
/// first call of a fresh server.
pub fn first_requests(server: &Server, payloads: &Payloads) -> Vec<Served> {
    (0..2)
        .map(|i| {
            let (req, snn, p) = payloads.request(i);
            let (t, steal0) = (Instant::now(), steal_seconds());
            let resp = server.submit(req).and_then(ResponseHandle::wait);
            let (want, label) = payloads.reference(snn, p);
            served(snn, t, steal0, resp, want, label)
        })
        .collect()
}

/// Scores one answer; `steal0` is [`steal_seconds`] at the send.
fn served(
    snn: bool,
    due: Instant,
    steal0: f64,
    resp: Result<nebula_core::InferenceResponse, nebula_core::ServeError>,
    want: &Outcome,
    label: usize,
) -> Served {
    let latency_ms = due.elapsed().as_secs_f64() * 1e3;
    let steal = steal_share(steal0, latency_ms / 1e3);
    match resp {
        Ok(r) => Served {
            snn,
            latency_ms,
            queued_ms: r.queued.as_secs_f64() * 1e3,
            service_ms: r.service.as_secs_f64() * 1e3,
            ok: bits_equal(&r.output, &want.out),
            hit: model::hits(&r.output, &[label]) == 1,
            steal,
        },
        Err(_) => Served {
            snn,
            latency_ms,
            queued_ms: 0.0,
            service_ms: 0.0,
            ok: false,
            hit: false,
            steal,
        },
    }
}

/// What an open-loop session observed.
pub struct Session {
    pub served: Vec<Served>,
    /// How late the generator sent each request.
    pub lag_ms: Vec<f64>,
    pub max_queued: usize,
    /// First scheduled send to last completion.
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub steal_share: f64,
    /// [`host_probe_ms`] after every send.
    pub probes_ms: Vec<f64>,
    /// Sum of the served requests' reference energies and waves.
    pub ref_energy_j: f64,
    pub ref_waves: u64,
}

/// Open-loop arrivals: a Poisson process of rate [`SERVE_RATE`]
/// conditioned on its count, i.e. `round(rate · seconds)` uniform
/// arrival times, sorted.
pub fn schedule(seed: u64, seconds: f64) -> Vec<f64> {
    let n = ((SERVE_RATE * seconds).round() as usize).max(2);
    let mut rng = ChaCha8Rng::seed_from_u64(model::mix(seed, 5));
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    at.sort_by(f64::total_cmp);
    at
}

/// Sends request `i` at `schedule[i]` after the session start, whether
/// or not earlier requests have been answered, and times each from its
/// scheduled send to its answer. One collector per model waits for the
/// answers in order (each model's single replica answers in FIFO order).
pub fn open_loop(server: &Server, payloads: &Payloads, schedule: &[f64]) -> Session {
    type Sent = (ResponseHandle, Instant, f64, bool, usize);
    let collect = |rx: mpsc::Receiver<Sent>| -> (Vec<Served>, Option<Instant>) {
        let mut out = Vec::new();
        let mut last = None;
        for (handle, due, steal0, snn, p) in rx {
            let resp = handle.wait();
            last = Some(Instant::now());
            let (want, label) = payloads.reference(snn, p);
            out.push(served(snn, due, steal0, resp, want, label));
        }
        (out, last)
    };
    let steal0 = steal_seconds();
    let cpu0 = cpu_seconds();
    let mut lag_ms = Vec::with_capacity(schedule.len());
    let mut max_queued = 0;
    let mut peak_rss_mb = rss_mb();
    let (mut ref_energy_j, mut ref_waves) = (0.0, 0);
    let mut served_all = Vec::with_capacity(schedule.len());
    let mut probes_ms = Vec::with_capacity(schedule.len());
    let t0 = Instant::now();
    let mut last = t0;
    std::thread::scope(|s| {
        let (tx_ann, rx_ann) = mpsc::channel::<Sent>();
        let (tx_snn, rx_snn) = mpsc::channel::<Sent>();
        let ann = s.spawn(move || collect(rx_ann));
        let snn = s.spawn(move || collect(rx_snn));
        for (i, &at) in schedule.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(at);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let (req, is_snn, p) = payloads.request(i);
            let model = if is_snn { "snn" } else { "ann" };
            let (want, label) = payloads.reference(is_snn, p);
            ref_energy_j += want.energy_j;
            ref_waves += want.waves;
            let steal0 = steal_seconds();
            match server.submit(req) {
                Ok(h) => {
                    let tx = if is_snn { &tx_snn } else { &tx_ann };
                    tx.send((h, due, steal0, is_snn, p))
                        .expect("collector alive");
                }
                Err(e) => served_all.push(served(is_snn, due, steal0, Err(e), want, label)),
            }
            max_queued = max_queued.max(server.queued(model).unwrap_or(0));
            probes_ms.push(host_probe_ms());
            if i % 16 == 0 {
                peak_rss_mb = peak_rss_mb.max(rss_mb());
            }
        }
        drop((tx_ann, tx_snn));
        for c in [ann, snn] {
            let (out, done) = c.join().expect("collector panicked");
            served_all.extend(out);
            last = last.max(done.unwrap_or(t0));
        }
    });
    let wall_s = (last - t0).as_secs_f64();
    Session {
        served: served_all,
        lag_ms,
        max_queued,
        wall_s,
        steal_share: steal_share(steal0, wall_s),
        probes_ms,
        cpu_s: cpu_seconds() - cpu0,
        peak_rss_mb: peak_rss_mb.max(rss_mb()),
        ref_energy_j,
        ref_waves,
    }
}

/// Latencies (or another field) of one kind.
pub fn of_kind(s: &[Served], snn: bool, f: impl Fn(&Served) -> f64) -> Vec<f64> {
    s.iter().filter(|x| x.snn == snn).map(f).collect()
}

/// Checks a session's answers and the server's energy and wave totals
/// (which must equal the served requests' references: waves exactly,
/// energy to the `Auto` tolerance).
pub fn check_session(counts: &mut Counts, session: &Session, waves: u64, energy_j: f64) {
    for s in &session.served {
        counts.record(s.ok);
    }
    let want = session.ref_energy_j;
    counts
        .record(waves == session.ref_waves && (energy_j - want).abs() <= model::ENERGY_RTOL * want);
}

/// Summed waves and read energy over every hosted model.
pub fn server_totals(server: &Server) -> (u64, f64) {
    let stats = server.stats();
    (
        stats.models.iter().map(|m| m.waves).sum(),
        stats.models.iter().map(|m| m.read_energy.0).sum(),
    )
}

/// `serve_mixed_open`: open-loop single-image requests alternating ANN
/// and SNN@150 at a fixed rate into a `Server` with default config and
/// one replica per model.
pub fn serve_mixed_open(ctx: &mut Ctx) {
    let training = model::train(ctx.started);
    let payloads = {
        let q = model::quantize(&training.model);
        let snn = model::convert(&training.model, &q);
        Payloads::new(ctx.seed, &q, &snn)
    };
    let built = model::build(&training, SETUP_REPS, start_server, |server| {
        first_requests(server, &payloads)
    });
    for s in built.first_calls.iter().flatten() {
        ctx.counts.record(s.ok);
    }
    let mut server = built.chip;
    let (w0, e0) = server_totals(&server);
    let session = open_loop(&server, &payloads, &schedule(ctx.seed, ctx.seconds));
    // After shutdown every replica is idle, so the totals are exact.
    server.shutdown();
    let (w1, e1) = server_totals(&server);
    check_session(&mut ctx.counts, &session, w1 - w0, e1 - e0);
    let r = &mut ctx.report;
    report_setup(r, &built.times);
    let n = session.served.len();
    let snn_lat = of_kind(&session.served, true, |s| s.latency_ms);
    let snn_quiet: Vec<f64> = undisturbed(&session.served, |s| s.steal)
        .into_iter()
        .filter(|s| s.snn)
        .map(|s| s.latency_ms)
        .collect();
    let ann_lat = of_kind(&session.served, false, |s| s.latency_ms);
    let good = session
        .served
        .iter()
        .filter(|s| s.ok && s.latency_ms <= if s.snn { SNN_LIMIT_MS } else { ANN_LIMIT_MS })
        .count();
    // Completions per second follow the fixed offered load, so only the
    // durations are scaled to the reference host's speed.
    let slow = host_slowdown(&session.probes_ms);
    let cpu_ms = session.cpu_s * 1e3 / n as f64;
    r.metric("infer_per_s", n as f64 / session.wall_s, "1/s", n);
    r.metric("cpu_ms_per_infer", cpu_ms / slow, "ms", n);
    r.metric("p50_ms", median(&snn_quiet) / slow, "ms", snn_quiet.len());
    r.metric("goodput_rps", good as f64 / session.wall_s, "1/s", n);
    r.metric(
        "energy_nj_per_infer",
        session.ref_energy_j * 1e9 / n as f64,
        "nJ",
        n,
    );
    r.metric("peak_rss_mb", session.peak_rss_mb, "MiB", n);
    r.detail("host_slowdown", slow, "ratio", session.probes_ms.len());
    r.detail("cpu_ms_per_infer_raw", cpu_ms, "ms", n);
    r.detail("p50_ms_raw", median(&snn_quiet), "ms", snn_quiet.len());
    r.detail("offered_rps", SERVE_RATE, "1/s", 1);
    r.detail("snn_p50_ms_all", median(&snn_lat), "ms", snn_lat.len());
    r.detail("snn_p95_ms", quantile(&snn_lat, 0.95), "ms", snn_lat.len());
    r.detail("ann_p50_ms", median(&ann_lat), "ms", ann_lat.len());
    r.detail("ann_p95_ms", quantile(&ann_lat, 0.95), "ms", ann_lat.len());
    r.detail(
        "gen_lag_p95_ms",
        quantile(&session.lag_ms, 0.95),
        "ms",
        session.lag_ms.len(),
    );
    r.detail("max_queued", session.max_queued as f64, "count", n);
    r.detail("steal_share", session.steal_share, "ratio", 1);
    for (kind, snn) in [("snn", true), ("ann", false)] {
        let q = of_kind(&session.served, snn, |s| s.queued_ms);
        let sv = of_kind(&session.served, snn, |s| s.service_ms);
        r.detail(
            &format!("{kind}_queue_wait_p50_ms"),
            median(&q),
            "ms",
            q.len(),
        );
        r.detail(
            &format!("{kind}_service_p50_ms"),
            median(&sv),
            "ms",
            sv.len(),
        );
    }
    let hits = session.served.iter().filter(|s| s.hit).count();
    r.detail("accuracy", hits as f64 / n as f64, "ratio", n);
}
