//! The traced run: per-layer numbers timed from outside, around calls
//! into each module's public functions.
//!
//! Every traced run sweeps the same modules (set-up, `analog_snn`,
//! `nn`, `analog`, `crossbar`, `tensor`, the worker pool, `serve`,
//! `multichip` and `noc`) on the same 1-worker pool, whichever workload
//! is named, so its per-layer metrics are the same list on every
//! workload; only the seed changes the inputs. Stage self times come
//! from prefixes: stage `k`'s self time is the time of the network cut
//! after stage `k` minus the time of the one cut before it.

use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use nebula_core::components::M;
use nebula_core::multichip::PipelineConfig;
use nebula_core::ShardedSpikingNetwork;
use nebula_crossbar::{CrossbarConfig, KernelPath, Mode, SuperTile};
use nebula_nn::snn::{IfPopulation, SnnStage};
use nebula_nn::{Dataset, InputEncoding, Layer, Network, ResetMode, SpikingNetwork};
use nebula_tensor::{avg_pool2d, im2col, ConvGeometry, Tensor};
use nebula_workloads::scaled::scaled_vgg;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::model::{self, bits_equal, matches, observe, Outcome};
use crate::stats::{median, quantile, spread, Counts, Report};
use crate::workloads::{
    check_session, first_requests, of_kind, open_loop, schedule, server_totals, start_server, Ctx,
    Payloads, ANN_BATCH, CHIPS, EVENTS_T, SETUP_REPS, SNN_BATCH, SNN_T,
};

/// Passes over the prefix networks (see [`self_times`]).
const SNN_PASSES: usize = 3;
const ANN_PASSES: usize = 3;
/// Repeated calls behind each self-check and fan-out median.
const SNN_CALLS: usize = 3;
const ANN_CALLS: usize = 5;
/// Longest serving session of the traced run.
const SERVE_SECONDS: f64 = 4.0;

/// In-memory spans: name, parent and interval.
#[derive(Default)]
struct Spans {
    spans: Vec<(String, Option<usize>, Instant, Instant)>,
    open: Vec<usize>,
}

impl Spans {
    /// Runs `f` inside a span named `name`, nested in the open span.
    fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans
            .push((name.into(), self.open.last().copied(), now, now));
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].3 = Instant::now();
        out
    }

    /// Durations, in ms, of every span with this name, in order.
    fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.0 == name)
            .map(|s| (s.3 - s.2).as_secs_f64() * 1e3)
            .collect()
    }

    /// Total of the top-level spans, in ms.
    fn total_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.1.is_none())
            .map(|s| (s.3 - s.2).as_secs_f64() * 1e3)
            .sum()
    }
}

/// Short stage names for metric keys.
fn snn_kind(stage: &SnnStage) -> &'static str {
    match stage {
        SnnStage::IntegrateFire(_) => "if",
        SnnStage::Synaptic(l) => layer_kind(l),
    }
}

fn layer_kind(layer: &Layer) -> &'static str {
    match layer {
        Layer::Conv2d(_) => "conv",
        Layer::Dense(_) => "dense",
        Layer::AvgPool(_) => "pool",
        Layer::Flatten(_) => "flatten",
        Layer::Relu(_) => "relu",
        Layer::ActivationQuant(_) => "quant",
        _ => "other",
    }
}

/// Fastest time of prefix `k` over the passes `t[pass][k]`: host noise
/// only ever adds time, so the minimum is the least disturbed reading.
fn fastest(t: &[Vec<f64>], k: usize) -> f64 {
    t.iter().map(|p| p[k]).fold(f64::INFINITY, f64::min)
}

/// Self time of the stage that prefix `k` adds (prefix `k` holds the
/// first `k` stages): the difference of the fastest prefix times, and
/// the range of the per-pass differences as its spread. The self times
/// of all stages plus prefix 0 (encode and accumulate) add up to the
/// fastest time of the whole network.
fn self_times(t: &[Vec<f64>], k: usize) -> (f64, f64) {
    let d: Vec<f64> = t.iter().map(|p| p[k] - p[k - 1]).collect();
    (
        fastest(t, k) - fastest(t, k - 1),
        quantile(&d, 1.0) - quantile(&d, 0.0),
    )
}

fn share(kinds: &[&str], selfs: &[f64], kind: &str, total: f64) -> f64 {
    kinds
        .iter()
        .zip(selfs)
        .filter(|(k, _)| **k == kind)
        .map(|(_, s)| s)
        .sum::<f64>()
        / total
}

pub fn run(ctx: &mut Ctx) {
    let mut sp = Spans::default();
    let r = &mut ctx.report;
    let counts = &mut ctx.counts;
    let seed = ctx.seed;

    // --- setup --------------------------------------------------------
    let training = sp.time("setup.train", |_| model::train(ctx.started));
    let snn_set = model::textures(seed, 1, SNN_BATCH);
    let enc = model::mix(seed, 100);
    let ann_set = model::textures(seed, 2, ANN_BATCH);
    let snn_call = |c: &mut nebula_core::AnalogSpikingNetwork, sequential: bool| {
        observe(c, model::snn_counters, |c| {
            let mut rng = ChaCha8Rng::seed_from_u64(enc);
            if sequential {
                c.run_sequential(&snn_set.inputs, SNN_T, &mut rng)
            } else {
                c.run(&snn_set.inputs, SNN_T, &mut rng)
            }
            .expect("SNN run")
        })
    };
    let ann_call = |c: &mut nebula_core::AnalogNetwork, sequential: bool| {
        observe(c, model::ann_counters, |c| {
            if sequential {
                c.forward_sequential(&ann_set.inputs)
            } else {
                c.forward(&ann_set.inputs)
            }
            .expect("ANN forward")
        })
    };
    let built = sp.time("setup.build", |_| {
        model::build(
            &training,
            SETUP_REPS,
            |q, snn| {
                (
                    model::ann_chip(q),
                    model::snn_chip(snn, InputEncoding::Poisson),
                )
            },
            |(_, s)| snn_call(s, false),
        )
    });
    let st = &built.times;
    r.metric("setup.train_s", st.train_s, "s", 1);
    r.metric("setup.quantize_s", st.quantize_s, "s", st.reps);
    r.metric("setup.convert_s", st.convert_s, "s", st.reps);
    r.metric("setup.compile_s", st.compile_s, "s", st.reps);
    r.metric("setup.first_call_ms", st.first_call_ms, "ms", st.reps);
    let (q, snn) = (&built.quantized, &built.snn);
    let (mut ann, mut snn_chip) = built.chip;
    let snn_ref = sp.time("reference.snn", |_| {
        snn_call(&mut model::snn_chip(snn, InputEncoding::Poisson), true)
    });
    let ann_ref = sp.time("reference.ann", |_| ann_call(&mut model::ann_chip(q), true));
    for got in &built.first_calls {
        counts.record(matches(got, &snn_ref));
    }

    // --- self-check: the same calls untraced, then inside spans -------
    let untraced =
        |n: usize, f: &mut dyn FnMut() -> Outcome, want: &Outcome, counts: &mut Counts| {
            (0..n)
                .map(|_| {
                    let t = Instant::now();
                    let got = f();
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    counts.record(matches(&got, want));
                    ms
                })
                .collect::<Vec<f64>>()
        };
    let snn_untraced = untraced(
        SNN_CALLS,
        &mut || snn_call(&mut snn_chip, false),
        &snn_ref,
        counts,
    );
    let ann_untraced = untraced(
        ANN_CALLS,
        &mut || ann_call(&mut ann, false),
        &ann_ref,
        counts,
    );
    for _ in 0..SNN_CALLS {
        let got = sp.time("analog_snn.run", |_| snn_call(&mut snn_chip, false));
        counts.record(matches(&got, &snn_ref));
    }
    for _ in 0..ANN_CALLS {
        let got = sp.time("analog.forward", |_| ann_call(&mut ann, false));
        counts.record(matches(&got, &ann_ref));
    }
    let untraced_ms = median(&snn_untraced) + median(&ann_untraced);
    let traced_ms = median(&sp.ms("analog_snn.run")) + median(&sp.ms("analog.forward"));
    r.metric(
        "trace.overhead",
        traced_ms / untraced_ms,
        "ratio",
        SNN_CALLS + ANN_CALLS,
    );

    // --- analog_snn: stage prefixes ----------------------------------
    let stages = snn.stages();
    let mut prefixes: Vec<_> = (0..=stages.len())
        .map(|k| {
            let mut c = model::snn_chip(
                &SpikingNetwork::new(stages[..k].to_vec(), InputEncoding::Poisson),
                InputEncoding::Poisson,
            );
            c.conductance_cache_bytes();
            c
        })
        .collect();
    let mut first: Vec<Outcome> = Vec::new();
    let mut times: Vec<Vec<f64>> = Vec::new();
    sp.time("analog_snn.prefixes", |sp| {
        for pass in 0..SNN_PASSES {
            let mut t = Vec::with_capacity(prefixes.len());
            for (k, c) in prefixes.iter_mut().enumerate() {
                let name = format!("analog_snn.prefix{k}");
                let got = sp.time(name.clone(), |_| snn_call(c, false));
                t.push(*sp.ms(&name).last().expect("span just recorded"));
                if pass == 0 {
                    first.push(got);
                }
            }
            times.push(t);
        }
    });
    counts.record(matches(first.last().expect("full prefix"), &snn_ref));
    let kinds: Vec<&str> = stages.iter().map(snn_kind).collect();
    let snn_total = fastest(&times, stages.len());
    r.metric("analog_snn.encode_ms", fastest(&times, 0), "ms", SNN_PASSES);
    let mut selfs = Vec::new();
    let mut if_rates = Vec::new();
    for (i, kind) in kinds.iter().enumerate() {
        let key = format!("analog_snn.s{i:02}_{kind}");
        let (self_ms, range) = self_times(&times, i + 1);
        selfs.push(self_ms);
        r.metric(&format!("{key}.self_ms"), self_ms, "ms", SNN_PASSES);
        r.metric(&format!("{key}.self_ms_range"), range, "ms", SNN_PASSES);
        if matches!(*kind, "conv" | "dense") {
            let (a, b) = (&first[i], &first[i + 1]);
            r.metric(
                &format!("{key}.waves"),
                (b.waves - a.waves) as f64,
                "count",
                1,
            );
            r.metric(
                &format!("{key}.energy_nj"),
                (b.energy_j - a.energy_j) * 1e9,
                "nJ",
                1,
            );
        }
        if *kind == "if" {
            let out = &first[i + 1].out;
            if_rates.push(
                out.data().iter().map(|&v| f64::from(v)).sum::<f64>() / (out.len() * SNN_T) as f64,
            );
        }
    }
    for kind in ["conv", "if", "pool", "dense"] {
        r.metric(
            &format!("analog_snn.{kind}_share"),
            share(&kinds, &selfs, kind, snn_total),
            "ratio",
            SNN_PASSES,
        );
    }
    let snn_last = median(&times.iter().map(|p| p[stages.len()]).collect::<Vec<_>>());
    r.metric(
        "trace.snn_last_prefix_ratio",
        snn_last / median(&snn_untraced),
        "ratio",
        SNN_PASSES,
    );
    drop(prefixes);

    // --- Fig. 4 at runtime: the software SNN on the same inputs -------
    let (result, _) = sp.time("nn.run_recording", |_| {
        snn.clone()
            .run_recording(
                &snn_set.inputs,
                SNN_T,
                &mut ChaCha8Rng::seed_from_u64(enc),
                &[],
            )
            .expect("software SNN run")
    });
    println!("fig4 firing rate per IF layer (circuit vs software):");
    for (j, (c, s)) in if_rates
        .iter()
        .zip(&result.stats.activity_per_layer)
        .enumerate()
    {
        println!("  if{j}: circuit {c:.4}  software {s:.4}");
        r.metric(&format!("analog_snn.if{j}.firing_rate"), *c, "ratio", 1);
        r.metric(&format!("nn.if{j}.firing_rate"), *s, "ratio", 1);
    }

    // --- analog: layer prefixes --------------------------------------
    let layers = q.layers();
    let mut prefixes: Vec<_> = (0..=layers.len())
        .map(|k| {
            let mut c = model::ann_chip(&Network::new(layers[..k].to_vec()));
            c.conductance_cache_bytes();
            c
        })
        .collect();
    let mut times: Vec<Vec<f64>> = Vec::new();
    let mut last = None;
    sp.time("analog.prefixes", |sp| {
        for _ in 0..ANN_PASSES {
            let mut t = Vec::with_capacity(prefixes.len());
            for (k, c) in prefixes.iter_mut().enumerate() {
                let name = format!("analog.prefix{k}");
                last = Some(sp.time(name.clone(), |_| ann_call(c, false)));
                t.push(*sp.ms(&name).last().expect("span just recorded"));
            }
            times.push(t);
        }
    });
    counts.record(matches(&last.expect("full prefix"), &ann_ref));
    let kinds: Vec<&str> = layers.iter().map(layer_kind).collect();
    let ann_total = fastest(&times, layers.len());
    let ann_last = median(&times.iter().map(|p| p[layers.len()]).collect::<Vec<_>>());
    let selfs: Vec<f64> = (1..=layers.len())
        .map(|k| self_times(&times, k).0)
        .collect();
    for (i, (kind, s)) in kinds.iter().zip(&selfs).enumerate() {
        r.metric(
            &format!("analog.s{i:02}_{kind}.self_ms"),
            *s,
            "ms",
            ANN_PASSES,
        );
    }
    for kind in ["conv", "dense", "pool"] {
        r.metric(
            &format!("analog.{kind}_share"),
            share(&kinds, &selfs, kind, ann_total),
            "ratio",
            ANN_PASSES,
        );
    }
    r.metric(
        "trace.ann_last_prefix_ratio",
        ann_last / median(&ann_untraced),
        "ratio",
        ANN_PASSES,
    );
    drop(prefixes);

    // --- crossbar, nn, tensor: one layer's primitives ----------------
    sp.time("crossbar", |sp| {
        crossbar_probe(sp, r, snn, seed, if_rates[0])
    });
    sp.time("nn", |sp| if_step_probe(sp, r, seed));
    sp.time("tensor", |sp| tensor_probe(sp, r, seed, if_rates[0]));

    // --- pool: the same calls at 1 worker and at nproc workers --------
    sp.time("pool", |_| {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let one = fanout(&training.model, &snn_set, enc, &ann_set, 1);
        let all = fanout(&training.model, &snn_set, enc, &ann_set, nproc);
        for (kind, i, want) in [("snn", 0, &snn_ref), ("ann", 1, &ann_ref)] {
            for f in [&one, &all] {
                counts.record(
                    f.as_ref()
                        .is_some_and(|f| f.hashes[i] == bits_hash(&want.out)),
                );
            }
            let nan = vec![f64::NAN];
            let (a, b) = match (&one, &all) {
                (Some(a), Some(b)) => (&a.ms[i], &b.ms[i]),
                _ => (&nan, &nan),
            };
            r.metric(
                &format!("pool.{kind}.fanout_gain"),
                median(a) / median(b),
                "ratio",
                a.len(),
            );
            r.metric(
                &format!("pool.{kind}.spread_1w"),
                spread(a),
                "ratio",
                a.len(),
            );
            r.metric(
                &format!("pool.{kind}.spread_nw"),
                spread(b),
                "ratio",
                b.len(),
            );
        }
    });

    // --- serve: a short open-loop session ----------------------------
    sp.time("serve", |_| {
        let payloads = Payloads::new(seed, q, snn);
        let mut server = start_server(q, snn);
        for s in first_requests(&server, &payloads) {
            counts.record(s.ok);
        }
        let (w0, e0) = server_totals(&server);
        let session = open_loop(
            &server,
            &payloads,
            &schedule(seed, ctx.seconds.min(SERVE_SECONDS)),
        );
        server.shutdown();
        let (w1, e1) = server_totals(&server);
        check_session(counts, &session, w1 - w0, e1 - e0);
        for (kind, snn) in [("snn", true), ("ann", false)] {
            let qw = of_kind(&session.served, snn, |s| s.queued_ms);
            let sv = of_kind(&session.served, snn, |s| s.service_ms);
            r.metric(
                &format!("serve.{kind}.queue_wait_p50_ms"),
                median(&qw),
                "ms",
                qw.len(),
            );
            r.metric(
                &format!("serve.{kind}.queue_wait_p95_ms"),
                quantile(&qw, 0.95),
                "ms",
                qw.len(),
            );
            r.metric(
                &format!("serve.{kind}.service_p50_ms"),
                median(&sv),
                "ms",
                sv.len(),
            );
            r.metric(
                &format!("serve.{kind}.service_p95_ms"),
                quantile(&sv, 0.95),
                "ms",
                sv.len(),
            );
        }
        let stats = server.stats();
        let (reqs, batches) = stats
            .models
            .iter()
            .fold((0, 0), |(r, b), m| (r + m.requests, b + m.batches));
        r.metric(
            "serve.mean_batch",
            reqs as f64 / batches.max(1) as f64,
            "count",
            batches as usize,
        );
        r.metric(
            "serve.gen_lag_p95_ms",
            quantile(&session.lag_ms, 0.95),
            "ms",
            session.lag_ms.len(),
        );
        r.metric(
            "serve.max_queued",
            session.max_queued as f64,
            "count",
            session.served.len(),
        );
    });

    // --- multichip and noc: pipelined vs single-chip on event frames --
    sp.time("multichip", |sp| {
        let frames = model::dvs_frames(seed, 3, SNN_BATCH);
        let mut single = model::snn_chip(snn, InputEncoding::Constant);
        single.conductance_cache_bytes();
        let mut sharded =
            ShardedSpikingNetwork::layer_pipelined(single.clone(), CHIPS).expect("sharding");
        let cfg = PipelineConfig::default();
        let rng = || ChaCha8Rng::seed_from_u64(0);
        let traffic0 = sharded.traffic();
        let mut traffic1 = None;
        for _ in 0..SNN_CALLS {
            let want = sp.time("multichip.single", |_| {
                observe(&mut single, model::snn_counters, |c| {
                    c.run(&frames.inputs, EVENTS_T, &mut rng())
                        .expect("single-chip run")
                })
            });
            let got = sp.time("multichip.pipelined", |_| {
                observe(
                    &mut sharded,
                    |c| (c.waves(), c.read_energy().0),
                    |c| {
                        c.run_pipelined(&frames.inputs, EVENTS_T, &mut rng(), &cfg)
                            .expect("pipelined run")
                    },
                )
            });
            counts.record(bits_equal(&got.out, &want.out) && got.waves == want.waves);
            traffic1.get_or_insert_with(|| sharded.traffic());
        }
        let (pipe, one) = (sp.ms("multichip.pipelined"), sp.ms("multichip.single"));
        r.metric("multichip.pipelined_ms", median(&pipe), "ms", pipe.len());
        r.metric("multichip.single_ms", median(&one), "ms", one.len());
        r.metric(
            "multichip.pipeline_gain",
            median(&one) / median(&pipe),
            "ratio",
            pipe.len(),
        );
        let t1 = traffic1.expect("at least one call");
        let per = |a: u64, b: u64| (a - b) as f64 / SNN_BATCH as f64;
        r.metric(
            "noc.link_flit_hops",
            per(t1.link_flit_hops, traffic0.link_flit_hops),
            "count",
            1,
        );
        r.metric(
            "noc.flit_hops",
            per(t1.flit_hops, traffic0.flit_hops),
            "count",
            1,
        );
        r.metric(
            "noc.transfers",
            per(t1.transfers, traffic0.transfers),
            "count",
            1,
        );
    });

    println!(
        "trace: {} spans, {:.0} ms traced",
        sp.spans.len(),
        sp.total_ms()
    );
}

/// `SuperTile` primitives on conv2's weight block.
fn crossbar_probe(sp: &mut Spans, r: &mut Report, snn: &SpikingNetwork, seed: u64, rate: f64) {
    let conv2 = snn
        .stages()
        .iter()
        .filter_map(|s| match s {
            SnnStage::Synaptic(Layer::Conv2d(c)) => Some(&c.weight.value),
            _ => None,
        })
        .nth(1)
        .expect("VGG/10 has a second convolution");
    let s = conv2.shape();
    let (oc, rf) = (s[0], s[1] * s[2] * s[3]);
    let cols = oc.min(M);
    let w = conv2.data();
    let block: Vec<Vec<f64>> = (0..rf)
        .map(|row| (0..cols).map(|c| f64::from(w[c * rf + row])).collect())
        .collect();
    let clip = w.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-6) as f64;
    let mut tile = SuperTile::new(CrossbarConfig::paper_default(Mode::Snn)).expect("super-tile");
    tile.program(&block, clip).expect("programming conv2");
    tile.set_kernel_path(KernelPath::Auto);
    let prepare: Vec<f64> = (0..10)
        .map(|_| {
            let mut t = tile.clone();
            sp.time("crossbar.prepare", |_| t.prepare());
            *sp.ms("crossbar.prepare")
                .last()
                .expect("span just recorded")
        })
        .collect();
    tile.prepare();
    r.metric("crossbar.prepare_ms", median(&prepare), "ms", prepare.len());
    r.metric(
        "crossbar.cache_bytes",
        tile.kernel_cache_bytes() as f64,
        "B",
        1,
    );
    const ROWS: usize = 2048;
    let mut rng = ChaCha8Rng::seed_from_u64(model::mix(seed, 9));
    let spikes: Vec<Vec<usize>> = (0..ROWS)
        .map(|_| (0..rf).filter(|_| rng.gen::<f64>() < rate).collect())
        .collect();
    let dense: Vec<Vec<f64>> = (0..ROWS)
        .map(|_| (0..rf).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let per_row = |sp: &mut Spans, name: &str, f: &mut dyn FnMut()| {
        for _ in 0..5 {
            sp.time(name, |_| f());
        }
        median(&sp.ms(name)) * 1e6 / ROWS as f64
    };
    let ns = per_row(sp, "crossbar.dot_batch_sparse", &mut || {
        std::hint::black_box(tile.dot_batch_sparse(&spikes).expect("sparse dot"));
    });
    r.metric("crossbar.spike_dot_ns_per_row", ns, "ns", 5);
    let ns = per_row(sp, "crossbar.dot_batch", &mut || {
        std::hint::black_box(tile.dot_batch(&dense).expect("dense dot"));
    });
    r.metric("crossbar.dense_dot_ns_per_row", ns, "ns", 5);
}

/// `IfPopulation::step` over conv1's output volume for one SNN batch.
fn if_step_probe(sp: &mut Spans, r: &mut Report, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(model::mix(seed, 10));
    let shape = [SNN_BATCH, 16, 16, 16];
    let n: usize = shape.iter().product();
    let drive =
        Tensor::from_vec((0..n).map(|_| rng.gen::<f32>() * 0.15).collect(), &shape).expect("drive");
    let mut pop = IfPopulation::new(1.0, ResetMode::Subtract);
    for _ in 0..3 {
        sp.time("nn.if_steps", |_| {
            for _ in 0..SNN_T {
                std::hint::black_box(pop.step(&drive).expect("IF step"));
            }
        });
    }
    let ms = median(&sp.ms("nn.if_steps"));
    r.metric(
        "nn.if_step_ns_per_neuron",
        ms * 1e6 / (SNN_T * n) as f64,
        "ns",
        3,
    );
}

/// `im2col` and `avg_pool2d` on a spike map of conv2's input volume.
fn tensor_probe(sp: &mut Spans, r: &mut Report, seed: u64, rate: f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(model::mix(seed, 11));
    let shape = [SNN_BATCH, 16, 16, 16];
    let n: usize = shape.iter().product();
    let x = Tensor::from_vec(
        (0..n)
            .map(|_| f32::from(u8::from(rng.gen::<f64>() < rate)))
            .collect(),
        &shape,
    )
    .expect("spike map");
    for _ in 0..10 {
        sp.time("tensor.im2col", |_| {
            std::hint::black_box(im2col(&x, ConvGeometry::same(3)).expect("im2col"))
        });
        sp.time("tensor.avg_pool2d", |_| {
            std::hint::black_box(avg_pool2d(&x, 2).expect("pool"))
        });
    }
    r.metric(
        "tensor.im2col_ms",
        median(&sp.ms("tensor.im2col")),
        "ms",
        10,
    );
    r.metric(
        "tensor.avg_pool_ms",
        median(&sp.ms("tensor.avg_pool2d")),
        "ms",
        10,
    );
}

/// What a fan-out child measured: per-call ms and output hashes for
/// the SNN and the ANN call.
struct Fanout {
    ms: [Vec<f64>; 2],
    hashes: [u64; 2],
}

/// FNV-1a over the output bits: the child's answer must equal the
/// parent's reference whatever its worker count.
fn bits_hash(t: &Tensor) -> u64 {
    t.data().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

fn put_tensor(buf: &mut Vec<u8>, t: &Tensor) {
    buf.extend((t.shape().len() as u64).to_le_bytes());
    for &d in t.shape() {
        buf.extend((d as u64).to_le_bytes());
    }
    for v in t.data() {
        buf.extend(v.to_le_bytes());
    }
}

fn get_u64(r: &mut impl Read) -> std::io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_tensor(r: &mut impl Read) -> std::io::Result<Tensor> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let rank = get_u64(r)?;
    if rank > 8 {
        return Err(bad("tensor rank"));
    }
    let shape = (0..rank)
        .map(|_| get_u64(r).map(|d| d as usize))
        .collect::<Result<Vec<_>, _>>()?;
    let n = shape
        .iter()
        .try_fold(1usize, |a, &d| a.checked_mul(d))
        .filter(|&n| n <= 1 << 26);
    let n = n.ok_or_else(|| bad("tensor size"))?;
    let mut bytes = vec![0u8; n * 4];
    r.read_exact(&mut bytes)?;
    let data = bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(data, &shape).map_err(|e| bad(&e.to_string()))
}

/// Re-runs the self-check calls in a child process whose pool has
/// `workers` workers (the pool is sized once per process). The child
/// gets the trained parameters, the calibration images and the inputs
/// on stdin, so it skips training.
fn fanout(
    t: &nebula_bench::setup::Trained,
    snn_set: &Dataset,
    enc: u64,
    ann_set: &Dataset,
    workers: usize,
) -> Option<Fanout> {
    let mut buf = Vec::new();
    let mut net = t.net.clone();
    let params: Vec<Tensor> = net
        .layers_mut()
        .iter_mut()
        .flat_map(|l| l.params_mut())
        .map(|p| p.value.clone())
        .collect();
    buf.extend((params.len() as u64).to_le_bytes());
    for p in &params {
        put_tensor(&mut buf, p);
    }
    let calib = t.train.take(64);
    for x in [&calib.inputs, &snn_set.inputs, &ann_set.inputs] {
        put_tensor(&mut buf, x);
    }
    for l in &calib.labels {
        buf.extend((*l as u64).to_le_bytes());
    }
    buf.extend(enc.to_le_bytes());
    let exe = std::env::current_exe().ok()?;
    let mut child = Command::new(exe)
        .arg("--fanout-child")
        .env("NEBULA_THREADS", workers.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let sent = child.stdin.take().map(|mut s| s.write_all(&buf));
    let out = child.wait_with_output().ok()?;
    if !out.status.success() || !matches!(sent, Some(Ok(()))) {
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()?
        .to_string();
    let mut parts = line.split(';');
    let mut ms =
        || -> Option<Vec<f64>> { parts.next()?.split(',').map(|v| v.parse().ok()).collect() };
    let (snn_ms, ann_ms) = (ms()?, ms()?);
    let hashes: Vec<u64> = line
        .rsplit(';')
        .next()?
        .split(',')
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some(Fanout {
        ms: [snn_ms, ann_ms],
        hashes: [*hashes.first()?, *hashes.get(1)?],
    })
}

/// Child side of [`fanout`]: rebuilds the model from stdin, times the
/// SNN and ANN calls and prints `snn_ms…;ann_ms…;snn_hash,ann_hash`.
pub fn fanout_child() -> ExitCode {
    match fanout_child_inner() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench fan-out child: {e}");
            ExitCode::FAILURE
        }
    }
}

fn fanout_child_inner() -> std::io::Result<String> {
    let mut input = std::io::stdin().lock();
    let mut net = scaled_vgg(16, 10, &mut ChaCha8Rng::seed_from_u64(0));
    let count = get_u64(&mut input)? as usize;
    let mut slots: Vec<_> = net
        .layers_mut()
        .iter_mut()
        .flat_map(|l| l.params_mut())
        .collect();
    if count != slots.len() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "parameter count",
        ));
    }
    for p in &mut slots {
        p.value = get_tensor(&mut input)?;
    }
    drop(slots);
    let calib = get_tensor(&mut input)?;
    let snn_x = get_tensor(&mut input)?;
    let ann_x = get_tensor(&mut input)?;
    let labels = (0..calib.shape()[0])
        .map(|_| get_u64(&mut input).map(|l| l as usize))
        .collect::<Result<Vec<_>, _>>()?;
    let enc = get_u64(&mut input)?;
    let t = nebula_bench::setup::Trained {
        net,
        train: Dataset::new(calib, labels)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
        test: Dataset::new(Tensor::zeros(&[0]), vec![])
            .map_err(|e| std::io::Error::other(e.to_string()))?,
        train_accuracy: 0.0,
    };
    let q = model::quantize(&t);
    let snn = model::convert(&t, &q);
    let mut ann = model::ann_chip(&q);
    let mut s = model::snn_chip(&snn, InputEncoding::Poisson);
    let timed = |n: usize, f: &mut dyn FnMut() -> Tensor| -> (Vec<f64>, u64) {
        let hash = bits_hash(&f());
        let ms = (0..n)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        (ms, hash)
    };
    let (snn_ms, snn_hash) = timed(SNN_CALLS, &mut || {
        s.run(&snn_x, SNN_T, &mut ChaCha8Rng::seed_from_u64(enc))
            .expect("SNN run")
    });
    let (ann_ms, ann_hash) = timed(ANN_CALLS, &mut || ann.forward(&ann_x).expect("ANN forward"));
    let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(",");
    Ok(format!(
        "{};{};{},{}",
        join(&snn_ms),
        join(&ann_ms),
        snn_hash,
        ann_hash
    ))
}
