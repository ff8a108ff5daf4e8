//! End-to-end and per-layer benchmark of the NEBULA circuit-level
//! executors.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs untraced and the last line
//! of standard output is the JSON result with the end-to-end metrics;
//! with `--trace 1` the same process instead runs the traced module
//! sweep and reports the per-layer metrics. See `README.md` beside this
//! crate for the workloads, the metrics and why they were chosen.

mod model;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stats::{Counts, Report};
use workloads::Ctx;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SnnVggPoisson,
    AnnVggBatch,
    ServeMixedOpen,
    SnnEvents2Chip,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::SnnVggPoisson,
        Workload::AnnVggBatch,
        Workload::ServeMixedOpen,
        Workload::SnnEvents2Chip,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::SnnVggPoisson => "snn_vgg_poisson",
            Workload::AnnVggBatch => "ann_vgg_batch",
            Workload::ServeMixedOpen => "serve_mixed_open",
            Workload::SnnEvents2Chip => "snn_events_2chip",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Worker-pool size of every workload. On a 2-vCPU guest, work that
/// keeps both vCPUs busy loses 12–40% of its CPU time to the hypervisor
/// in bursts lasting seconds: identical SNN@150 work took 385 ms in one
/// process and 733 ms in the next at 2 workers, and the two-worker
/// event workload spread 54% over five seeds. At 1 worker the medians
/// repeat within a few percent. The traced run measures the 1-worker to
/// nproc-worker ratio separately (`pool.*.fanout_gain`).
const POOL_WORKERS: usize = 1;

/// Seed used when `--seed` is omitted; 7 is held out (see README).
const DEFAULT_SEED: u64 = 1;

/// Commit the checkout was made from, when it is a git work tree.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// The host block printed with every result.
fn print_host(args: &Args) {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: nproc={nproc} pool_size={} NEBULA_THREADS={} NEBULA_KERNEL_PATH={} \
         target_cpu={} git_rev={} workload={} seed={} seconds={} trace={}",
        nebula_tensor::pool::size(),
        env("NEBULA_THREADS"),
        env("NEBULA_KERNEL_PATH"),
        option_env!("PERFBENCH_TARGET_CPU").unwrap_or("default"),
        git_revision(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn main() -> ExitCode {
    let started = Instant::now();
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--fanout-child") {
        return trace::fanout_child();
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // The pool is sized once, at first use, so the worker count must be
    // in the environment before anything touches it.
    std::env::set_var("NEBULA_THREADS", POOL_WORKERS.to_string());
    print_host(&args);
    let mut ctx = Ctx {
        started,
        seed: args.seed,
        seconds: args.seconds,
        report: Report::default(),
        counts: Counts::default(),
    };
    if args.trace {
        trace::run(&mut ctx);
    } else {
        match args.workload {
            Workload::SnnVggPoisson => workloads::snn_vgg_poisson(&mut ctx),
            Workload::AnnVggBatch => workloads::ann_vgg_batch(&mut ctx),
            Workload::ServeMixedOpen => workloads::serve_mixed_open(&mut ctx),
            Workload::SnnEvents2Chip => workloads::snn_events_2chip(&mut ctx),
        }
    }
    ctx.report.print(ctx.counts, true);
    ExitCode::SUCCESS
}
