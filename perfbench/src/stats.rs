//! Order statistics, process counters and the printed result.

use std::fmt::Write as _;

/// Quantile `q` in `[0, 1]` of `v`, linearly interpolated between the
/// two closest ranks. NaN for an empty slice.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark reports beside repeated timings.
pub fn spread(v: &[f64]) -> f64 {
    (quantile(v, 0.75) - quantile(v, 0.25)) / median(v)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process user + system CPU seconds, all threads, at nanosecond
/// resolution (`/proc` counts in 10 ms ticks, too coarse for one call).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel accepts; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the hypervisor gave to other guests, summed over every
/// CPU (`/proc/stat` steal column).
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Share of the host's CPU time stolen since `steal0` over `wall_s`
/// seconds — context for a noisy timing, not a metric of the program.
pub fn steal_share(steal0: f64, wall_s: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    (steal_seconds() - steal0) / (wall_s * cpus)
}

/// Largest share of host CPU time the hypervisor may steal while a
/// sample is taken before the sample is left out of timing statistics.
pub const STEAL_MAX: f64 = 0.1;

/// The samples taken while the host was quiet (stolen share at most
/// [`STEAL_MAX`]), or all of them when fewer than a third were. On a
/// shared host, stolen CPU time stretches every call running through a
/// burst of it, whatever the code does.
pub fn undisturbed<T>(samples: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let quiet: Vec<&T> = samples.iter().filter(|s| steal(s) <= STEAL_MAX).collect();
    if quiet.len() * 3 >= samples.len() && !quiet.is_empty() {
        quiet
    } else {
        samples.iter().collect()
    }
}

/// Median of [`host_probe_ms`] on the reference 2-vCPU host.
pub const PROBE_REF_MS: f64 = 0.33;

/// Milliseconds for one pass of a fixed kernel that uses no repository
/// code (a 128×128 single-precision matrix product): a probe of how fast
/// the host runs right now. The shared reference host runs 20–30%
/// slower or faster for minutes at a time, with no stolen time to show
/// for it, and the workloads slow down with the probe.
// Indexed on purpose: a scalar, bounds-checked loop like the simulator's
// own tracked the workloads' slowdowns; an iterator form vectorizes and
// did not.
#[allow(clippy::needless_range_loop)]
pub fn host_probe_ms() -> f64 {
    const N: usize = 128;
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.25).collect();
    let b = a.clone();
    let mut c = vec![0f32; N * N];
    let t = std::time::Instant::now();
    for i in 0..N {
        for k in 0..N {
            let x = a[i * N + k];
            for j in 0..N {
                c[i * N + j] += x * b[k * N + j];
            }
        }
    }
    std::hint::black_box(&c);
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host this host ran while the
/// probes were taken: durations are divided by it, rates multiplied.
pub fn host_slowdown(probes_ms: &[f64]) -> f64 {
    median(probes_ms) / PROBE_REF_MS
}

/// Current resident set size in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement or an
    /// exact count).
    pub samples: usize,
}

/// Operations attempted and failed by the correctness gate.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    /// Records one checked operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Collects the figures of one run and prints them.
#[derive(Debug, Default)]
pub struct Report {
    /// Figures of the result line.
    pub metrics: Vec<Metric>,
    /// Figures printed for the reader only (not part of the result line).
    pub detail: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.detail.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Prints every figure with its unit and sample count, then the
    /// result line (the last line of standard output). A non-finite
    /// value cannot be written as JSON and fails the run.
    pub fn print(&self, counts: Counts, mut correct: bool) {
        for (title, list) in [("detail", &self.detail), ("metrics", &self.metrics)] {
            println!("{title}:");
            for m in list {
                println!(
                    "  {:<44} {:>16.6} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let mut json = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            correct &= m.value.is_finite();
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push('}');
        // A run that checked nothing proves nothing: report it as one
        // failed operation.
        let (attempted, failed) = match counts.attempted {
            0 => (1, 1),
            n => (n, counts.failed),
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}",
            correct && failed == 0
        );
    }
}
