#![forbid(unsafe_code)]
//! Shared helpers for the benchmarks that regenerate the cost side of the
//! paper's Table 1 and Figures 1–5: the [`Group`] timing loop the
//! microbenches print through, the workspace's one JSON layer
//! ([`json`]), the same-host A/B gate over the repository benchmark
//! ([`ab`]) and the log-scale latency histogram ([`hist`]). See `benches/` for the
//! individual harnesses; the `repro_*` examples at the workspace root
//! print the paper's verdicts and figure traces.

pub mod ab;
pub mod hist;
pub mod json;

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hi_core::ObjectSpec;
use hi_sim::{run_workload, Executor, Implementation, Scheduler, Workload};

/// Runs a workload to completion and returns the number of steps taken —
/// the benchmarks' unit of simulated work.
///
/// # Panics
///
/// Panics if the run exceeds `max_steps` (benchmarks size their workloads to
/// terminate).
pub fn run_to_completion<S, I, Sch>(
    imp: &I,
    workload: Workload<S>,
    sched: &mut Sch,
    max_steps: u64,
) -> u64
where
    S: ObjectSpec,
    I: Implementation<S>,
    Sch: Scheduler,
{
    let mut exec = Executor::new(imp.clone());
    run_workload(&mut exec, workload, sched, &mut (), max_steps)
        .expect("benchmark workload exceeded its step budget");
    exec.steps()
}

/// A named group of timed cases. Each [`bench`](Group::bench) prints one
/// `group/case: X ns/iter` line, with `(Y elem/s)` appended when the group
/// declares a [`throughput`](Group::throughput).
///
/// The timing loop is deliberately small: a 20 ms warm-up estimates the
/// per-iteration cost, each sample then runs a batch sized to ~2 ms, and
/// the reported figure is the median of the samples. There is no
/// statistical analysis and no saved baseline.
pub struct Group {
    name: &'static str,
    samples: usize,
    elements: Option<u64>,
}

impl Group {
    /// A group taking 10 samples per case, with no throughput.
    pub fn new(name: &'static str) -> Group {
        Group {
            name,
            samples: 10,
            elements: None,
        }
    }

    /// Sets the number of timed samples per case.
    pub fn samples(mut self, n: usize) -> Group {
        self.samples = n;
        self
    }

    /// Declares that one iteration processes `elements` elements.
    pub fn throughput(&mut self, elements: u64) {
        self.elements = Some(elements);
    }

    /// Times `routine`, prints the case's line and returns the median
    /// nanoseconds per iteration.
    pub fn bench<O>(&self, case: impl Display, mut routine: impl FnMut() -> O) -> f64 {
        let warmup = Duration::from_millis(20);
        let start = Instant::now();
        let mut iters: u64 = 0;
        while start.elapsed() < warmup {
            black_box(routine());
            iters += 1;
        }
        let per_iter = warmup.as_nanos() as f64 / iters.max(1) as f64;
        let batch = ((2_000_000.0 / per_iter.max(1.0)) as u64).clamp(1, 1 << 24);
        let mut samples: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(routine());
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let ns = samples[samples.len() / 2];
        let mut line = format!("{}/{case}: {ns:.1} ns/iter", self.name);
        if let Some(n) = self.elements.filter(|_| ns > 0.0) {
            line.push_str(&format!(" ({:.0} elem/s)", n as f64 * 1e9 / ns));
        }
        println!("{line}");
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_records() {
        let mut group = Group::new("adds").samples(3);
        group.throughput(1);
        let wrapping = group.bench("wrapping", || black_box(3u64).wrapping_add(4));
        let param = group.bench(format!("param/{}", 7), || black_box(7u64) + 1);
        assert!([wrapping, param]
            .iter()
            .all(|ns| ns.is_finite() && *ns >= 0.0));
    }
}
