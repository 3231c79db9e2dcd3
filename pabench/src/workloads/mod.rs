//! The four workloads. Each builds its world and oracle from the seed,
//! drives the shipped `pathalias` binary as a child for the end-to-end
//! run, and, for the traced run, times the layers it exercises.

pub mod batch;
pub mod lookup;
pub mod path;
pub mod reload;

use crate::child::Daemon;
use crate::metrics::Metrics;
use crate::stats::Tally;
use crate::trace::Tracer;
use crate::wire::{Conn, Exchange};
use std::path::Path;
use std::time::Instant;

/// What a workload run needs from the command line.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The `pathalias` binary under test.
    pub bin: &'a Path,
    /// The run's scratch directory.
    pub dir: &'a Path,
    /// The workload seed: worlds and scripts depend on nothing else.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Present on a traced run: spans are recorded and the per-layer
    /// metrics reported in place of the end-to-end ones.
    pub tracer: Option<&'a Tracer>,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed, over every phase.
    pub tally: Tally,
    /// Why the run is not correct, if it is not (a failed operation
    /// also makes it incorrect).
    pub broken: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Observations worth a line in the report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every operation succeeded and every oracle check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.broken.is_empty()
    }

    /// Folds a timed phase's accounting into the run's.
    pub fn absorb(&mut self, phase: &crate::wire::Phase) {
        self.tally.absorb(phase.tally);
        if let Some(why) = &phase.broken {
            self.broken.push(why.clone());
        }
    }
}

/// Runs the workload named `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "batch" => batch::run(ctx),
        "lookup" => lookup::run(ctx),
        "path" => path::run(ctx),
        "reload" => reload::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// A started daemon, how long it took from spawn to its first correct
/// answer, and whether that answer was correct.
pub struct ColdStart {
    /// The daemon, still running.
    pub daemon: Daemon,
    /// Spawn → first answer, in seconds.
    pub secs: f64,
    /// The first answer was byte-for-byte the expected one.
    pub ok: bool,
}

/// Spawns `pathalias serve <args>` and times it to its first answer to
/// `probe` (sent after `PROTO 2` when `v2`, as `PATH` needs).
pub fn cold_start(
    bin: &Path,
    args: &[String],
    stderr: &Path,
    probe: &Exchange,
    v2: bool,
) -> Result<ColdStart, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, args, stderr)?;
    let mut conn =
        Conn::tcp(daemon.tcp).map_err(|e| format!("connecting to {}: {e}", daemon.tcp))?;
    if v2 {
        conn.upgrade()?;
    }
    let got = conn
        .roundtrip(&probe.request)
        .map_err(|e| format!("first request: {e}"))?;
    let ok = got == probe.expect.as_slice();
    Ok(ColdStart {
        daemon,
        secs: t0.elapsed().as_secs_f64(),
        ok,
    })
}

/// Cold-starts the same daemon `repeats` times, keeping the last one
/// running. Returns it and the seconds each start took; every first
/// answer is counted in `out`.
pub fn cold_starts(
    ctx: &Ctx,
    args: &[String],
    probe: &Exchange,
    repeats: usize,
    out: &mut Outcome,
) -> Result<(Daemon, Vec<f64>), String> {
    let err = ctx.dir.join("daemon.err");
    let mut secs = Vec::with_capacity(repeats);
    let mut daemon = None;
    for _ in 0..repeats.max(1) {
        // The previous daemon goes first: two would share the box.
        drop(daemon.take());
        let start = cold_start(ctx.bin, args, &err, probe, false)?;
        out.tally.record(start.ok);
        secs.push(start.secs);
        daemon = Some(start.daemon);
    }
    Ok((daemon.expect("at least one cold start"), secs))
}

/// `--map <file>` for each map file, then `-l <home>`.
pub fn map_args(files: &[String], home: &str) -> Vec<String> {
    let mut args = Vec::with_capacity(files.len() * 2 + 2);
    for f in files {
        args.push("--map".to_string());
        args.push(f.clone());
    }
    args.push("-l".to_string());
    args.push(home.to_string());
    args
}

/// The length of each of `phases * ROUNDS` interleaved slices of the
/// measured window.
pub fn slice_seconds(seconds: f64, phases: usize) -> f64 {
    seconds / (phases * ROUNDS) as f64
}

/// Every timed phase runs as this many rounds, interleaved with the
/// other phases, and reports the median of its round values: one
/// preempted slice on a shared box then moves no metric.
pub const ROUNDS: usize = 3;
