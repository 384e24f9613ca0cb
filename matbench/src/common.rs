//! Shared plumbing: the run context, the closed-loop timing loop,
//! subprocesses with a deadline, statistics, memory probes and the
//! cross-run check of exact metrics.

use matic_fuzz::Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Everything a workload needs to know about the run it is part of.
pub struct Ctx {
    /// The workload seed; every input is drawn from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Checkout root (the current directory).
    pub root: PathBuf,
    /// The `matic` binary built for this run.
    pub matic: PathBuf,
    /// Scratch directory for this process, inside the checkout.
    pub work: PathBuf,
    /// Self-test only: corrupt one expected output so the checks must
    /// report failures.
    pub corrupt_expected: bool,
}

impl Ctx {
    /// A fresh RNG stream for one purpose of this run.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A `matic` command.
    pub fn matic(&self) -> Command {
        Command::new(&self.matic)
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (set-up and timed).
    pub attempted: u64,
    /// Operations whose output was wrong, that exited nonzero, returned an
    /// error envelope or timed out.
    pub failed: u64,
    /// Metric name → value; units come from the metric tables.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Values that must repeat bit-for-bit across runs of one seed.
    pub exact: BTreeMap<String, String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Known divergences between the reference interpreter and the
    /// compiler that this run met: a stimulus the interpreter rejects (an
    /// op's output could then be checked only against the in-process
    /// render), or a generated program the compiler rejects (left out of
    /// the set). Printed on every run; not counted as failures.
    pub divergences: BTreeSet<String>,
}

impl Report {
    /// Records one checked operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("matbench: FAILED {what}: {e}");
            }
        }
    }

    /// Records a stimulus without a reference output.
    pub fn diverge(&mut self, d: Option<String>) {
        self.divergences.extend(d);
    }

    /// Records a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a value that must repeat exactly for this seed.
    pub fn exact(&mut self, name: impl Into<String>, value: impl ToString) {
        self.exact.insert(name.into(), value.to_string());
    }
}

/// Latencies of the ops of one timed phase.
pub struct Timed {
    /// Host latency of each op, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Wall time of the phase.
    pub elapsed: Duration,
}

impl Timed {
    /// Sets `op_ms.mean`, `op_ms.p75` and `ops_per_s` for a single closed
    /// loop: throughput is ops over the summed op time, so the harness's
    /// own checking between ops does not count.
    pub fn report_single(&self, r: &mut Report) {
        let busy: f64 = self.lat_ms.iter().sum::<f64>() / 1e3;
        r.set("op_ms.mean", mean(&self.lat_ms));
        r.set("op_ms.p75", quantile(&self.lat_ms, 0.75));
        r.set("ops_per_s", self.lat_ms.len() as f64 / busy);
        r.notes
            .push(latency_note("timed ops", &self.lat_ms, self.elapsed));
    }
}

/// The `timed ops` line: sample count, window and quartiles of the
/// latencies, in milliseconds.
pub fn latency_note(what: &str, lat_ms: &[f64], elapsed: Duration) -> String {
    format!(
        "{what}: {} in {:.2} s; op_ms min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
        lat_ms.len(),
        elapsed.as_secs_f64(),
        quantile(lat_ms, 0.0),
        quantile(lat_ms, 0.25),
        quantile(lat_ms, 0.5),
        quantile(lat_ms, 0.75),
        quantile(lat_ms, 1.0),
    )
}

/// Runs `reps` set-up repetitions, checking each and collecting its time
/// in seconds. Workloads call it before the timed phase and again after
/// it, so the repetitions spread over the run and one slow stretch of the
/// host does not set `setup_s` (the median of all of them).
pub fn setup_reps(
    r: &mut Report,
    what: &str,
    reps: u64,
    setup: &mut impl FnMut(u64) -> (Duration, Result<(), String>),
    times: &mut Vec<f64>,
) {
    for j in 0..reps {
        let (dt, res) = setup(j);
        r.check(what, res);
        times.push(dt.as_secs_f64());
    }
}

/// Runs `op(i)` for i = 0, 1, … until `seconds` have passed (at least
/// once). `op` times itself and returns its latency with its checked
/// result, so output checks stay outside the measured interval.
pub fn timed_loop(
    seconds: f64,
    r: &mut Report,
    what: &str,
    mut op: impl FnMut(u64) -> (Duration, Result<(), String>),
) -> Timed {
    let start = Instant::now();
    let mut lat_ms = Vec::new();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let (dt, res) = op(i);
        lat_ms.push(dt.as_secs_f64() * 1e3);
        r.check(&format!("{what} op {i}"), res);
        i += 1;
    }
    Timed {
        lat_ms,
        elapsed: start.elapsed(),
    }
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Arithmetic mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs a command to completion, killing it if it outlives `timeout`.
/// Stdin is closed; stdout and stderr are captured.
pub fn run_cmd(cmd: &mut Command, timeout: Duration) -> Result<Output, String> {
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let (done, wait) = mpsc::channel::<()>();
    let out = std::thread::scope(|s| {
        s.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(timeout) {
                kill(pid);
            }
        });
        let out = child.wait_with_output();
        drop(done);
        out
    })
    .map_err(|e| format!("waiting for {cmd:?}: {e}"))?;
    Ok(out)
}

/// Checks a finished command: exit code 0, and its stdout returned.
pub fn success(out: &Output) -> Result<&[u8], String> {
    if out.status.success() {
        Ok(&out.stdout)
    } else {
        Err(format!(
            "exit {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// Sends SIGKILL to `pid` (used only on a child that has not been reaped).
pub fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// A child process that is killed and reaped when dropped.
pub struct Guard(pub Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn vm_hwm_mib(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM for {pid}"))?;
    Ok(kb / 1024.0)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of the largest child this process has waited for,
/// in MiB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_max_rss_mib() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a valid, writable `struct rusage` for 64-bit Linux,
    // which is all `getrusage` writes to.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    u.maxrss as f64 / 1024.0
}

/// Compares this run's exact values with those an earlier run recorded in
/// `dir` under the same `key` (workload, seed, mode and code identity),
/// then records any new ones.
///
/// # Errors
///
/// Names every value that changed between runs.
pub fn check_exact(dir: &Path, key: &str, exact: &BTreeMap<String, String>) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}.txt"));
    let mut known: BTreeMap<String, String> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let mut changed = Vec::new();
    for (k, v) in exact {
        match known.get(k) {
            Some(old) if old != v => changed.push(format!("{k}: {old} before, {v} now")),
            Some(_) => {}
            None => {
                known.insert(k.clone(), v.clone());
            }
        }
    }
    if !changed.is_empty() {
        return Err(format!(
            "exact metrics differ from an earlier run of {key}: {}",
            changed.join("; ")
        ));
    }
    let text: String = known.iter().map(|(k, v)| format!("{k}={v}\n")).collect();
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// FNV-1a of a byte string, for recording documents as exact values.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
