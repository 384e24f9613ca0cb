//! The paper's six kernels as the CLI sees them, and the in-process
//! references their outputs are checked against.

use matic::reportfmt::{self, CyclesOptions};
use matic::{CValue, Class, Compiled, Compiler, Interpreter, IsaSpec, OptLevel, SimVal, Ty};
use matic_benchkit::{outputs_close, sim_to_cvalue, to_interp, Benchmark, SUITE};
use matic_interp::ErrorKind;
use std::path::Path;

/// Relative tolerance for simulator-vs-interpreter agreement.
pub const TOL: f64 = 1e-9;

/// One kernel at one problem size.
pub struct Kernel {
    /// Benchmark id (`fir`, …).
    pub id: &'static str,
    /// Entry function.
    pub entry: &'static str,
    /// Problem size.
    pub n: usize,
    /// Source path relative to the checkout root, as passed to `matic`.
    pub file: String,
    /// Source text read from that path.
    pub src: String,
    /// `--sig` spelling of the entry signature.
    pub sig: String,
    /// The entry signature.
    pub tys: Vec<Ty>,
}

/// Loads the six kernels from `benchmarks/*.m`, at the size `n_of` picks.
///
/// # Errors
///
/// Fails when a source file is missing.
pub fn load(root: &Path, n_of: impl Fn(&Benchmark) -> usize) -> Result<Vec<Kernel>, String> {
    SUITE
        .iter()
        .map(|b| {
            let file = format!("benchmarks/{}.m", b.id);
            let src = std::fs::read_to_string(root.join(&file))
                .map_err(|e| format!("cannot read {file}: {e}"))?;
            let n = n_of(b);
            let tys = b.arg_types(n);
            let sig = sig_string(&tys);
            if reportfmt::parse_sig(&sig)? != tys {
                return Err(format!("{}: signature `{sig}` does not round-trip", b.id));
            }
            Ok(Kernel {
                id: b.id,
                entry: b.entry,
                n,
                file,
                src,
                sig,
                tys,
            })
        })
        .collect()
}

/// Spells a signature the way `--sig` reads it.
pub fn sig_string(tys: &[Ty]) -> String {
    tys.iter()
        .map(|t| {
            let cx = if t.class == Class::Complex { "c" } else { "" };
            let rows = t.shape.rows.known().unwrap_or(1);
            let cols = t.shape.cols.known().unwrap_or(1);
            if t.shape.is_scalar() {
                format!("{cx}s")
            } else if rows == 1 {
                format!("{cx}v{cols}")
            } else {
                format!("m{rows}x{cols}")
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs `entry` of `src` on the reference interpreter.
///
/// # Errors
///
/// Returns the interpreter's error kind and message; an output the
/// harness cannot convert is a trap.
pub fn interp(
    src: &str,
    entry: &str,
    inputs: &[SimVal],
    fuel: Option<u64>,
) -> Result<Vec<CValue>, (ErrorKind, String)> {
    let fail = |e: matic::RuntimeError| (e.kind, e.to_string());
    let mut it = Interpreter::from_source(src).map_err(fail)?;
    if let Some(f) = fuel {
        it.set_fuel(f);
    }
    let args = inputs
        .iter()
        .map(|v| to_interp(&sim_to_cvalue(v)))
        .collect();
    let outs = it.call(entry, args, 1).map_err(fail)?;
    outs.iter()
        .map(|v| matic_benchkit::from_interp(v).map_err(|e| (ErrorKind::Trap, e)))
        .collect()
}

/// Checks simulator outputs against reference outputs.
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_outputs(actual: &[SimVal], expected: &[CValue]) -> Result<(), String> {
    if actual.len() != expected.len() {
        return Err(format!(
            "{} outputs, expected {}",
            actual.len(),
            expected.len()
        ));
    }
    actual
        .iter()
        .zip(expected)
        .try_for_each(|(a, e)| outputs_close(&sim_to_cvalue(a), e, TOL))
}

/// The optimized and baseline compilations `matic cycles` makes.
pub struct Pair {
    /// Full optimization.
    pub opt: Compiled,
    /// The scalar baseline.
    pub base: Compiled,
}

impl Pair {
    /// Compiles `k` for `spec` at both levels.
    ///
    /// # Errors
    ///
    /// Propagates compile errors.
    pub fn compile(k: &Kernel, spec: &IsaSpec) -> Result<Pair, String> {
        Pair::compile_src(k, &k.src, spec)
    }

    /// Compiles `src` as kernel `k` for `spec` at both levels, optimized
    /// first, as `matic cycles` does.
    ///
    /// # Errors
    ///
    /// Propagates compile errors.
    pub fn compile_src(k: &Kernel, src: &str, spec: &IsaSpec) -> Result<Pair, String> {
        let at = |level| {
            Compiler::new()
                .target(spec.clone())
                .opt_level(level)
                .compile(src, k.entry, &k.tys)
                .map_err(|e| format!("{}: {e}", k.id))
        };
        Ok(Pair {
            opt: at(OptLevel::full())?,
            base: at(OptLevel::baseline())?,
        })
    }

    /// The exact text `matic cycles --seed <seed>` prints for this pair,
    /// and the optimized cycle count. Both simulated runs are first
    /// checked against the reference interpreter.
    ///
    /// One interpreter error is exempt: the CLI synthesizes a non-integer
    /// `maxlag` for xcorr, which the interpreter refuses as a size
    /// (`expected nonnegative integer`) and the simulator accepts. Then
    /// there is no reference to compare with, and the rejection is
    /// returned as a divergence for the caller to report, never silently
    /// dropped.
    ///
    /// # Errors
    ///
    /// Describes a simulator failure, an output mismatch or any other
    /// interpreter error.
    pub fn expected_cycles(&self, k: &Kernel, seed: u64) -> Result<Expected, String> {
        let opts = CyclesOptions {
            seed,
            ..CyclesOptions::default()
        };
        let run = reportfmt::run_cycles(&self.base, &self.opt, &k.tys, &opts)
            .map_err(|e| format!("{} seed {seed}: {e}", k.id))?;
        let inputs = reportfmt::synth_inputs(&k.tys, seed);
        let divergence = match interp(&k.src, k.entry, &inputs, None) {
            Ok(reference) => {
                for (level, out) in [("baseline", &run.baseline), ("optimized", &run.optimized)] {
                    check_outputs(&out.outputs, &reference)
                        .map_err(|e| format!("{} seed {seed} {level}: {e}", k.id))?;
                }
                None
            }
            Err((_, e)) if is_xcorr_maxlag_rejection(k, &inputs, &e) => {
                let agree = check_outputs(
                    &run.baseline.outputs,
                    &run.optimized
                        .outputs
                        .iter()
                        .map(sim_to_cvalue)
                        .collect::<Vec<_>>(),
                )
                .is_ok();
                Some(format!(
                    "{} seed {seed}: the reference interpreter rejects the stimulus ({e}); \
                     the simulator accepts it, and its baseline and optimized outputs {}",
                    k.id,
                    if agree { "agree" } else { "disagree" }
                ))
            }
            Err((kind, e)) => {
                return Err(format!(
                    "{} seed {seed}: the reference interpreter failed ({kind:?}): {e}",
                    k.id
                ))
            }
        };
        Ok(Expected {
            text: reportfmt::render_cycles(&run, &self.opt, &k.src, k.entry, false),
            opt_cycles: run.optimized.cycles.total,
            divergence,
        })
    }
}

/// The one interpreter rejection [`Pair::expected_cycles`] exempts: xcorr
/// whose `maxlag` stimulus is not an integer, refused as a size.
fn is_xcorr_maxlag_rejection(k: &Kernel, inputs: &[SimVal], err: &str) -> bool {
    let non_integer_maxlag = matches!(
        inputs.last(),
        Some(SimVal::Scalar(c)) if c.re.fract() != 0.0
    );
    k.id == "xcorr" && non_integer_maxlag && err.contains("expected nonnegative integer")
}

/// What `matic cycles` must print for one kernel and stimulus seed.
pub struct Expected {
    /// The report text.
    pub text: String,
    /// Optimized cycles.
    pub opt_cycles: u64,
    /// Set when the stimulus has no reference output (see
    /// [`Pair::expected_cycles`]).
    pub divergence: Option<String>,
}
