//! `paper-suite`: one op computes what `matic cycles` prints for each
//! paper kernel at paper size, back to back, on the default (native)
//! engine: the CLI's own pipeline (read the source, compile at both
//! levels, simulate, render), called in this process. The `matic` binary
//! itself is run, untimed, on every kernel and stimulus seed of the run,
//! and its output checked byte for byte.

use crate::common::{
    children_max_rss_mib, geomean, median, run_cmd, setup_reps, success, time, timed_loop, Ctx,
    Report,
};
use crate::kernels::{self, Kernel, Pair};
use matic::reportfmt::{self, CyclesOptions};
use matic::IsaSpec;
use std::time::Duration;

/// Stimulus seed of the fixed set behind `opt_cycles.geomean` (the CLI's
/// default `--seed`).
const FIXED_STIM_SEED: u64 = 1;
/// Distinct stimulus seeds per run; op `i` uses seed `i % STIM_SEEDS`.
const STIM_SEEDS: usize = 4;
/// Set-ups before the timed phase, and as many again after it.
const SETUP_REPS: u64 = 4;
/// Ops in one set-up: six per stimulus seed, about half a second.
const WARM_UP_OPS: u64 = 24;
const CMD_TIMEOUT: Duration = Duration::from_secs(60);

/// The six kernels at the sizes of the paper's tables.
pub fn paper_kernels(ctx: &Ctx) -> Result<Vec<Kernel>, String> {
    kernels::load(&ctx.root, |b| b.default_n)
}

/// Stimulus seeds of one run: the fixed seed, then draws from the run seed.
pub fn stim_seeds(ctx: &Ctx) -> Vec<u64> {
    let mut rng = ctx.rng(1);
    let mut seeds = vec![FIXED_STIM_SEED];
    seeds.extend((1..STIM_SEEDS).map(|_| 2 + rng.below(1 << 20)));
    seeds
}

/// What `matic cycles <kernel> --seed <seed>` prints, computed the way
/// the CLI computes it: the source read from disk, an optimized and a
/// baseline compile for the default target, both simulated, the report
/// rendered.
fn cycles_text(ctx: &Ctx, k: &Kernel, seed: u64) -> Result<String, String> {
    let src = std::fs::read_to_string(ctx.root.join(&k.file))
        .map_err(|e| format!("cannot read {}: {e}", k.file))?;
    let Pair { opt, base } = Pair::compile_src(k, &src, &IsaSpec::dsp16())?;
    let opts = CyclesOptions {
        seed,
        ..CyclesOptions::default()
    };
    let run = reportfmt::run_cycles(&base, &opt, &k.tys, &opts)
        .map_err(|e| format!("{} seed {seed}: {e}", k.id))?;
    Ok(reportfmt::render_cycles(&run, &opt, &src, k.entry, false))
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let kernels = paper_kernels(ctx)?;
    let seeds = stim_seeds(ctx);
    // expected[k][s]: the report `matic cycles` must print, computed in
    // process after checking the simulator against the interpreter, or why
    // that check failed; then every op fails.
    let mut expected = Vec::new();
    let mut fixed_cycles = Vec::new();
    for k in &kernels {
        let pair = Pair::compile(k, &IsaSpec::dsp16())?;
        let mut texts = Vec::new();
        for &s in &seeds {
            texts.push(pair.expected_cycles(k, s).map(|e| {
                if s == FIXED_STIM_SEED {
                    fixed_cycles.push(e.opt_cycles as f64);
                    r.exact(format!("opt_cycles.{}", k.id), e.opt_cycles);
                }
                r.diverge(e.divergence);
                e.text
            }));
        }
        expected.push(texts);
    }
    if ctx.corrupt_expected {
        if let Ok(t) = &mut expected[0][0] {
            t.push('!');
        }
    }
    let cycles_geomean = geomean(&fixed_cycles);
    r.exact("opt_cycles.geomean", format!("{cycles_geomean:.6}"));
    r.set("opt_cycles.geomean", cycles_geomean);

    let want = |k: &Kernel, ki: usize, s: usize| {
        expected[ki][s]
            .as_ref()
            .map_err(|e| format!("{} seed {}: no reference report: {e}", k.id, seeds[s]))
    };

    // The CLI on every kernel and stimulus seed of the run, untimed:
    // starting a process costs a few ms that swing with the host's load
    // (`cli.start_ms` in the traced run), and would bury the compile and
    // simulation work this workload is here to measure.
    for (ki, k) in kernels.iter().enumerate() {
        for (s, seed) in seeds.iter().enumerate() {
            let out = run_cmd(
                ctx.matic()
                    .args(["cycles", &k.file, "--entry", k.entry, "--sig", &k.sig])
                    .args(["--seed", &seed.to_string()]),
                CMD_TIMEOUT,
            );
            let check = || {
                let out = out?;
                let stdout = success(&out).map_err(|e| format!("{}: {e}", k.id))?;
                if stdout != want(k, ki, s)?.as_bytes() {
                    return Err(format!(
                        "{} seed {seed}: `matic cycles` differs from the in-process render",
                        k.id
                    ));
                }
                Ok(())
            };
            r.check("paper-suite matic cycles", check());
        }
    }

    let op = |i: u64| {
        let s = i as usize % seeds.len();
        let (outs, dt) = time(|| {
            kernels
                .iter()
                .map(|k| cycles_text(ctx, k, seeds[s]))
                .collect::<Vec<_>>()
        });
        let check = || {
            for (ki, (k, out)) in kernels.iter().zip(outs).enumerate() {
                if out? != *want(k, ki, s)? {
                    return Err(format!(
                        "{} seed {}: report differs from the reference render",
                        k.id, seeds[s]
                    ));
                }
            }
            Ok(())
        };
        (dt, check())
    };

    // Nothing outlives an op (every op compiles afresh), so a set-up is a
    // warm-up pass of ops over every stimulus seed; the first pass holds
    // the process's cold start. The host's speed swings between two
    // levels about 1.6x apart, each held for a fraction of a second to
    // seconds; a single op sits at one level or the other, while a pass
    // of half a second averages over the shorter swings.
    let mut warm_up = |_| {
        let mut total = Duration::ZERO;
        let mut res = Ok(());
        for i in 0..WARM_UP_OPS {
            let (dt, checked) = op(i);
            total += dt;
            res = res.and(checked);
        }
        (total, res)
    };
    let mut setup = Vec::new();
    setup_reps(
        r,
        "paper-suite warm-up pass",
        SETUP_REPS,
        &mut warm_up,
        &mut setup,
    );
    let timed = timed_loop(ctx.seconds, r, "paper-suite", &op);
    setup_reps(
        r,
        "paper-suite warm-up pass",
        SETUP_REPS,
        &mut warm_up,
        &mut setup,
    );
    r.set("setup_s", median(&setup));
    timed.report_single(r);
    r.set("peak_rss_mb", children_max_rss_mib());
    Ok(())
}
