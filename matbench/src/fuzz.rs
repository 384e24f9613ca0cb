//! `fuzz-compile`: one op compiles one distinct generated program at both
//! optimization levels through `Compiler::compile_cached`, then simulates
//! both builds. Each pass over the drawn set starts from a fresh
//! `StageCache`, so front and codegen lookups miss and insert.

use crate::common::{geomean, median, setup_reps, time, timed_loop, vm_hwm_mib, Ctx, Report};
use crate::kernels::{check_outputs, interp};
use matic::{arg, CValue, CompileError, Compiler, IsaSpec, OptLevel, SimVal, StageCache, Ty};
use matic_benchkit::to_sim;
use matic_fuzz::{case_rng, gen_case, mutate_spec, Fault, SourceCase, ENTRY};
use matic_interp::ErrorKind;

/// Programs drawn per run.
pub const PROGRAMS: u64 = 1024;
/// Every `MUTATE_EVERY`-th program targets a mutated ISA, as in the fuzz
/// sweep, so codegen sees more than one target.
const MUTATE_EVERY: u64 = 4;
/// Statement budget per simulation. Generated terminating programs stay
/// far below it; a spinning program exhausts it, which is its expected
/// outcome. Kept well under the fuzz sweep's budget so the few spinning
/// programs do not turn a compile workload into a simulation one.
pub const FUEL: u64 = 5_000;
/// Seed of the fixed program set behind `opt_cycles.geomean` and the
/// set-up passes (the fuzz sweep's default seed).
const FIXED_SEED: u64 = 0xA51C;
/// Clean programs in the fixed set.
const FIXED_PROGRAMS: usize = 64;
/// Set-up passes before the timed phase, and as many again after it.
const SETUP_REPS: u64 = 8;
/// Ops in one set-up: a fresh cache, then the first programs of the fixed
/// seed. A fixed set, so that `setup_s` does not move with the run seed's
/// program mix.
const SETUP_OPS: usize = 256;

/// What a program must do on the simulator.
pub enum Expect {
    /// Terminate with these outputs.
    Values(Vec<CValue>),
    /// Fail with this error kind.
    Fault(ErrorKind),
}

/// One drawn program with its inputs and expected outcome.
pub struct Prog {
    pub case: SourceCase,
    pub spec: IsaSpec,
    pub tys: Vec<Ty>,
    pub inputs: Vec<SimVal>,
    pub expect: Expect,
}

/// Draws program `i` of the set seeded by `seed`, and its expected outcome
/// from the reference interpreter (which must agree with the outcome the
/// generator intended).
///
/// # Errors
///
/// Describes an interpreter result that contradicts the generator.
pub fn draw(seed: u64, i: u64) -> Result<Prog, String> {
    let mut rng = case_rng(seed, i);
    let case = gen_case(&mut rng).to_source();
    let spec = if (i + 1).is_multiple_of(MUTATE_EVERY) {
        mutate_spec(&mut rng)
    } else {
        IsaSpec::dsp16()
    };
    let inputs: Vec<SimVal> = matic_fuzz::legs::stimulus(&case)
        .iter()
        .map(to_sim)
        .collect();
    let reference = interp(&case.src, ENTRY, &inputs, Some(FUEL));
    let expect = match (case.fault, reference) {
        (Fault::None, Ok(v)) => Expect::Values(v),
        (Fault::OobRead, Err((ErrorKind::OutOfBounds, _))) => Expect::Fault(ErrorKind::OutOfBounds),
        (Fault::Spin, Err((ErrorKind::FuelExhausted, _))) => {
            Expect::Fault(ErrorKind::FuelExhausted)
        }
        (fault, got) => {
            return Err(format!(
                "program {i} of seed {seed}: generated as {fault:?}, interpreter gave {:?}",
                got.map(|_| "values")
            ))
        }
    };
    Ok(Prog {
        tys: vec![arg::vector(case.n), arg::vector(case.n), arg::scalar()],
        case,
        spec,
        inputs,
        expect,
    })
}

/// One build's simulation, or the compile error that prevented it.
pub type Run = Result<Result<matic::SimOutcome, matic::SimError>, String>;

/// Checks one simulation result against an expected outcome.
pub fn check(expect: &Expect, run: &Run) -> Result<(), String> {
    let out = run.as_ref().map_err(|e| format!("compile: {e}"))?;
    match (expect, out) {
        (Expect::Values(want), Ok(o)) => check_outputs(&o.outputs, want),
        (Expect::Fault(kind), Err(e)) if e.kind == *kind => Ok(()),
        (Expect::Fault(kind), Err(e)) => Err(format!("expected {kind:?}, got {:?}: {e}", e.kind)),
        (Expect::Fault(kind), Ok(_)) => Err(format!("expected {kind:?}, program terminated")),
        (Expect::Values(_), Err(e)) => Err(format!("unexpected error: {e}")),
    }
}

/// The op: compile at both levels through `cache`, simulate both builds.
fn op(p: &Prog, cache: &StageCache) -> Vec<Run> {
    [OptLevel::full(), OptLevel::baseline()]
        .into_iter()
        .map(|level| {
            Compiler::new()
                .target(p.spec.clone())
                .opt_level(level)
                .compile_cached(cache, &p.case.src, ENTRY, &p.tys)
                .map(|c| c.simulator().with_fuel(FUEL).run(p.inputs.clone()))
                .map_err(|e| e.to_string())
        })
        .collect()
}

fn check_all(p: &Prog, outs: &[Run]) -> Result<(), String> {
    outs.iter().try_for_each(|o| check(&p.expect, o))
}

/// `opt_cycles.geomean` over the fixed set: optimized cycles of the first
/// clean programs of the fixed seed, each on its drawn target.
fn fixed_geomean(r: &mut Report) -> Result<f64, String> {
    let mut cycles = Vec::new();
    let mut i = 0;
    while cycles.len() < FIXED_PROGRAMS {
        let p = draw(FIXED_SEED, i)?;
        i += 1;
        let Expect::Values(_) = p.expect else {
            continue;
        };
        let out = Compiler::new()
            .target(p.spec.clone())
            .compile(&p.case.src, ENTRY, &p.tys)
            .map(|c| c.simulator().with_fuel(FUEL).run(p.inputs.clone()))
            .map_err(|e| e.to_string());
        check(&p.expect, &out).map_err(|e| format!("fixed program {i}: {e}"))?;
        if let Ok(Ok(o)) = out {
            cycles.push(o.cycles.total as f64);
        }
    }
    let g = geomean(&cycles);
    r.exact("opt_cycles.geomean", format!("{g:.6}"));
    Ok(g)
}

/// The codegen rejection of a drawn program, if the compiler rejects it
/// at either level on its target.
fn codegen_rejection(p: &Prog) -> Option<String> {
    [OptLevel::full(), OptLevel::baseline()]
        .into_iter()
        .find_map(|level| {
            match Compiler::new()
                .target(p.spec.clone())
                .opt_level(level)
                .compile(&p.case.src, ENTRY, &p.tys)
            {
                Err(e @ CompileError::Codegen(_)) => Some(e.to_string()),
                _ => None,
            }
        })
}

/// Draws the first `count` programs of `seed` that the compiler accepts.
///
/// Now and then the grammar draws a program that the interpreter runs but
/// the C backend rejects (an open compiler defect). Such a program is left
/// out of the set and reported on every run as a divergence. Every other
/// outcome of the set is checked on every op.
fn programs_of(seed: u64, count: usize, r: &mut Report) -> Result<Vec<Prog>, String> {
    let mut progs = Vec::new();
    let mut i = 0;
    while progs.len() < count {
        let p = draw(seed, i)?;
        match codegen_rejection(&p) {
            Some(e) => r.diverge(Some(format!(
                "fuzz program {i} of seed {seed}: the interpreter runs it, the compiler \
                 rejects it ({e}); left out of the set"
            ))),
            None => progs.push(p),
        }
        i += 1;
    }
    Ok(progs)
}

/// Draws the run's program set: `PROGRAMS` programs of the run seed.
pub fn programs(ctx: &Ctx, r: &mut Report) -> Result<Vec<Prog>, String> {
    programs_of(ctx.seed, PROGRAMS as usize, r)
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let mut progs = programs(ctx, r)?;
    if ctx.corrupt_expected {
        let bad = progs
            .iter_mut()
            .find_map(|p| match &mut p.expect {
                Expect::Values(v) => v.first_mut(),
                Expect::Fault(_) => None,
            })
            .ok_or("no clean program to corrupt")?;
        bad.re[0] += 1.0;
    }
    let g = fixed_geomean(r)?;
    r.set("opt_cycles.geomean", g);
    let warm = programs_of(FIXED_SEED, SETUP_OPS, r)?;

    let mut setup_pass = |_| {
        let cache = StageCache::new();
        let (outs, dt) = time(|| warm.iter().map(|p| op(p, &cache)).collect::<Vec<_>>());
        let res = warm
            .iter()
            .zip(&outs)
            .try_for_each(|(p, o)| check_all(p, o));
        (dt, res)
    };
    let mut setup = Vec::new();
    setup_reps(
        r,
        "fuzz-compile set-up pass",
        SETUP_REPS,
        &mut setup_pass,
        &mut setup,
    );
    let mut cache = StageCache::new();
    let timed = timed_loop(ctx.seconds, r, "fuzz-compile", |i| {
        let p = &progs[(i % PROGRAMS) as usize];
        if i % PROGRAMS == 0 {
            cache = StageCache::new();
        }
        let (outs, dt) = time(|| op(p, &cache));
        (dt, check_all(p, &outs))
    });
    // The set-up passes after the timed phase must not find the timed
    // cache still held: how full it is depends on where the timed phase
    // stopped, and it would move `peak_rss_mb`.
    drop(cache);
    setup_reps(
        r,
        "fuzz-compile set-up pass",
        SETUP_REPS,
        &mut setup_pass,
        &mut setup,
    );
    r.set("setup_s", median(&setup));
    timed.report_single(r);
    r.set("peak_rss_mb", vm_hwm_mib("self")?);
    Ok(())
}
