//! The traced run (`--trace 1`): per-layer figures for one workload.
//!
//! The harness records its own spans around each call into a layer's
//! public entry point (the program itself is not instrumented):
//!
//! * **Layer sweep** — the workload's programs go through the pipeline
//!   one public call at a time (`matic::parse`, `matic_sema::analyze`,
//!   `matic_mir::{lower_program, optimize_program, inline_program}`,
//!   `matic_vectorize::vectorize_program`, `CBackend::generate`,
//!   `decode_program`, `fuse_program`, `Simulator::run`), repeated until
//!   the run's time is up; each figure is the median over sweeps of the
//!   mean per program. The emitted C must equal what `Compiler::compile`
//!   emits, and every simulation is checked against the reference.
//! * **Cache replay** — the workload's compile stream through
//!   `Compiler::compile_cached`.
//! * **Serve replay** — the workload's requests through
//!   `ServeState::handle` in process and through a `matic serve`
//!   subprocess; the JSON codec is timed on the same documents.
//! * **DSE, CLI start and host `cc`** — `explore` and `discover` in
//!   process, `matic targets`, and the emitted C compiled and run.

use crate::common::{mean, median, ms, run_cmd, success, time, us, Ctx, Report};
use crate::dse::Committed;
use crate::fuzz::{self, Expect};
use crate::kernels::{interp, sig_string, Kernel, Pair, TOL};
use crate::serve::{self, Req, Server};
use crate::Workload;
use matic::reportfmt::DEFAULT_MAX_CYCLES;
use matic::{AsipMachine, CacheStats, Compiler, Engine, IsaSpec, OptLevel, SimVal, StageCache, Ty};
use matic_benchkit::{outputs_close, sim_to_cvalue, to_sim};
use matic_codegen::{write_module, CBackend, CValue, CodegenOptions, Harness};
use matic_discover::{discover, DiscoverConfig};
use matic_explore::{explore, ExploreConfig, GridConfig};
use matic_isa::json::{parse, Json};
use matic_serve::{Budgets, ServeState};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One program of the layer sweep and how the workload uses it.
pub struct Item {
    label: String,
    src: String,
    entry: String,
    tys: Vec<Ty>,
    inputs: Vec<SimVal>,
    expect: Expect,
    /// Optimization levels it is compiled at.
    levels: Vec<OptLevel>,
    /// Targets C is emitted for, per level.
    codegen_specs: Vec<Arc<IsaSpec>>,
    /// Targets it is simulated on, per level (one decode and fusion
    /// serves them all).
    sim_specs: Vec<Arc<IsaSpec>>,
    fuel: u64,
}

/// What the traced run of one workload replays.
struct Plan {
    items: Vec<Item>,
    /// `(item, target, level)` compile calls, in workload order.
    stream: Vec<(usize, Arc<IsaSpec>, OptLevel)>,
    /// Calls that share one stage cache before it is replaced.
    fresh_every: usize,
    requests: Vec<Req>,
}

/// Requests sent over the wire in a serve replay (each costs a full
/// round trip).
const WIRE_REQUESTS: usize = 32;
/// Fuzz programs whose `compile` requests the serve replay sends.
const FUZZ_REQUESTS: usize = 16;

const PARSE: usize = 0;
const SEMA: usize = 1;
const LOWER: usize = 2;
const OPTIMIZE: usize = 3;
const INLINE: usize = 4;
const VECTORIZE: usize = 5;
const CODEGEN: usize = 6;
const DECODE: usize = 7;
const FUSE: usize = 8;
const NATIVE: usize = 9;

/// Per-program layer metrics, indexed by the constants above.
const LAYER_METRICS: [&str; 9] = [
    "frontend.parse_us",
    "sema.analyze_us",
    "mir.lower_us",
    "mir.optimize_us",
    "mir.inline_us",
    "vectorize.us",
    "codegen.emit_us",
    "asip.decode_us",
    "asip.fuse_us",
];

/// Totals of one sweep over the items.
#[derive(Default)]
struct Sweep {
    t: [Duration; 10],
    /// Item time, oracle (tree) runs and checks excluded.
    wall: Duration,
    /// Simulation time of runs that terminated, whose instructions are
    /// counted (a fuel-exhausted run reports none).
    native_ok: Duration,
    tree_ok: Duration,
    /// Native simulation time per `(item, sim target)`, both levels.
    sim_by: BTreeMap<(usize, usize), Duration>,
    native_insts: u64,
    tree_insts: u64,
    counts: Counts,
}

/// Exact counts of one sweep.
#[derive(Default, Clone, PartialEq, Debug)]
struct Counts {
    insts_opt: u64,
    cycles_opt: u64,
    cycles_base: u64,
    loops_accepted: u64,
    c_bytes: u64,
}

/// A kernel of the layer sweep, fed the evaluation's stimulus for its
/// size (`Benchmark::inputs`, as `explore` uses). The CLI's synthesized
/// stimulus gives xcorr a non-integer `maxlag` with no reference output
/// (see `Pair::expected_cycles`); that path is still timed and checked by
/// the serve replay.
fn kernel_item(
    k: &Kernel,
    stim_seed: u64,
    levels: Vec<OptLevel>,
    codegen_specs: Vec<Arc<IsaSpec>>,
    sim_specs: Vec<Arc<IsaSpec>>,
    fuel: u64,
) -> Result<Item, String> {
    let b = matic_benchkit::benchmark(k.id).ok_or_else(|| format!("unknown kernel {}", k.id))?;
    let inputs: Vec<SimVal> = b.inputs(k.n, stim_seed).iter().map(to_sim).collect();
    let reference = interp(&k.src, k.entry, &inputs, Some(fuel))
        .map_err(|(_, e)| format!("{}: interpreter: {e}", k.id))?;
    Ok(Item {
        label: k.id.to_string(),
        src: k.src.clone(),
        entry: k.entry.to_string(),
        tys: k.tys.clone(),
        inputs,
        expect: Expect::Values(reference),
        levels,
        codegen_specs,
        sim_specs,
        fuel,
    })
}

fn both() -> Vec<OptLevel> {
    vec![OptLevel::full(), OptLevel::baseline()]
}

fn plan(ctx: &Ctx, wl: Workload, r: &mut Report) -> Result<Plan, String> {
    let dsp16 = Arc::new(IsaSpec::dsp16());
    let mut items = Vec::new();
    let mut stream = Vec::new();
    let mut requests = Vec::new();
    let fresh_every;
    match wl {
        Workload::PaperSuite => {
            // One op: `matic cycles` per kernel, each a fresh process.
            for k in crate::paper::paper_kernels(ctx)? {
                let i = items.len();
                items.push(kernel_item(
                    &k,
                    1,
                    both(),
                    vec![dsp16.clone()],
                    vec![dsp16.clone()],
                    DEFAULT_MAX_CYCLES,
                )?);
                stream.extend(both().into_iter().map(|l| (i, dsp16.clone(), l)));
                let text = Pair::compile(&k, &dsp16)?.expected_cycles(&k, 1).map(|e| {
                    r.diverge(e.divergence);
                    e.text
                });
                requests.push(serve::cycles_request(&k, &dsp16, 1, text, (i, 0)));
            }
            fresh_every = 2 * items.len();
        }
        Workload::FuzzCompile => {
            for (i, p) in fuzz::programs(ctx, r)?.into_iter().enumerate() {
                let spec = Arc::new(p.spec.clone());
                stream.extend(both().into_iter().map(|l| (i, spec.clone(), l)));
                let sig = sig_string(&p.tys);
                if i < FUZZ_REQUESTS {
                    for (baseline, level) in
                        [(false, OptLevel::full()), (true, OptLevel::baseline())]
                    {
                        let c = Compiler::new()
                            .target(p.spec.clone())
                            .opt_level(level)
                            .compile(&p.case.src, matic_fuzz::ENTRY, &p.tys)
                            .map_err(|e| format!("program {i}: {e}"))?;
                        requests.push(Req {
                            label: format!("compile program {i} baseline={baseline}"),
                            json: serve::compile_request(
                                (&p.case.src, matic_fuzz::ENTRY, &sig),
                                &p.spec,
                                baseline,
                            ),
                            field: "c",
                            expected: Ok(c.c.source.clone()),
                            sim: None,
                        });
                    }
                }
                items.push(Item {
                    label: format!("program {i}"),
                    src: p.case.src,
                    entry: matic_fuzz::ENTRY.to_string(),
                    tys: p.tys,
                    inputs: p.inputs,
                    expect: p.expect,
                    levels: both(),
                    codegen_specs: vec![spec.clone()],
                    sim_specs: vec![spec],
                    fuel: fuzz::FUEL,
                });
            }
            // Each pass over the set starts from a fresh cache.
            fresh_every = stream.len();
        }
        Workload::ServeMixed => {
            let specs: Vec<Arc<IsaSpec>> = serve::specs().into_iter().map(Arc::new).collect();
            for k in serve::small_kernels(ctx)? {
                let i = items.len();
                items.push(kernel_item(
                    &k,
                    1,
                    both(),
                    specs.clone(),
                    specs.clone(),
                    DEFAULT_MAX_CYCLES,
                )?);
                for s in &specs {
                    stream.extend(both().into_iter().map(|l| (i, s.clone(), l)));
                }
            }
            // One server-wide cache.
            fresh_every = usize::MAX;
            let set = serve::requests(ctx)?;
            requests = set.reqs;
            for d in set.divergences {
                r.diverge(Some(d));
            }
        }
        Workload::Dse => {
            // Compile once, simulate on every grid candidate, as explore does.
            let cfg = ExploreConfig::default();
            let grid: Vec<Arc<IsaSpec>> = matic_explore::grid::enumerate(&GridConfig::default())?
                .into_iter()
                .map(|c| Arc::new(c.spec))
                .collect();
            for k in serve::small_kernels(ctx)? {
                let i = items.len();
                items.push(kernel_item(
                    &k,
                    cfg.seed,
                    vec![OptLevel::full()],
                    vec![dsp16.clone()],
                    grid.clone(),
                    cfg.fuel,
                )?);
                // Discover retargets through a shared stage cache.
                stream.extend(grid.iter().map(|s| (i, s.clone(), OptLevel::full())));
            }
            fresh_every = usize::MAX;
            let committed = Committed::load(ctx)?;
            requests.push(Req {
                label: "explore (default grid)".into(),
                json: Json::Obj(vec![("op".into(), Json::Str("explore".into()))]),
                field: "frontier",
                expected: Ok(committed.frontier.trim_end().to_string()),
                sim: None,
            });
        }
    }
    Ok(Plan {
        items,
        stream,
        fresh_every,
        requests,
    })
}

/// Runs one item through every layer, adding to `s`. Outputs are checked
/// after the item's time is taken; with `verify_c`, the emitted C is also
/// compared with `Compiler::compile`'s.
fn sweep_item(i: usize, it: &Item, s: &mut Sweep, verify_c: bool) -> Result<(), String> {
    let t_item = Instant::now();
    let mut tree = Duration::ZERO;
    let mut outs = Vec::new();
    let mut c_sources = Vec::new();
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", it.label);
    for &level in &it.levels {
        let ((program, diags), d) = time(|| matic::parse(&it.src));
        s.t[PARSE] += d;
        if let Some(e) = diags.first_error() {
            return Err(err("parse", e));
        }
        let (analysis, d) = time(|| matic_sema::analyze(&program, &it.entry, &it.tys));
        s.t[SEMA] += d;
        if let Some(e) = analysis.diags.first_error() {
            return Err(err("sema", e));
        }
        let ((mut mir, diags), d) = time(|| matic_mir::lower_program(&program, &analysis));
        s.t[LOWER] += d;
        if let Some(e) = diags.first_error() {
            return Err(err("lower", e));
        }
        if level.scalar_opts {
            s.t[OPTIMIZE] += time(|| matic_mir::optimize_program(&mut mir)).1;
        }
        if level.inline {
            s.t[INLINE] += time(|| {
                matic_mir::inline_program(&mut mir, matic_mir::DEFAULT_INLINE_LIMIT);
                if level.scalar_opts {
                    matic_mir::optimize_program(&mut mir);
                }
            })
            .1;
        }
        if level.vectorize {
            let (rep, d) = time(|| matic_vectorize::vectorize_program(&mut mir));
            s.t[VECTORIZE] += d;
            s.counts.loops_accepted +=
                (rep.loops.maps + rep.loops.macs + rep.loops.reductions) as u64;
        }
        for spec in &it.codegen_specs {
            let backend = CBackend::new(
                (**spec).clone(),
                CodegenOptions {
                    use_intrinsics: level.intrinsics,
                },
            );
            let (c, d) = time(|| backend.generate(&mir));
            s.t[CODEGEN] += d;
            let c = c.map_err(|e| err("codegen", &e))?;
            s.counts.c_bytes += c.source.len() as u64;
            if verify_c {
                c_sources.push((spec.clone(), level, c.source));
            }
        }
        let (decoded, d) = time(|| Arc::new(matic_asip::decode_program(&mir)));
        s.t[DECODE] += d;
        let (native, d) = time(|| Arc::new(matic_asip::fuse_program(&mir, &decoded)));
        s.t[FUSE] += d;
        for (n, spec) in it.sim_specs.iter().enumerate() {
            let mut machine = AsipMachine::from_shared(spec.clone()).with_fuel(it.fuel);
            if !level.intrinsics {
                machine = machine.without_intrinsics();
            }
            let sim = machine
                .load_decoded(&mir, Arc::clone(&decoded), &it.entry)
                .with_native(Arc::clone(&native))
                .with_engine(Engine::Native);
            let inputs = it.inputs.clone();
            let (out, d) = time(|| sim.run(inputs));
            s.t[NATIVE] += d;
            *s.sim_by.entry((i, n)).or_default() += d;
            if let Ok(o) = &out {
                s.native_ok += d;
                s.native_insts += o.cycles.instructions;
                if n == 0 && level == OptLevel::full() {
                    s.counts.cycles_opt += o.cycles.total;
                    s.counts.insts_opt += o.cycles.instructions;
                } else if n == 0 {
                    s.counts.cycles_base += o.cycles.total;
                }
            }
            outs.push(out);
        }
        if level == OptLevel::full() {
            // The reference engine, for its per-instruction cost; not part
            // of the workload's op.
            let machine = AsipMachine::from_shared(it.sim_specs[0].clone()).with_fuel(it.fuel);
            let inputs = it.inputs.clone();
            let (out, d) = time(|| machine.run_interpreted(&mir, &it.entry, inputs));
            tree += d;
            if let Ok(o) = &out {
                s.tree_ok += d;
                s.tree_insts += o.cycles.instructions;
            }
            outs.push(out);
        }
    }
    s.wall += t_item.elapsed() - tree;
    for out in outs {
        let run: fuzz::Run = Ok(out);
        fuzz::check(&it.expect, &run).map_err(|e| err("simulation", &e))?;
    }
    for (spec, level, src) in c_sources {
        let want = Compiler::new()
            .target((*spec).clone())
            .opt_level(level)
            .compile(&it.src, &it.entry, &it.tys)
            .map_err(|e| err("compile", &e))?;
        if want.c.source != src {
            return Err(err(
                "codegen",
                &"layer-by-layer C differs from Compiler::compile",
            ));
        }
    }
    Ok(())
}

/// Hit ratio of one stage (0 when the stage saw no lookups).
fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn add_stats(a: &mut CacheStats, b: CacheStats) {
    a.parse_hits += b.parse_hits;
    a.parse_misses += b.parse_misses;
    a.front_hits += b.front_hits;
    a.front_misses += b.front_misses;
    a.codegen_hits += b.codegen_hits;
    a.codegen_misses += b.codegen_misses;
    a.exec_hits += b.exec_hits;
    a.exec_misses += b.exec_misses;
    a.parse_entries = a.parse_entries.max(b.parse_entries);
    a.front_entries = a.front_entries.max(b.front_entries);
    a.codegen_entries = a.codegen_entries.max(b.codegen_entries);
    a.evictions += b.evictions;
}

/// Replays the compile stream: first through caches replaced every
/// `fresh_every` calls (the workload's own pattern), then once more
/// through a cache already holding the whole stream.
fn cache_replay(p: &Plan, r: &mut Report) -> (Vec<f64>, Vec<f64>, CacheStats) {
    let compile = |cache: &StageCache, (i, spec, level): &(usize, Arc<IsaSpec>, OptLevel)| {
        let it = &p.items[*i];
        let (res, d) = time(|| {
            Compiler::new()
                .target((**spec).clone())
                .opt_level(*level)
                .compile_cached(cache, &it.src, &it.entry, &it.tys)
        });
        (res.map(|_| ()).map_err(|e| format!("{}: {e}", it.label)), d)
    };
    let mut stats = CacheStats::default();
    let mut miss = Vec::new();
    let mut cache = StageCache::new();
    for (n, call) in p.stream.iter().enumerate() {
        if n > 0 && n % p.fresh_every == 0 {
            add_stats(&mut stats, cache.stats());
            cache = StageCache::new();
        }
        let before = cache.stats().front_misses;
        let (res, d) = compile(&cache, call);
        r.check("cache replay compile", res);
        if cache.stats().front_misses > before {
            miss.push(us(d));
        }
    }
    add_stats(&mut stats, cache.stats());
    let warm = StageCache::new();
    for call in &p.stream {
        let _ = compile(&warm, call);
    }
    let hit = p
        .stream
        .iter()
        .map(|call| {
            let (res, d) = compile(&warm, call);
            r.check("cache replay warm compile", res);
            us(d)
        })
        .collect();
    (miss, hit, stats)
}

/// What the serve replay leaves for the run's summary.
struct ServeReplay<'p> {
    /// The in-process server's cache counters.
    stats: CacheStats,
    /// The requests sent over the wire, with their round-trip times (us).
    wire: Vec<(&'p Req, f64)>,
}

/// Serve replay: the requests in process (a fill pass, then a timed one),
/// the JSON codec on the same documents, and the same two passes through
/// a `matic serve` subprocess.
fn serve_replay<'p>(ctx: &Ctx, p: &'p Plan, r: &mut Report) -> Result<ServeReplay<'p>, String> {
    let state = ServeState::new(Budgets::default());
    for q in &p.requests {
        r.check("in-process fill", q.check_json(&state.handle(&q.json)));
    }
    let (mut handle, mut enc, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for q in &p.requests {
        let (resp, d) = time(|| state.handle(&q.json));
        handle.push(us(d));
        r.check("in-process request", q.check_json(&resp));
        let (req_text, d1) = time(|| q.json.pretty());
        let (resp_text, d2) = time(|| resp.pretty());
        enc.push(us(d1 + d2));
        let (a, d3) = time(|| parse(&req_text));
        let (b, d4) = time(|| parse(&resp_text));
        dec.push(us(d3 + d4));
        let round_trip = a.is_ok_and(|a| a == q.json) && b.is_ok_and(|b| b == resp);
        r.check(
            "json round trip",
            if round_trip {
                Ok(())
            } else {
                Err("documents do not round-trip".into())
            },
        );
    }
    // Every request is slow on the wire, so a spread subset goes there.
    let step = p.requests.len().div_ceil(WIRE_REQUESTS);
    let wire: Vec<(&Req, f64)> = p.requests.iter().zip(handle).step_by(step).collect();
    let server = Server::start(ctx, 1)?;
    serve::send_all(&server, wire.iter().map(|(q, _)| *q), r, "wire fill")?;
    let rtt = serve::send_all(&server, wire.iter().map(|(q, _)| *q), r, "wire request")?;
    let handle: Vec<f64> = wire.iter().map(|(_, h)| *h).collect();
    let rtt: Vec<f64> = rtt.into_iter().map(us).collect();
    r.set("serve.handle_us", mean(&handle));
    r.set("serve.wire_us", mean(&rtt) - mean(&handle));
    r.set("json.encode_us", mean(&enc));
    r.set("json.decode_us", mean(&dec));
    Ok(ServeReplay {
        stats: state.cache().stats(),
        wire: wire
            .into_iter()
            .zip(rtt)
            .map(|((q, _), t)| (q, t))
            .collect(),
    })
}

/// `explore` then `discover` in process, at the committed seeds; both
/// documents must match the committed ones.
fn dse_probe(ctx: &Ctx, r: &mut Report) -> Result<CacheStats, String> {
    let committed = Committed::load(ctx)?;
    let (ex, d_ex) = time(|| explore(&ExploreConfig::default()));
    let ex = ex?;
    let mut frontier = ex.to_json().pretty();
    frontier.push('\n');
    let (dis, d_dis) = time(|| discover(&DiscoverConfig::new(&frontier)));
    let dis = dis?;
    let mut report = dis.to_json().pretty();
    report.push('\n');
    let same = |a: &str, b: &str, what: &str| {
        if a == b {
            Ok(())
        } else {
            Err(format!(
                "in-process {what} differs from the committed document"
            ))
        }
    };
    r.check(
        "in-process explore",
        same(&frontier, &committed.frontier, "explore"),
    );
    r.check(
        "in-process discover",
        same(&report, &committed.report, "discover"),
    );
    let evals = (ex.benches.len() * ex.candidates.len()
        + dis.benches.iter().map(|b| b.evals).sum::<usize>()) as f64;
    r.set("dse.explore_ms", ms(d_ex));
    r.set("dse.discover_ms", ms(d_dis));
    r.set("dse.evals", evals);
    r.set("dse.us_per_eval", us(d_ex + d_dis) / evals);
    r.exact("dse.evals", evals);
    Ok(dis.cache)
}

/// Median start-to-exit time of a trivial `matic targets`.
fn cli_start(ctx: &Ctx, r: &mut Report) -> f64 {
    let runs: Vec<f64> = (0..20)
        .map(|_| {
            let (out, d) = time(|| run_cmd(ctx.matic().arg("targets"), Duration::from_secs(10)));
            let ok = out.and_then(|o| {
                let stdout = success(&o)?;
                if stdout.starts_with(b"builtin targets") {
                    Ok(())
                } else {
                    Err("unexpected `matic targets` output".into())
                }
            });
            r.check("matic targets", ok);
            ms(d)
        })
        .collect();
    median(&runs)
}

/// Host `cc` on the emitted C of the first clean programs; the compiled
/// program's outputs are checked. Returns mean compile and run times.
fn cc_column(ctx: &Ctx, p: &Plan, r: &mut Report) -> Result<(f64, f64), String> {
    let (mut compile, mut run) = (Vec::new(), Vec::new());
    let clean = p
        .items
        .iter()
        .filter_map(|it| match &it.expect {
            Expect::Values(v) => Some((it, v)),
            Expect::Fault(_) => None,
        })
        .take(3);
    for (n, (it, want)) in clean.enumerate() {
        let compiled = Compiler::new()
            .target((*it.codegen_specs[0]).clone())
            .compile(&it.src, &it.entry, &it.tys)
            .map_err(|e| format!("{}: {e}", it.label))?;
        let func = compiled
            .mir
            .function(&it.entry)
            .ok_or_else(|| format!("{}: no entry in MIR", it.label))?;
        let inputs: Vec<CValue> = it.inputs.iter().map(sim_to_cvalue).collect();
        let main = Harness
            .main_source(func, &inputs, 1)
            .map_err(|e| format!("{}: harness: {e}", it.label))?;
        let dir = ctx.work.join(format!("cc{n}"));
        let c_path = write_module(&dir, &compiled.c, Some(&main))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let exe = dir.join("prog");
        let (out, d) = time(|| {
            run_cmd(
                Command::new("cc")
                    .args(["-std=c99", "-O2", "-w", "-o"])
                    .arg(&exe)
                    .arg(&c_path)
                    .arg("-lm"),
                Duration::from_secs(120),
            )
        });
        compile.push(ms(d));
        r.check("cc compile", out.and_then(|o| success(&o).map(|_| ())));
        let (out, d) = time(|| run_cmd(&mut Command::new(&exe), Duration::from_secs(60)));
        run.push(ms(d));
        let got = out.and_then(|o| {
            let text = String::from_utf8_lossy(success(&o)?).into_owned();
            CValue::parse_outputs(&text)
        });
        r.check(
            "compiled C outputs",
            got.and_then(|got| {
                if got.len() != want.len() {
                    return Err(format!("{} outputs, expected {}", got.len(), want.len()));
                }
                got.iter()
                    .zip(want)
                    .try_for_each(|(g, w)| outputs_close(g, w, TOL))
            }),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok((mean(&compile), mean(&run)))
}

pub fn run(ctx: &Ctx, wl: Workload, r: &mut Report) -> Result<(), String> {
    let p = plan(ctx, wl, r)?;

    // Layer sweeps until the run's time is up (at least two).
    let start = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    while sweeps.len() < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut s = Sweep::default();
        for (i, it) in p.items.iter().enumerate() {
            let res = sweep_item(i, it, &mut s, sweeps.is_empty());
            r.check("traced op", res);
        }
        sweeps.push(s);
    }
    let over = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
    let share =
        |f: &dyn Fn(&Sweep) -> Duration| over(&|s| f(s).as_secs_f64() / s.wall.as_secs_f64());
    let items = p.items.len() as f64;
    for (k, name) in LAYER_METRICS.iter().enumerate() {
        r.set(name, over(&|s| us(s.t[k])) / items);
    }
    r.set(
        "asip.native.ns_per_inst",
        over(&|s| s.native_ok.as_nanos() as f64 / s.native_insts as f64),
    );
    r.set(
        "asip.tree.ns_per_inst",
        over(&|s| s.tree_ok.as_nanos() as f64 / s.tree_insts as f64),
    );
    if wl != Workload::ServeMixed {
        r.set("asip.sim_share", share(&|s| s.t[NATIVE]));
    }
    r.set(
        "trace.compile_share",
        share(&|s| s.t[PARSE..=CODEGEN].iter().sum()),
    );
    r.set("trace.accounted_share", share(&|s| s.t.iter().sum()));
    let c = &sweeps[0].counts;
    if sweeps.iter().any(|s| s.counts != *c) {
        r.check(
            "exact counts repeat across sweeps",
            Err(format!(
                "{:?} vs {:?}",
                c,
                sweeps.iter().map(|s| &s.counts).collect::<Vec<_>>()
            )),
        );
    }
    for (name, v) in [
        ("asip.instructions", c.insts_opt),
        ("asip.cycles.opt", c.cycles_opt),
        ("asip.cycles.base", c.cycles_base),
        ("vectorize.loops_accepted", c.loops_accepted),
        ("codegen.c_bytes", c.c_bytes),
    ] {
        r.set(name, v as f64);
        r.exact(name, v);
    }
    r.notes.push(format!(
        "layer sweeps: {} over {} programs",
        sweeps.len(),
        p.items.len()
    ));

    let (miss, hit, stream_stats) = cache_replay(&p, r);
    r.set("cache.compile_miss_us", mean(&miss));
    r.set("cache.compile_hit_us", mean(&hit));
    let ServeReplay {
        stats: serve_stats,
        wire,
    } = serve_replay(ctx, &p, r)?;
    if wl == Workload::ServeMixed {
        // The op is the request round trip; a `cycles` request simulates its
        // kernel on its target at both levels, timed in the sweep.
        let rtt: Vec<f64> = wire.iter().map(|(_, t)| *t).collect();
        let sim_us: f64 = wire
            .iter()
            .filter_map(|(q, _)| q.sim)
            .map(|key| over(&|s| us(s.sim_by[&key])))
            .sum();
        r.set("asip.sim_share", sim_us / rtt.iter().sum::<f64>());
    }
    let dse_stats = dse_probe(ctx, r)?;
    // Hit ratios, entries and evictions of the cache the workload really
    // uses: the server's for serve-mixed, discover's for dse, the replayed
    // stream's otherwise.
    let s = match wl {
        Workload::ServeMixed => serve_stats,
        Workload::Dse => dse_stats,
        _ => stream_stats,
    };
    r.set("cache.parse_hit_ratio", ratio(s.parse_hits, s.parse_misses));
    r.set("cache.front_hit_ratio", ratio(s.front_hits, s.front_misses));
    r.set(
        "cache.codegen_hit_ratio",
        ratio(s.codegen_hits, s.codegen_misses),
    );
    r.set("cache.exec_hit_ratio", ratio(s.exec_hits, s.exec_misses));
    r.set(
        "cache.entries",
        (s.parse_entries + s.front_entries + s.codegen_entries) as f64,
    );
    r.set("cache.evictions", s.evictions as f64);
    let start_ms = cli_start(ctx, r);
    r.set("cli.start_ms", start_ms);
    let (cc_compile, cc_run) = cc_column(ctx, &p, r)?;
    r.set("cc.compile_ms", cc_compile);
    r.set("cc.run_ms", cc_run);
    Ok(())
}
