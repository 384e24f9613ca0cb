//! `matbench` — the matic benchmark harness.
//!
//! ```text
//! matbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! matbench --self-test
//! ```
//!
//! Run it through `matbench/run.sh`, which builds `matic` and this
//! harness from source first. See `matbench/README.md` for the workloads,
//! the metrics and how to read a traced run.

mod common;
mod dse;
mod fuzz;
mod kernels;
mod paper;
mod serve;
mod trace;

use common::{check_exact, fnv, Ctx, Report};
use std::path::PathBuf;
use std::process::ExitCode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSuite,
    FuzzCompile,
    ServeMixed,
    Dse,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperSuite,
        Workload::FuzzCompile,
        Workload::ServeMixed,
        Workload::Dse,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperSuite => "paper-suite",
            Workload::FuzzCompile => "fuzz-compile",
            Workload::ServeMixed => "serve-mixed",
            Workload::Dse => "dse",
        }
    }
}

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms.mean", "ms"),
    ("op_ms.p75", "ms"),
    ("ops_per_s", "1/s"),
    ("opt_cycles.geomean", "cycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 38] = [
    ("frontend.parse_us", "us"),
    ("sema.analyze_us", "us"),
    ("mir.lower_us", "us"),
    ("mir.optimize_us", "us"),
    ("mir.inline_us", "us"),
    ("vectorize.us", "us"),
    ("codegen.emit_us", "us"),
    ("cache.compile_miss_us", "us"),
    ("cache.compile_hit_us", "us"),
    ("cache.parse_hit_ratio", "ratio"),
    ("cache.front_hit_ratio", "ratio"),
    ("cache.codegen_hit_ratio", "ratio"),
    ("cache.exec_hit_ratio", "ratio"),
    ("cache.entries", "count"),
    ("cache.evictions", "count"),
    ("asip.decode_us", "us"),
    ("asip.fuse_us", "us"),
    ("asip.native.ns_per_inst", "ns/inst"),
    ("asip.sim_share", "ratio"),
    ("asip.tree.ns_per_inst", "ns/inst"),
    ("asip.instructions", "count"),
    ("asip.cycles.base", "cycles"),
    ("asip.cycles.opt", "cycles"),
    ("vectorize.loops_accepted", "count"),
    ("codegen.c_bytes", "bytes"),
    ("serve.handle_us", "us"),
    ("serve.wire_us", "us"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("dse.explore_ms", "ms"),
    ("dse.discover_ms", "ms"),
    ("dse.evals", "count"),
    ("dse.us_per_eval", "us"),
    ("cli.start_ms", "ms"),
    ("cc.compile_ms", "ms"),
    ("cc.run_ms", "ms"),
    ("trace.compile_share", "ratio"),
    ("trace.accounted_share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} expects a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or_else(|| format!("unknown workload `{v}`"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Runs one workload and checks that every metric of its mode is present
/// and finite.
fn measure(ctx: &Ctx, wl: Workload, trace: bool) -> Result<Report, String> {
    let mut r = Report::default();
    match (trace, wl) {
        (true, _) => trace::run(ctx, wl, &mut r)?,
        (false, Workload::PaperSuite) => paper::run(ctx, &mut r)?,
        (false, Workload::FuzzCompile) => fuzz::run(ctx, &mut r)?,
        (false, Workload::ServeMixed) => serve::run(ctx, &mut r)?,
        (false, Workload::Dse) => dse::run(ctx, &mut r)?,
    }
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in table {
        match r.metrics.get(name) {
            Some(v) if v.is_finite() => {}
            other => return Err(format!("metric {name} is {other:?}")),
        }
    }
    if let Some(extra) = r
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra} is not in the table"));
    }
    Ok(r)
}

/// Prints the human-readable report, then the result line.
fn print(r: &Report, table: &[(&str, &str)], correct: bool) {
    for note in &r.notes {
        println!("{note}");
    }
    for d in &r.divergences {
        println!("known divergence: {d}");
    }
    println!(
        "fail_ratio: {} ({} failed of {} attempted)",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted
    );
    for (name, unit) in table {
        println!("{name:<26} {:>16.6} {unit}", r.metrics[name]);
    }
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                r.metrics[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn context(seed: u64, seconds: f64) -> Result<(Ctx, PathBuf), String> {
    let env = |k: &str| {
        std::env::var_os(k)
            .map(PathBuf::from)
            .ok_or_else(|| format!("{k} is not set; run the benchmark through matbench/run.sh"))
    };
    let matic = env("MATBENCH_MATIC")?;
    let state = env("MATBENCH_DIR")?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = state.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok((
        Ctx {
            seed,
            seconds,
            root,
            matic,
            work,
            corrupt_expected: false,
        },
        state,
    ))
}

/// The self-test: the metric tables match `BENCHMARK.json`; a short run of
/// every workload, traced and untraced, passes its checks and emits every
/// metric as a finite value; and with one expected output deliberately
/// corrupted, every workload reports failures.
fn self_test(ctx: &mut Ctx) -> Result<(), String> {
    let text = std::fs::read_to_string(ctx.root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = matic_isa::json::parse(&text)?;
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let Some(matic_isa::json::Json::Arr(items)) = doc.get(key) else {
            return Err(format!("BENCHMARK.json has no `{key}` list"));
        };
        let listed: Vec<(&str, &str)> = items
            .iter()
            .map(|m| {
                let s = |f| {
                    m.get(f)
                        .and_then(matic_isa::json::Json::as_str)
                        .unwrap_or("")
                };
                (s("name"), s("unit"))
            })
            .collect();
        if listed != table {
            return Err(format!(
                "BENCHMARK.json `{key}` does not match the harness's table"
            ));
        }
    }
    ctx.seconds = 1.0;
    ctx.seed = 1;
    for wl in Workload::ALL {
        for trace in [false, true] {
            let r = measure(ctx, wl, trace)?;
            if r.failed > 0 {
                return Err(format!(
                    "{} (trace {trace}): {} ops failed",
                    wl.name(),
                    r.failed
                ));
            }
            println!(
                "self-test: {} trace={trace}: {} ops, all metrics finite",
                wl.name(),
                r.attempted
            );
        }
        ctx.corrupt_expected = true;
        let r = measure(ctx, wl, false);
        ctx.corrupt_expected = false;
        match r {
            Ok(r) if r.failed > 0 => println!(
                "self-test: {} with a wrong expected output: fail_ratio {}",
                wl.name(),
                r.failed as f64 / r.attempted as f64
            ),
            Ok(_) => {
                return Err(format!(
                    "{}: a wrong expected output went unnoticed",
                    wl.name()
                ))
            }
            Err(e) => {
                return Err(format!(
                    "{}: corrupted run did not complete: {e}",
                    wl.name()
                ))
            }
        }
    }
    println!("self-test passed");
    Ok(())
}

/// A hash of everything that determines the exact values: the `matic`
/// binary, this harness (which links the crates it calls), and the
/// checkout files it reads. Exact values are compared across runs only
/// under the same identity, so a change that moves them is measured, not
/// reported as a repeatability failure.
fn code_identity(ctx: &Ctx) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut files = vec![
        ctx.matic.clone(),
        exe,
        ctx.root.join("EXPLORE_frontier.json"),
        ctx.root.join("DISCOVER_report.json"),
    ];
    let bench = ctx.root.join("benchmarks");
    let mut sources: Vec<PathBuf> = std::fs::read_dir(&bench)
        .map_err(|e| format!("{}: {e}", bench.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    sources.sort();
    files.extend(sources.into_iter().filter(|p| p.is_file()));
    let mut h = String::new();
    for f in &files {
        let bytes = std::fs::read(f).map_err(|e| format!("{}: {e}", f.display()))?;
        h.push_str(&format!("{:016x}", fnv(&bytes)));
    }
    Ok(fnv(h.as_bytes()))
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["--self-test"] {
        let (mut ctx, _) = context(1, 1.0)?;
        let res = self_test(&mut ctx);
        let _ = std::fs::remove_dir_all(&ctx.work);
        return res;
    }
    let a = parse_args(&args)?;
    let (ctx, state) = context(a.seed, a.seconds)?;
    println!(
        "workload: {}  seed: {}  seconds: {}  trace: {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        a.trace as u8
    );
    let res = measure(&ctx, a.workload, a.trace);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let r = res?;
    let key = format!(
        "{}-seed{}-trace{}-code{:016x}",
        a.workload.name(),
        a.seed,
        a.trace as u8,
        code_identity(&ctx)?
    );
    let exact = check_exact(&state.join("exact"), &key, &r.exact);
    if let Err(e) = &exact {
        eprintln!("matbench: EXACT METRICS DID NOT REPEAT: {e}");
    }
    let table: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    print(&r, table, r.failed == 0 && exact.is_ok());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("matbench: {e}");
            ExitCode::FAILURE
        }
    }
}
