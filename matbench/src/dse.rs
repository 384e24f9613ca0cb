//! `dse`: one op runs a full `matic explore`, then a full `matic discover`
//! seeded from the frontier it wrote.

use crate::common::{
    children_max_rss_mib, fnv, geomean, median, run_cmd, setup_reps, success, time, timed_loop,
    Ctx, Report,
};
use matic_discover::{validate_discover_json, DiscoverConfig};
use matic_explore::{validate_explore_json, ExploreConfig};
use matic_isa::json::{parse, Json};
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-up ops before the timed phase, and as many again after it.
const SETUP_REPS: u64 = 5;
/// Exploration seeds drawn per run; timed op `i` uses seed `i % SEED_POOL`.
const SEED_POOL: usize = 16;
const CMD_TIMEOUT: Duration = Duration::from_secs(120);

/// The committed documents and the seeds that reproduce them.
pub struct Committed {
    pub frontier: String,
    pub report: String,
    pub explore_seed: u64,
    pub discover_seed: u64,
}

impl Committed {
    /// Reads `EXPLORE_frontier.json` and `DISCOVER_report.json`.
    ///
    /// # Errors
    ///
    /// Fails when either file is missing.
    pub fn load(ctx: &Ctx) -> Result<Committed, String> {
        let read = |name: &str| {
            std::fs::read_to_string(ctx.root.join(name)).map_err(|e| format!("{name}: {e}"))
        };
        Ok(Committed {
            frontier: read("EXPLORE_frontier.json")?,
            report: read("DISCOVER_report.json")?,
            explore_seed: ExploreConfig::default().seed,
            discover_seed: DiscoverConfig::new("").seed,
        })
    }
}

/// Geometric mean of the winners' simulated cycles in a discover report.
pub fn winner_cycles_geomean(report: &str) -> Result<f64, String> {
    let doc = parse(report)?;
    let Some(Json::Arr(benches)) = doc.get("benchmarks") else {
        return Err("discover report has no `benchmarks`".into());
    };
    let cycles: Option<Vec<f64>> = benches
        .iter()
        .map(|b| b.get("winner")?.get("cycles")?.as_f64())
        .collect();
    Ok(geomean(&cycles.ok_or("a winner has no `cycles`")?))
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let committed = Committed::load(ctx)?;
    let mut expected_report = committed.report.clone();
    if ctx.corrupt_expected {
        expected_report.push('!');
    }
    let dir = ctx.work.join("dse");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let frontier = dir.join("frontier.json");
    let report = dir.join("discover.json");
    let mut rng = ctx.rng(3);
    let pool: Vec<u64> = (0..SEED_POOL).map(|_| rng.below(1 << 20)).collect();
    // The discover report the last committed-seed op wrote, once it passed
    // the validator: `opt_cycles.geomean` is read from it.
    let mut measured_report = None;

    // Set-up ops run at the committed seeds (`None`) and must reproduce the
    // committed documents byte for byte. Timed ops cycle through
    // exploration stimulus seeds drawn from the run seed; their documents
    // must pass the crates' validators, and repeat whenever a seed does.
    // The search seed stays the committed one: it changes the search path,
    // and with it the op's cost.
    let mut op = |seed: Option<u64>| {
        let at_committed = seed.is_none();
        let explore_seed = seed.unwrap_or(committed.explore_seed);
        let _ = std::fs::remove_file(&frontier);
        let _ = std::fs::remove_file(&report);
        let (outs, dt) = time(|| {
            let explore = run_cmd(
                ctx.matic()
                    .args(["explore", "--seed", &explore_seed.to_string(), "--json"])
                    .arg(&frontier),
                CMD_TIMEOUT,
            )?;
            success(&explore).map_err(|e| format!("explore: {e}"))?;
            let discover = run_cmd(
                ctx.matic()
                    .args(["discover", "--seed", &committed.discover_seed.to_string()])
                    .arg("--frontier")
                    .arg(&frontier)
                    .arg("--json")
                    .arg(&report),
                CMD_TIMEOUT,
            )?;
            success(&discover).map_err(|e| format!("discover: {e}"))?;
            Ok::<_, String>(())
        });
        let check = || -> Result<(String, String), String> {
            outs?;
            let read = |p: &std::path::Path| {
                std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
            };
            let (f, d) = (read(&frontier)?, read(&report)?);
            validate_explore_json(&f).map_err(|e| format!("explore document: {e}"))?;
            validate_discover_json(&d).map_err(|e| format!("discover document: {e}"))?;
            let hash = format!("{:016x}{:016x}", fnv(f.as_bytes()), fnv(d.as_bytes()));
            if at_committed {
                let matches = f == committed.frontier && d == expected_report;
                measured_report = Some(d);
                if !matches {
                    return Err(
                        "documents differ from the committed ones at the committed seeds".into(),
                    );
                }
            }
            Ok((format!("dse.docs.{explore_seed}"), hash))
        };
        let res = check();
        (dt, res)
    };

    // The documents of one seed must repeat within the run, and through the
    // exact record across runs.
    let mut seen = BTreeMap::new();
    let mut note = |res: Result<(String, String), String>| -> Result<(), String> {
        let (key, hash) = res?;
        match seen.insert(key.clone(), hash.clone()) {
            Some(old) if old != hash => Err(format!("{key}: documents changed within the run")),
            _ => Ok(()),
        }
    };
    let mut checked = |seed: Option<u64>| {
        let (dt, res) = op(seed);
        (dt, note(res))
    };
    // Nothing outlives an op, so a set-up is one cold op.
    let mut setup = Vec::new();
    setup_reps(
        r,
        "dse set-up op",
        SETUP_REPS,
        &mut |_| checked(None),
        &mut setup,
    );
    let timed = timed_loop(ctx.seconds, r, "dse", |i| {
        checked(Some(pool[i as usize % SEED_POOL]))
    });
    setup_reps(
        r,
        "dse set-up op",
        SETUP_REPS,
        &mut |_| checked(None),
        &mut setup,
    );
    r.set("setup_s", median(&setup));
    timed.report_single(r);
    r.set("peak_rss_mb", children_max_rss_mib());
    for (k, v) in seen {
        r.exact(k, v);
    }
    let g = winner_cycles_geomean(
        &measured_report.ok_or("no op wrote a valid discover report at the committed seeds")?,
    )?;
    r.exact("opt_cycles.geomean", format!("{g:.6}"));
    r.set("opt_cycles.geomean", g);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
