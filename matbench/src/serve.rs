//! `serve-mixed`: closed-loop clients drive one `matic serve` subprocess
//! with a seeded mix of `compile` and `cycles` requests over a fixed
//! working set: the six kernels at small sizes × four targets.

use crate::common::{
    geomean, kill, latency_note, mean, median, quantile, time, vm_hwm_mib, Ctx, Guard, Report,
};
use crate::kernels::{self, Kernel, Pair};
use matic::{Features, IsaSpec};
use matic_isa::json::{parse, Json};
use matic_serve::Client;
use std::io::{BufRead, BufReader};
use std::process::{ChildStdout, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stimulus seeds of `cycles` requests: the fixed seed behind
/// `opt_cycles.geomean`, then one drawn from the run seed.
const FIXED_STIM_SEED: u64 = 1;
/// Server starts (each with a cache fill) timed for `setup_s`.
const SETUP_STARTS: usize = 3;

/// One distinct request and the payload its response must carry.
pub struct Req {
    /// What the request is, for failure messages.
    pub label: String,
    /// The request object.
    pub json: Json,
    /// Result field holding the payload (`c` or `text`).
    pub field: &'static str,
    /// The payload, rendered in process, or why there is none (its
    /// reference check failed); then every response to it fails.
    pub expected: Result<String, String>,
    /// For a `cycles` request: the kernel and target indices of the
    /// working set it simulates.
    pub sim: Option<(usize, usize)>,
}

impl Req {
    /// Checks a response envelope against the expected payload.
    ///
    /// # Errors
    ///
    /// Describes an I/O failure, an error envelope or a payload mismatch.
    pub fn check(&self, resp: &std::io::Result<Json>) -> Result<(), String> {
        self.check_json(resp.as_ref().map_err(|e| format!("{}: {e}", self.label))?)
    }

    /// Checks a decoded response envelope. A string payload must equal the
    /// expected text; a document payload must print as it.
    ///
    /// # Errors
    ///
    /// Describes an error envelope or a payload mismatch.
    pub fn check_json(&self, resp: &Json) -> Result<(), String> {
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{}: error envelope {}", self.label, resp.pretty()));
        }
        let got = match resp.get("result").and_then(|r| r.get(self.field)) {
            Some(Json::Str(s)) => s.clone(),
            Some(doc) => doc.pretty(),
            None => return Err(format!("{}: no `{}` in the result", self.label, self.field)),
        };
        let want = self
            .expected
            .as_ref()
            .map_err(|e| format!("{}: no reference payload: {e}", self.label))?;
        if got != *want {
            return Err(format!(
                "{}: payload differs from the offline render",
                self.label
            ));
        }
        Ok(())
    }
}

/// The four targets of the working set: the paper's ASIP, the scalar
/// baseline and two points of the exploration grid.
pub fn specs() -> Vec<IsaSpec> {
    let f = |simd, complex, mac| Features { simd, complex, mac };
    vec![
        IsaSpec::dsp16(),
        IsaSpec::scalar_baseline(),
        matic_explore::grid::build_spec(4, f(true, false, true), 1.0),
        matic_explore::grid::build_spec(16, f(true, true, true), 1.5),
    ]
}

/// The six kernels at the exploration sizes (small enough that protocol
/// and handler cost are visible next to simulation).
pub fn small_kernels(ctx: &Ctx) -> Result<Vec<Kernel>, String> {
    kernels::load(&ctx.root, |b| matic_explore::runner::default_n(b.id))
}

/// Builds a serve-protocol request the way `matic request` does.
pub fn request(
    op: &str,
    (src, entry, sig): (&str, &str, &str),
    spec: &IsaSpec,
    extra: Vec<(&str, Json)>,
) -> Json {
    let target = parse(&spec.to_json()).expect("an ISA spec serializes to JSON");
    let mut fields = vec![
        ("op".to_string(), Json::Str(op.to_string())),
        ("source".to_string(), Json::Str(src.to_string())),
        ("entry".to_string(), Json::Str(entry.to_string())),
        ("sig".to_string(), Json::Str(sig.to_string())),
        ("target".to_string(), target),
    ];
    fields.extend(extra.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(fields)
}

/// A `compile` request.
pub fn compile_request(prog: (&str, &str, &str), spec: &IsaSpec, baseline: bool) -> Json {
    request(
        "compile",
        prog,
        spec,
        vec![("baseline", Json::Bool(baseline))],
    )
}

/// A `cycles` request for kernel `k` on `spec` with stimulus `seed`.
pub fn cycles_request(
    k: &Kernel,
    spec: &IsaSpec,
    seed: u64,
    expected: Result<String, String>,
    sim: (usize, usize),
) -> Req {
    Req {
        sim: Some(sim),
        label: format!("cycles {} on {} seed {seed}", k.id, spec.name),
        json: request(
            "cycles",
            (&k.src, k.entry, &k.sig),
            spec,
            vec![
                ("engine", Json::Str("native".into())),
                ("seed", Json::Num(seed as f64)),
            ],
        ),
        field: "text",
        expected,
    }
}

/// The requests of the working set.
pub struct WorkingSet {
    /// Every distinct request, with its expected payload.
    pub reqs: Vec<Req>,
    /// Optimized cycles of the fixed-seed `cycles` requests.
    pub fixed_cycles: Vec<f64>,
    /// Stimuli the reference interpreter rejects.
    pub divergences: Vec<String>,
}

/// Builds the working set's requests, rendering every payload in process.
pub fn requests(ctx: &Ctx) -> Result<WorkingSet, String> {
    let seeds = [FIXED_STIM_SEED, 2 + ctx.rng(2).below(1 << 20)];
    let mut reqs = Vec::new();
    let mut fixed_cycles = Vec::new();
    let mut divergences = Vec::new();
    for (ki, k) in small_kernels(ctx)?.iter().enumerate() {
        for (si, spec) in specs().into_iter().enumerate() {
            let pair = Pair::compile(k, &spec)?;
            for (baseline, c) in [(false, &pair.opt), (true, &pair.base)] {
                reqs.push(Req {
                    label: format!("compile {} on {} baseline={baseline}", k.id, spec.name),
                    json: compile_request((&k.src, k.entry, &k.sig), &spec, baseline),
                    field: "c",
                    expected: Ok(c.c.source.clone()),
                    sim: None,
                });
            }
            for seed in seeds {
                let text = pair.expected_cycles(k, seed).map(|e| {
                    if seed == FIXED_STIM_SEED {
                        fixed_cycles.push(e.opt_cycles as f64);
                    }
                    divergences.extend(e.divergence);
                    e.text
                });
                reqs.push(cycles_request(k, &spec, seed, text, (ki, si)));
            }
        }
    }
    Ok(WorkingSet {
        reqs,
        fixed_cycles,
        divergences,
    })
}

/// A running `matic serve` subprocess; killed and reaped on drop.
pub struct Server {
    /// `host:port` it listens on.
    pub addr: String,
    /// Its process id.
    pub pid: u32,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    _guard: Guard,
}

impl Server {
    /// Starts `matic serve` on an ephemeral port and waits until it listens.
    ///
    /// # Errors
    ///
    /// Fails when the server cannot start or does not report its address.
    pub fn start(ctx: &Ctx, workers: usize) -> Result<Server, String> {
        let mut child = ctx
            .matic()
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start matic serve: {e}"))?;
        let pid = child.id();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let guard = Guard(child);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("matic serve: {e}"))?;
        let addr = line
            .trim()
            .strip_prefix("matic serve: listening on ")
            .ok_or_else(|| format!("matic serve printed `{}`", line.trim()))?
            .to_string();
        Ok(Server {
            addr,
            pid,
            _stdout: stdout,
            _guard: guard,
        })
    }

    /// Connects a client.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }
}

/// Sends every request once on one connection, checking each response;
/// returns the round-trip times.
pub fn send_all<'a>(
    server: &Server,
    reqs: impl IntoIterator<Item = &'a Req>,
    r: &mut Report,
    what: &str,
) -> Result<Vec<Duration>, String> {
    let mut client = server.client()?;
    Ok(reqs
        .into_iter()
        .map(|q| {
            let (resp, dt) = time(|| client.request(&q.json));
            r.check(what, q.check(&resp));
            dt
        })
        .collect())
}

/// One timed request: latency in milliseconds and its check.
type Sample = (f64, Result<(), String>);

/// Closed-loop clients: `nproc` of them, at most two.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

pub fn run(ctx: &Ctx, r: &mut Report) -> Result<(), String> {
    let WorkingSet {
        mut reqs,
        fixed_cycles,
        divergences,
    } = requests(ctx)?;
    for d in divergences {
        r.diverge(Some(d));
    }
    if ctx.corrupt_expected {
        if let Ok(e) = &mut reqs[0].expected {
            e.push('!');
        }
    }
    let g = geomean(&fixed_cycles);
    r.exact("opt_cycles.geomean", format!("{g:.6}"));
    r.set("opt_cycles.geomean", g);
    let nclients = clients();

    // Set-up: start the server and fill its stage cache with the whole
    // working set, several times; the last server serves the timed phase.
    // One fixed-seed `cycles` request per kernel and target compiles both
    // levels, so it fills every entry a later request looks up.
    let fill: Vec<&Req> = reqs
        .iter()
        .filter(|q| q.field == "text" && q.label.ends_with(&format!(" seed {FIXED_STIM_SEED}")))
        .collect();
    let mut setup = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::start(ctx, nclients)?;
        send_all(&s, fill.iter().copied(), r, "serve-mixed cache fill")?;
        setup.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up start");
    r.set("setup_s", median(&setup));

    let (done, wait) = mpsc::channel::<()>();
    let pid = server.pid;
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        // A hung server must not hang the benchmark: kill it, which fails
        // the clients' pending requests.
        let deadline = Duration::from_secs_f64(ctx.seconds + 60.0);
        s.spawn(move || {
            if let Err(mpsc::RecvTimeoutError::Timeout) = wait.recv_timeout(deadline) {
                kill(pid);
            }
        });
        let handles: Vec<_> = (0..nclients)
            .map(|c| {
                let reqs = &reqs;
                let server = &server;
                let mut rng = ctx.rng(100 + c as u64);
                s.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut client = server.client()?;
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < ctx.seconds {
                        let q = &reqs[rng.below(reqs.len() as u64) as usize];
                        let (resp, dt) = time(|| client.request(&q.json));
                        out.push((dt.as_secs_f64() * 1e3, q.check(&resp)));
                    }
                    Ok(out)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        drop(done);
        results
    });
    let elapsed = start.elapsed();
    let mut lat = Vec::new();
    for res in results {
        for (ms, check) in res? {
            lat.push(ms);
            r.check("serve-mixed request", check);
        }
    }
    r.set("op_ms.mean", mean(&lat));
    r.set("op_ms.p75", quantile(&lat, 0.75));
    r.set("ops_per_s", lat.len() as f64 / elapsed.as_secs_f64());
    r.set("peak_rss_mb", vm_hwm_mib(&pid.to_string())?);
    r.notes.push(latency_note(
        &format!("timed requests from {nclients} clients"),
        &lat,
        elapsed,
    ));
    Ok(())
}
