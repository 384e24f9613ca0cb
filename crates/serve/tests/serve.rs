//! End-to-end tests over a real socket: a served response must carry
//! exactly the bytes the offline pipeline produces, errors must be
//! structured envelopes (never hangups), and the shared cache must be
//! visible in the stats op.

use matic_isa::json::{parse, Json};
use matic_serve::{Budgets, Client, Server, ServerConfig};

const GAIN: &str = "function y = gain(x, k)\ny = k .* x;\nend";

fn spawn() -> Server {
    Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind")
}

fn spawn_with(budgets: Budgets) -> Server {
    let config = ServerConfig {
        workers: 2,
        budgets,
    };
    Server::bind("127.0.0.1:0", config).expect("bind")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.addr().to_string()).expect("connect")
}

fn obj(fields: &[(&str, Json)]) -> Json {
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn s(v: &str) -> Json {
    Json::Str(v.to_string())
}

fn result(resp: &Json) -> &Json {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "expected success, got: {}",
        resp.pretty()
    );
    resp.get("result").expect("result")
}

fn error_of(resp: &Json) -> (&str, &str, Option<&str>) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(false),
        "expected failure, got: {}",
        resp.pretty()
    );
    let e = resp.get("error").expect("error object");
    (
        e.get("kind").and_then(Json::as_str).expect("kind"),
        e.get("message").and_then(Json::as_str).expect("message"),
        e.get("stage").and_then(Json::as_str),
    )
}

fn gain_compile_req() -> Json {
    obj(&[
        ("op", s("compile")),
        ("source", s(GAIN)),
        ("entry", s("gain")),
        ("sig", s("v64,s")),
    ])
}

fn gain_cycles_req() -> Json {
    obj(&[
        ("op", s("cycles")),
        ("source", s(GAIN)),
        ("entry", s("gain")),
        ("sig", s("v64,s")),
    ])
}

#[test]
fn ping_round_trips() {
    let server = spawn();
    let mut client = connect(&server);
    let resp = client
        .request(&parse(r#"{"op": "ping"}"#).unwrap())
        .unwrap();
    let r = result(&resp);
    assert_eq!(r.get("pong").and_then(Json::as_bool), Some(true));
    server.shutdown();
}

#[test]
fn served_compile_matches_offline_compiler_bit_for_bit() {
    let server = spawn();
    let mut client = connect(&server);
    let resp = client.request(&gain_compile_req()).unwrap();
    let served_c = result(&resp)
        .get("c")
        .and_then(Json::as_str)
        .expect("c field");
    let sig = matic::reportfmt::parse_sig("v64,s").unwrap();
    let offline = matic::Compiler::new()
        .compile(GAIN, "gain", &sig)
        .expect("offline compile");
    assert_eq!(served_c, offline.c.source);
    server.shutdown();
}

#[test]
fn served_cycles_matches_offline_report_bit_for_bit() {
    let server = spawn();
    let mut client = connect(&server);
    let resp = client.request(&gain_cycles_req()).unwrap();
    let r = result(&resp);
    let served_text = r.get("text").and_then(Json::as_str).expect("text");

    let sig = matic::reportfmt::parse_sig("v64,s").unwrap();
    let optimized = matic::Compiler::new()
        .compile(GAIN, "gain", &sig)
        .expect("optimized");
    let baseline = matic::Compiler::new()
        .opt_level(matic::OptLevel::baseline())
        .compile(GAIN, "gain", &sig)
        .expect("baseline");
    let run = matic::reportfmt::run_cycles(
        &baseline,
        &optimized,
        &sig,
        &matic::reportfmt::CyclesOptions::default(),
    )
    .expect("offline run");
    let offline_text = matic::reportfmt::render_cycles(&run, &optimized, GAIN, "gain", false);
    assert_eq!(served_text, offline_text);
    assert_eq!(
        r.get("baseline_cycles").and_then(Json::as_u64),
        Some(run.baseline.cycles.total)
    );
    assert_eq!(
        r.get("optimized_cycles").and_then(Json::as_u64),
        Some(run.optimized.cycles.total)
    );
    server.shutdown();
}

#[test]
fn repeated_requests_hit_the_stage_cache() {
    let server = spawn();
    let mut client = connect(&server);
    for _ in 0..3 {
        let resp = client.request(&gain_compile_req()).unwrap();
        result(&resp);
    }
    let stats = client
        .request(&parse(r#"{"op": "stats"}"#).unwrap())
        .unwrap();
    let cache = result(&stats).get("cache").expect("cache stats").clone();
    let field = |k: &str| cache.get(k).and_then(Json::as_u64).expect("stat field");
    assert_eq!(field("parse_misses"), 1);
    assert_eq!(field("parse_hits"), 2);
    assert_eq!(field("front_misses"), 1);
    assert_eq!(field("front_hits"), 2);
    assert_eq!(field("codegen_misses"), 1);
    assert_eq!(field("codegen_hits"), 2);
    server.shutdown();
}

#[test]
fn concurrent_clients_get_identical_bytes() {
    let server = spawn();
    let addr = server.addr().to_string();
    let reference = {
        let mut client = connect(&server);
        let resp = client.request(&gain_cycles_req()).unwrap();
        result(&resp)
            .get("text")
            .and_then(Json::as_str)
            .unwrap()
            .to_string()
    };
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let addr = addr.clone();
            let reference = &reference;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for req in [gain_cycles_req(), gain_compile_req(), gain_cycles_req()] {
                    let resp = client.request(&req).expect("request");
                    let r = result(&resp);
                    if let Some(text) = r.get("text").and_then(Json::as_str) {
                        assert_eq!(text, reference);
                    }
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn target_field_accepts_builtin_names_and_spec_objects() {
    let server = spawn();
    let mut client = connect(&server);
    let base = client.request(&gain_compile_req()).unwrap();
    let base_c = result(&base)
        .get("c")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let mut named = gain_compile_req();
    if let Json::Obj(fields) = &mut named {
        fields.push(("target".to_string(), s("dsp16_w4")));
    }
    let resp = client.request(&named).unwrap();
    let named_c = result(&resp).get("c").and_then(Json::as_str).unwrap();
    assert_ne!(named_c, base_c, "narrower SIMD must change the C");

    let spec_doc = parse(&matic_isa::IsaSpec::with_width(4).to_json()).unwrap();
    let mut by_doc = gain_compile_req();
    if let Json::Obj(fields) = &mut by_doc {
        fields.push(("target".to_string(), spec_doc));
    }
    let resp = client.request(&by_doc).unwrap();
    assert_eq!(
        result(&resp).get("c").and_then(Json::as_str),
        Some(named_c),
        "a spec object must behave exactly like its builtin name"
    );

    let mut unknown = gain_compile_req();
    if let Json::Obj(fields) = &mut unknown {
        fields.push(("target".to_string(), s("nonesuch")));
    }
    let resp = client.request(&unknown).unwrap();
    let (kind, message, _) = error_of(&resp);
    assert_eq!(kind, "protocol");
    assert!(message.contains("nonesuch"), "{message}");
    server.shutdown();
}

#[test]
fn errors_are_structured_envelopes() {
    let server = spawn();
    let mut client = connect(&server);

    // Unknown op.
    let resp = client
        .request(&parse(r#"{"op": "transmogrify"}"#).unwrap())
        .unwrap();
    assert_eq!(error_of(&resp).0, "protocol");

    // Parse error carries the failing stage.
    let resp = client
        .request(&obj(&[
            ("op", s("compile")),
            ("source", s("x = ;")),
            ("entry", s("f")),
            ("sig", s("s")),
        ]))
        .unwrap();
    let (kind, _, stage) = error_of(&resp);
    assert_eq!(kind, "compile");
    assert_eq!(stage, Some("parse"));

    // A runtime trap carries the structured sim kind.
    let resp = client
        .request(&obj(&[
            ("op", s("cycles")),
            (
                "source",
                s("function y = f(x)\n error('nope');\ny = x;\nend"),
            ),
            ("entry", s("f")),
            ("sig", s("s")),
        ]))
        .unwrap();
    let (kind, _, stage) = error_of(&resp);
    assert_eq!(kind, "sim");
    assert_eq!(stage, Some("trap"));

    // The connection survives all of the above.
    let resp = client
        .request(&parse(r#"{"op": "ping"}"#).unwrap())
        .unwrap();
    result(&resp);
    server.shutdown();
}

#[test]
fn budgets_reject_oversized_sources_and_clamp_fuel() {
    let server = spawn_with(Budgets {
        max_source_bytes: 64,
        max_fuel: 1_000,
        ..Budgets::default()
    });
    let mut client = connect(&server);

    // Oversized source: structured budget error.
    let big = format!("function y = f(x)\n% {}\ny = x;\nend", "pad ".repeat(64));
    let resp = client
        .request(&obj(&[
            ("op", s("compile")),
            ("source", s(&big)),
            ("entry", s("f")),
            ("sig", s("s")),
        ]))
        .unwrap();
    let (kind, message, _) = error_of(&resp);
    assert_eq!(kind, "budget");
    assert!(message.contains("64-byte"), "{message}");

    // A fuel request above the server ceiling clamps to it: this loop
    // needs more than 1000 steps, so the clamped run must exhaust fuel.
    let resp = client
        .request(&obj(&[
            ("op", s("cycles")),
            (
                "source",
                s("function y = f(x)\ny = 0;\nfor i = 1:100000\ny = y + i;\nend\nend"),
            ),
            ("entry", s("f")),
            ("sig", s("s")),
            ("max_cycles", Json::Num(1e9)),
        ]))
        .unwrap();
    let (kind, _, stage) = error_of(&resp);
    assert_eq!(kind, "sim");
    assert_eq!(stage, Some("fuel-exhausted"));
    server.shutdown();
}

#[test]
fn malformed_and_oversized_frames_get_protocol_errors() {
    use std::io::{Read, Write};
    let server = spawn_with(Budgets {
        max_frame_bytes: 256,
        ..Budgets::default()
    });

    // Payload that is not JSON.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&7u32.to_be_bytes()).unwrap();
    stream.write_all(b"not {{{").unwrap();
    let resp = matic_serve::protocol::read_frame(&mut stream, 1 << 20).expect("error frame");
    assert_eq!(error_of(&resp).0, "protocol");
    // ... after which the server hangs up (framing cannot resync).
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty());

    // Length prefix above the configured frame budget: rejected without
    // the server ever buffering the body.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream.write_all(&(1u32 << 20).to_be_bytes()).unwrap();
    let resp = matic_serve::protocol::read_frame(&mut stream, 1 << 20).expect("error frame");
    let (kind, message, _) = error_of(&resp);
    assert_eq!(kind, "protocol");
    assert!(message.contains("exceeds"), "{message}");
    server.shutdown();
}

#[test]
fn deeply_nested_frame_gets_a_protocol_error_and_the_server_survives() {
    use std::io::Write;
    let server = spawn();
    // Far deeper than a worker's stack could recurse on.
    let payload = "[".repeat(10_000);
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload.as_bytes()).unwrap();
    let resp = matic_serve::protocol::read_frame(&mut stream, 1 << 20).expect("error frame");
    let (kind, message, _) = error_of(&resp);
    assert_eq!(kind, "protocol");
    assert!(message.contains("nesting deeper than"), "{message}");

    let mut client = connect(&server);
    let resp = client
        .request(&parse(r#"{"op": "ping"}"#).unwrap())
        .unwrap();
    assert_eq!(
        result(&resp).get("pong").and_then(Json::as_bool),
        Some(true)
    );
    server.shutdown();
}

#[test]
fn client_connections_disable_nagle() {
    let server = spawn();
    let client = connect(&server);
    assert!(client.nodelay().expect("query TCP_NODELAY"));
    server.shutdown();
}

/// A kernel whose generated C is larger than 64 KiB.
fn large_c_source() -> String {
    let mut src = String::from("function y = big(x)\ny = x;\n");
    for i in 1..=600 {
        src.push_str(&format!("y = y .* {i} + x;\n"));
    }
    src.push_str("end");
    src
}

#[test]
fn sequential_round_trips_do_not_stall() {
    // Each round trip that waits out a delayed ACK costs ~40-80 ms, so
    // 100 stalled round trips take seconds; unstalled ones take
    // milliseconds once the first compile is cached.
    let server = spawn();
    let mut client = connect(&server);
    let big = obj(&[
        ("op", s("compile")),
        ("source", s(&large_c_source())),
        ("entry", s("big")),
        ("sig", s("v64")),
    ]);
    let first = client.request(&big).unwrap();
    let c_len = result(&first)
        .get("c")
        .and_then(Json::as_str)
        .unwrap()
        .len();
    assert!(
        c_len > 64 << 10,
        "compile response too small: {c_len} bytes"
    );
    let ping = parse(r#"{"op": "ping"}"#).unwrap();
    let start = std::time::Instant::now();
    for i in 0..100 {
        let req = if i % 10 == 0 { &big } else { &ping };
        result(&client.request(req).unwrap());
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(2),
        "100 round trips took {elapsed:?}"
    );
    server.shutdown();
}
