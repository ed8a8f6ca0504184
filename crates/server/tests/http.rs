//! End-to-end coverage over real TCP: boots the server on an
//! ephemeral port, drives it with raw HTTP/1.1, and pins the
//! byte-identity contract — a campaign submitted over the wire
//! produces exactly the `-summary.json` a direct library run does.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use server::middleware::LogSink;
use server::{Server, ServerConfig};

/// A quiet config on an ephemeral port; tests override fields.
fn test_config() -> ServerConfig {
    let quiet: LogSink = Arc::new(Mutex::new(Box::new(std::io::sink())));
    ServerConfig {
        port: 0,
        jobs: 2,
        quick: true,
        log: quiet,
        ..ServerConfig::default()
    }
}

/// Boots the server on its ephemeral port, returning the bound
/// address and the serving thread (joined by [`shutdown`]).
fn boot(cfg: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("ephemeral bind");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

/// Sends one raw request, returning `(status, body)`.
fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable status line in {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn get(path: &str, token: Option<&str>) -> String {
    let auth = token.map_or(String::new(), |t| format!("authorization: Bearer {t}\r\n"));
    format!("GET {path} HTTP/1.1\r\nhost: test\r\n{auth}\r\n")
}

fn post(path: &str, body: &str, token: Option<&str>) -> String {
    let auth = token.map_or(String::new(), |t| format!("authorization: Bearer {t}\r\n"));
    format!(
        "POST {path} HTTP/1.1\r\nhost: test\r\n{auth}content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Stops the server and joins the serving thread.
fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>, token: Option<&str>) {
    let (status, _) = http(addr, &post("/shutdown", "", token));
    assert_eq!(status, 200);
    handle.join().expect("serve thread").expect("clean exit");
}

fn example_spec(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/campaigns")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

const MINI_SPEC: &str = r#"{
    "name": "mini",
    "scenario": { "kind": "host", "scheduler": "credit", "duration_s": 300,
        "vms": [ { "name": "v", "credit_pct": 20,
                   "workload": { "kind": "fluid", "load_pct": 50 } } ] },
    "seeds": { "base": 1, "replicates": 1 }
}"#;

/// Polls `GET /campaigns/<id>` until the job leaves the queue.
fn wait_done(addr: SocketAddr, id: u64, token: Option<&str>) -> String {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = http(addr, &get(&format!("/campaigns/{id}"), token));
        assert_eq!(status, 200, "{body}");
        if body.contains("\"state\":\"done\"") || body.contains("\"state\":\"failed\"") {
            return body;
        }
        assert!(
            Instant::now() < deadline,
            "campaign {id} never finished: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn healthz_reports_and_unknown_paths_404() {
    let (addr, handle) = boot(test_config());
    let (status, body) = http(addr, &get("/healthz", None));
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"jobs\":2"), "{body}");

    let (status, _) = http(addr, &get("/nope", None));
    assert_eq!(status, 404);
    let (status, _) = http(addr, &http_delete(addr));
    assert_eq!(status, 405, "wrong method on a known path");
    let (status, _) = http(addr, &get("/campaigns/99", None));
    assert_eq!(status, 404, "unknown campaign id");
    let (status, body) = http(addr, &get("/campaigns/zzz", None));
    assert_eq!(status, 404, "{body}");
    shutdown(addr, handle, None);
}

fn http_delete(_addr: SocketAddr) -> String {
    "DELETE /healthz HTTP/1.1\r\nhost: test\r\n\r\n".to_owned()
}

#[test]
fn submitted_campaign_summary_is_byte_identical_to_a_direct_run() {
    let out = std::env::temp_dir().join("pas-server-e2e-out");
    let _ = std::fs::remove_dir_all(&out);
    let mut cfg = test_config();
    cfg.out = Some(out.clone());
    let (addr, handle) = boot(cfg);

    let spec_json = example_spec("credit-sweep.json");
    let (status, body) = http(addr, &post("/campaigns", &spec_json, None));
    assert_eq!(status, 202, "{body}");
    assert!(body.contains("\"id\":1"), "{body}");
    assert!(body.contains("\"total_runs\":"), "{body}");

    let final_status = wait_done(addr, 1, None);
    assert!(
        final_status.contains("\"state\":\"done\""),
        "{final_status}"
    );

    let (status, served_summary) = http(addr, &get("/campaigns/1/summary", None));
    assert_eq!(status, 200);

    // The contract: the service and the CLI produce the same bytes
    // for the same spec at the same fidelity.
    let spec = campaign::CampaignSpec::from_json(&spec_json).expect("example parses");
    let report = campaign::run(&spec, true, 2).expect("direct run");
    let direct_summary = metrics::export::to_json(&report).expect("serializes");
    assert_eq!(served_summary, direct_summary);

    // `--out` wrote the same three artefacts `repro campaign` would.
    let names: Vec<String> = report
        .artefact_files()
        .expect("artefacts")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for name in &names {
        let on_disk = std::fs::read_to_string(out.join(name))
            .unwrap_or_else(|e| panic!("missing artefact {name}: {e}"));
        assert!(!on_disk.is_empty());
    }
    assert_eq!(
        std::fs::read_to_string(out.join(format!("{}-summary.json", spec.name))).unwrap(),
        direct_summary
    );

    shutdown(addr, handle, None);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn auth_layer_guards_every_route() {
    let mut cfg = test_config();
    cfg.token = Some("s3cret".to_owned());
    let (addr, handle) = boot(cfg);

    let (status, _) = http(addr, &get("/healthz", None));
    assert_eq!(status, 401, "no token");
    let (status, _) = http(addr, &get("/healthz", Some("wrong")));
    assert_eq!(status, 401, "wrong token");
    let (status, _) = http(addr, &post("/campaigns", MINI_SPEC, None));
    assert_eq!(status, 401, "submission needs the token too");
    let (status, _) = http(addr, &get("/healthz", Some("s3cret")));
    assert_eq!(status, 200);
    let (status, _) = http(addr, &post("/shutdown", "", None));
    assert_eq!(status, 401, "even shutdown is guarded");
    shutdown(addr, handle, Some("s3cret"));
}

#[test]
fn rate_limit_answers_429_under_burst() {
    let mut cfg = test_config();
    cfg.rate = Some(2.0); // burst of 2 for the single test client
    let (addr, handle) = boot(cfg);

    let (first, _) = http(addr, &get("/healthz", None));
    let (second, _) = http(addr, &get("/healthz", None));
    assert_eq!((first, second), (200, 200), "burst admits two");
    let (third, body) = http(addr, &get("/healthz", None));
    assert_eq!(third, 429, "{body}");
    assert!(body.contains("rate limit"), "{body}");

    // The bucket refills: within ~a second the client is admitted
    // again (2 tokens/s, so 0.6 s refills >1 token).
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = http(addr, &get("/healthz", None));
    assert_eq!(status, 200);
    std::thread::sleep(Duration::from_millis(600));
    shutdown(addr, handle, None);
}

#[test]
fn sub_microsecond_fleet_epoch_is_refused_with_400() {
    // 1e-7 s rounds to a zero-length epoch on the simulated clock; a
    // job built from it would never finish and block the queue.
    let spec = r#"{
        "name": "tiny-epoch",
        "scenario": {
            "kind": "fleet",
            "scheduler": "pas",
            "duration_s": 600,
            "size": 4,
            "epoch_s": 1e-7
        },
        "seeds": { "replicates": 1 }
    }"#;
    let (addr, handle) = boot(test_config());
    let (status, body) = http(addr, &post("/campaigns", spec, None));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("scenario.epoch_s"), "{body}");
    let (_, body) = http(addr, &get("/healthz", None));
    assert!(body.contains("\"submitted\":0"), "{body}");
    shutdown(addr, handle, None);
}

#[test]
fn malformed_and_oversized_submissions_die_at_the_door() {
    let mut cfg = test_config();
    cfg.max_body_bytes = 4096;
    let (addr, handle) = boot(cfg);

    let (status, body) = http(addr, &post("/campaigns", "not json", None));
    assert_eq!(status, 400);
    assert!(body.contains("invalid campaign spec"), "{body}");

    let (status, body) = http(addr, &post("/campaigns", "", None));
    assert_eq!(status, 400, "{body}");

    let oversized = "x".repeat(5000);
    let (status, body) = http(addr, &post("/campaigns", &oversized, None));
    assert_eq!(status, 413, "{body}");

    let (status, _) = http(addr, "BROKEN\r\n\r\n");
    assert_eq!(status, 400, "malformed request line");

    // Nothing above was registered as a job.
    let (status, body) = http(addr, &get("/healthz", None));
    assert_eq!(status, 200);
    assert!(body.contains("\"submitted\":0"), "{body}");
    shutdown(addr, handle, None);
}

#[test]
fn status_endpoint_tracks_progress_and_summary_is_409_until_done() {
    let (addr, handle) = boot(test_config());
    let (status, body) = http(addr, &post("/campaigns", MINI_SPEC, None));
    assert_eq!(status, 202, "{body}");

    // Until the run completes the summary answers 409, not 200/404.
    let (status, body) = http(addr, &get("/campaigns/1/summary", None));
    assert!(
        status == 409 || status == 200,
        "summary of an in-flight job is 409 (or 200 if it already won the race): {status} {body}"
    );

    let final_status = wait_done(addr, 1, None);
    assert!(
        final_status.contains("\"state\":\"done\""),
        "{final_status}"
    );
    assert!(final_status.contains("\"name\":\"mini\""), "{final_status}");
    // completed == total on completion.
    assert!(
        final_status.contains("\"completed_runs\":1") && final_status.contains("\"total_runs\":1"),
        "{final_status}"
    );

    let (status, _) = http(addr, &get("/campaigns/1/summary", None));
    assert_eq!(status, 200);

    // The profiler observed the chain: per-layer spans are exported.
    let (status, body) = http(addr, &get("/profilez", None));
    assert_eq!(status, 200);
    for span in [
        "mw:handler",
        "mw:token_auth",
        "mw:rate_limit",
        "campaign_run",
    ] {
        assert!(body.contains(span), "missing span {span}: {body}");
    }
    shutdown(addr, handle, None);
}

#[test]
fn shutdown_drains_accepted_jobs_before_exit() {
    let out = std::env::temp_dir().join("pas-server-e2e-drain");
    let _ = std::fs::remove_dir_all(&out);
    let mut cfg = test_config();
    cfg.out = Some(out.clone());
    let (addr, handle) = boot(cfg);

    let (status, _) = http(addr, &post("/campaigns", MINI_SPEC, None));
    assert_eq!(status, 202);
    // Shut down immediately: the accepted job must still run.
    shutdown(addr, handle, None);

    let summary = std::fs::read_to_string(out.join("mini-summary.json"))
        .expect("the accepted job ran to completion during drain");
    assert!(!summary.is_empty());
    let _ = std::fs::remove_dir_all(&out);
}
