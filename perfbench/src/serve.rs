//! The `serve_paper_campaigns` workload: one closed-loop client, one
//! connection at a time, against an in-process campaign server.
//!
//! Each cycle submits one trimmed credit × scheduler sweep (the shape
//! of the paper's single-host figures), polls it until it is done,
//! fetches its summary and compares it byte for byte with the summary
//! the campaign engine produces in-process for the same spec. It also
//! sends `/healthz` with the token (expects 200) and without it
//! (expects 401), and the same spec with one bad sweep axis (expects
//! 400), so the middleware chain is exercised both through and
//! short-circuited.
//!
//! The request percentiles cover five round trips of every cycle: the
//! status read that finds the job done, the summary, both `/healthz`
//! and the refused spec. They leave out the status polls, whose number
//! only follows the job's run time, and the submission, which wakes
//! the job thread and so races it for a CPU: its round trip measured
//! the OS scheduler more than the server (it is part of the job's
//! turnaround). With five kinds per cycle, the median and the 90th
//! percentile each fall inside one kind's samples rather than between
//! two kinds; the refused spec, parsed and validated in full, is the
//! slowest kind, so the 90th percentile follows spec parsing and
//! validation.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use campaign::{CampaignSpec, ScenarioSpec};
use server::{Server, ServerConfig};

use crate::measure::{
    keep_timing, median, percentile, secs_since, speed_scale, Bracket, Rng, SchedStat,
};
use crate::{Metric, Report};

/// The bearer token the benchmark's server requires.
const TOKEN: &str = "bench-token";

/// Sleep between status polls of a running job: well below the
/// run-to-run spread of the median turnaround (about 1% of ~55 ms), so
/// polling does not quantise it.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// What the client submits and how it paces itself.
#[derive(Debug, Clone)]
pub struct ServeShape {
    /// Distinct specs the client cycles through.
    pub specs: usize,
    /// Each spec's scenario length in simulated seconds. The server
    /// runs at full fidelity, so this is what each run simulates.
    pub duration_s: f64,
    /// How long the client waits for one job before counting it as
    /// failed.
    pub job_timeout: Duration,
    /// Server start-ups timed for `setup_s`.
    pub setups: usize,
    /// Jobs to complete at least, time permitting.
    pub min_jobs: usize,
}

impl ServeShape {
    /// `serve_paper_campaigns`.
    #[must_use]
    pub fn paper_campaigns() -> Self {
        ServeShape {
            specs: 32,
            duration_s: 600.0,
            job_timeout: Duration::from_secs(20),
            setups: 100,
            min_jobs: 100,
        }
    }

    /// The spec cycle: `examples/campaigns/credit-sweep.json` trimmed
    /// to Credit against PAS over two credits for the 20%-class VM, one
    /// replicate, its timeline shortened to `duration_s` (a tenth of
    /// the original at full size, as `--quick` would run it). The grid
    /// and the VMs' activity windows are fixed; the seed draws each
    /// campaign's own seeds, which drive the bursty web traffic.
    #[must_use]
    pub fn spec_texts(&self, seed: u64) -> Vec<String> {
        const CREDITS: [(u32, u32); 4] = [(5, 20), (10, 20), (10, 30), (5, 30)];
        let mut rng = Rng::new(seed, 3);
        let at = |share: f64| (self.duration_s * share).round();
        (0..self.specs)
            .map(|i| {
                let (low, high) = CREDITS[i % CREDITS.len()];
                let base = rng.below(1_000_000);
                format!(
                    r#"{{
  "name": "paper-{i}",
  "scenario": {{
    "kind": "host",
    "machine": "optiplex-755",
    "scheduler": "credit",
    "governor": "stable-ondemand",
    "duration_s": {duration},
    "vms": [
      {{ "name": "v20", "credit_pct": 20,
         "workload": {{ "kind": "web-app", "intensity_pct": 100, "start_s": {v20_start},
                        "active_s": {v20_active}, "bursty": true }} }},
      {{ "name": "v70", "credit_pct": 70,
         "workload": {{ "kind": "web-app", "intensity_pct": 100, "start_s": {v70_start},
                        "active_s": {v70_active}, "bursty": true }} }}
    ]
  }},
  "sweep": [
    {{ "param": "scheduler", "values": ["credit", "pas"] }},
    {{ "param": "credit_pct:v20", "values": [{low}, {high}] }}
  ],
  "seeds": {{ "base": {base}, "replicates": 1 }}
}}"#,
                    duration = self.duration_s,
                    v20_start = at(1.0 / 12.0),
                    v20_active = at(0.75),
                    v70_start = at(5.0 / 12.0),
                    v70_active = at(5.0 / 12.0),
                )
            })
            .collect()
    }
}

/// The in-process answer for one spec: the served summary must equal
/// it byte for byte.
struct Reference {
    text: String,
    /// The same spec with its credit axis aimed at a VM the scenario
    /// does not have, which the server must refuse with 400.
    refused: String,
    summary: String,
    /// Simulated host-seconds one job of this spec covers.
    sim_host_s: f64,
    energy_j: f64,
    sla_violation_pct: Vec<f64>,
}

fn reference(text: &str) -> Result<Reference, String> {
    let spec = CampaignSpec::from_json(text).map_err(|e| e.to_string())?;
    let expansion = campaign::expand(&spec).map_err(|e| e.to_string())?;
    let report = campaign::run(&spec, false, 1).map_err(|e| e.to_string())?;
    let files = report.artefact_files().map_err(|e| e.to_string())?;
    let summary = files
        .into_iter()
        .find(|(name, _)| name.ends_with("-summary.json"))
        .map(|(_, content)| content)
        .ok_or("no summary artefact")?;
    // At full fidelity every run simulates its design point's
    // duration on one host.
    let point_s: f64 = expansion
        .points
        .iter()
        .map(|p| match &p.scenario {
            ScenarioSpec::Host(h) => h.duration_s,
            ScenarioSpec::Fleet(_) => 0.0,
        })
        .sum();
    Ok(Reference {
        text: text.to_owned(),
        refused: text.replace("credit_pct:v20", "credit_pct:v99"),
        summary,
        sim_host_s: point_s * expansion.replicates as f64,
        energy_j: report
            .points
            .iter()
            .filter_map(|p| p.mean("energy_j"))
            .sum(),
        sla_violation_pct: report
            .points
            .iter()
            .filter_map(|p| p.mean("sla_violation_pct"))
            .collect(),
    })
}

/// One HTTP exchange's outcome.
struct Reply {
    status: u16,
    body: String,
}

/// The client: one connection per request. Every round trip except
/// the status polls is timed, in host milliseconds.
struct Client {
    addr: SocketAddr,
    latencies_ms: Vec<f64>,
}

impl Client {
    fn raw(addr: SocketAddr, request: &[u8]) -> std::io::Result<Reply> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(request)?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let text = String::from_utf8_lossy(&raw);
        let status = text
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map_or(String::new(), |(_, b)| b.to_owned());
        Ok(Reply { status, body })
    }

    /// Sends one request untimed; a transport error reads as status 0.
    fn exchange(&self, request: &[u8]) -> Reply {
        Self::raw(self.addr, request).unwrap_or(Reply {
            status: 0,
            body: String::new(),
        })
    }

    /// Sends one request and records its round-trip time.
    fn send(&mut self, request: &[u8]) -> Reply {
        let started = Instant::now();
        let reply = self.exchange(request);
        self.latencies_ms.push(secs_since(started) * 1e3);
        reply
    }
}

/// The bytes of one request, with or without the bearer token.
fn request(method: &str, path: &str, body: &str, auth: bool) -> Vec<u8> {
    let auth = if auth {
        format!("Authorization: Bearer {TOKEN}\r\n")
    } else {
        String::new()
    };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\n{auth}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A string field of a one-line JSON object.
fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let start = body.find(&format!("\"{name}\":"))? + name.len() + 3;
    let rest = body[start..].trim_start().trim_start_matches('"');
    let end = rest.find(['"', ',', '}'])?;
    Some(&rest[..end])
}

/// A running server: its address and the thread serving it.
struct Running {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start_server() -> std::io::Result<Running> {
    let sink: Box<dyn Write + Send> = Box::new(std::io::sink());
    let server = Server::bind(ServerConfig {
        port: 0,
        jobs: 1,
        token: Some(TOKEN.to_owned()),
        rate: None,
        quick: false,
        log: Arc::new(Mutex::new(sink)),
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr()?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Running { addr, thread })
}

/// Asks the server to drain and waits for it to exit.
fn stop_server(running: Running) -> bool {
    let reply = Client::raw(running.addr, &request("POST", "/shutdown", "", true));
    let stopped = matches!(reply, Ok(ref r) if r.status == 200);
    stopped && matches!(running.thread.join(), Ok(Ok(())))
}

/// One timed start-up — bind, serve, first `/healthz` answered 200 —
/// in seconds at the reference speed.
fn timed_setup() -> std::io::Result<(Running, f64)> {
    let (scale, _) = speed_scale();
    let started = Instant::now();
    let running = start_server()?;
    let healthz = request("GET", "/healthz", "", true);
    loop {
        if let Ok(reply) = Client::raw(running.addr, &healthz) {
            if reply.status == 200 {
                return Ok((running, secs_since(started) * scale));
            }
        }
        if secs_since(started) > 10.0 {
            return Err(std::io::Error::other("server never answered /healthz"));
        }
    }
}

/// What one pass of the closed loop observed in its steady cycles;
/// times are in seconds at the reference speed.
#[derive(Default)]
struct Pass {
    /// Round trips, milliseconds at the reference speed.
    latencies_ms: Vec<f64>,
    turnarounds_s: Vec<f64>,
    queue_waits_s: Vec<f64>,
    /// One probe time per steady cycle.
    probes_s: Vec<f64>,
    polls: usize,
    /// Simulated host-seconds per second of each cycle that completed
    /// its job: the job's simulated time over the cycle's own time,
    /// probes left out.
    sim_rates: Vec<f64>,
    /// Requests that carried the token, and those that did not, in
    /// every cycle.
    authed: usize,
    unauthed: usize,
    /// Cycles left out because the machine changed speed.
    unsteady: usize,
    /// Peak RSS after `min_jobs` cycles: the server keeps every
    /// finished job's artefacts, so later peaks grow with the job count
    /// a run happens to reach.
    rss_peak_mb: Option<f64>,
}

/// Runs the closed loop for `budget` seconds and until `min_jobs`
/// cycles were steady (see [`keep_timing`]). Every cycle's
/// responses are checked; only the cycles through which the machine
/// kept its speed are timed.
fn pass(
    shape: &ServeShape,
    client: &mut Client,
    refs: &[Reference],
    report: &mut Report,
    budget: f64,
    min_jobs: usize,
) -> Pass {
    let mut out = Pass::default();
    let started = Instant::now();
    let mut cycle = 0;
    let wake = request("GET", "/healthz", "", true);
    while keep_timing(started, budget, out.probes_s.len(), min_jobs) {
        let r = &refs[cycle % refs.len()];
        cycle += 1;
        client.latencies_ms.clear();
        let bracket = Bracket::open();
        // The server's threads sat idle through the probe; an untimed
        // request wakes them, so the cycle's first timed round trip
        // does not pay the machine's wake-up from idle.
        report.check(client.exchange(&wake).status == 200, "/healthz failed");
        let submitted = Instant::now();
        let reply = client.exchange(&request("POST", "/campaigns", &r.text, true));
        out.authed += 1;
        report.check(reply.status == 202, "campaign submission not accepted");
        let id = field(&reply.body, "id").unwrap_or("0").to_owned();
        let status_req = request("GET", &format!("/campaigns/{id}"), "", true);
        let mut done = false;
        let mut waited = None;
        while reply.status == 202 && secs_since(submitted) < shape.job_timeout.as_secs_f64() {
            std::thread::sleep(POLL_INTERVAL);
            let reply = client.exchange(&status_req);
            out.authed += 1;
            out.polls += 1;
            report.check(reply.status == 200, "status poll failed");
            let state = field(&reply.body, "state").unwrap_or("");
            if state != "queued" && waited.is_none() {
                waited = Some(secs_since(submitted));
            }
            if state == "done" || state == "failed" {
                done = state == "done";
                break;
            }
        }
        report.check(done, "a served job did not finish `done`");
        if done {
            let reply = client.send(&status_req);
            out.authed += 1;
            let state = field(&reply.body, "state");
            report.check(
                reply.status == 200 && state == Some("done"),
                "a finished job's status is not `done`",
            );
            let reply = client.send(&request(
                "GET",
                &format!("/campaigns/{id}/summary"),
                "",
                true,
            ));
            out.authed += 1;
            report.check(reply.status == 200, "summary fetch failed");
            report.check(
                reply.body == r.summary,
                "served summary differs from the in-process one",
            );
        }
        let turnaround_s = secs_since(submitted);
        let reply = client.send(&request("GET", "/healthz", "", true));
        out.authed += 1;
        report.check(reply.status == 200, "/healthz with the token failed");
        let reply = client.send(&request("GET", "/healthz", "", false));
        out.unauthed += 1;
        report.check(
            reply.status == 401,
            "request without token not refused with 401",
        );
        let reply = client.send(&request("POST", "/campaigns", &r.refused, true));
        out.authed += 1;
        report.check(reply.status == 400, "bad spec not refused with 400");
        let busy_s = secs_since(submitted);
        let (scale, probe_s, steady) = bracket.close();
        if cycle == min_jobs.max(1) {
            out.rss_peak_mb = Some(crate::measure::rss_peak_mb());
        }
        if !steady {
            out.unsteady += 1;
            continue;
        }
        out.probes_s.push(probe_s);
        out.latencies_ms
            .extend(client.latencies_ms.iter().map(|ms| ms * scale));
        if done {
            out.turnarounds_s.push(turnaround_s * scale);
            out.queue_waits_s.extend(waited.map(|s| s * scale));
            out.sim_rates.push(r.sim_host_s / (busy_s * scale));
        }
    }
    out
}

/// Total milliseconds per span name from a `/profilez` body.
fn span_totals_ms(body: &str) -> Vec<(String, f64)> {
    let Ok(value) = serde_json::from_str::<serde::Value>(body) else {
        return Vec::new();
    };
    let spans = value
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == "spans"))
        .and_then(|(_, v)| v.as_seq())
        .unwrap_or(&[]);
    spans
        .iter()
        .filter_map(|s| {
            let m = s.as_map()?;
            let name = m.iter().find(|(k, _)| k == "name")?.1.as_str()?;
            let ms = m.iter().find(|(k, _)| k == "ms")?.1.as_num()?;
            Some((name.to_owned(), ms))
        })
        .collect()
}

/// The campaign layer timed call by call, from outside, on the same
/// specs: parse, expand, every design point's run, reduce, artefacts.
/// The specs are run again until `min_points` design-point runs were
/// timed; each round is scaled by a probe timed before it.
fn campaign_layers(refs: &[Reference], min_points: usize, report: &mut Report) -> Vec<Metric> {
    let mut parse = Vec::new();
    let mut expand = Vec::new();
    let mut points = Vec::new();
    let mut reduce = Vec::new();
    let mut artefacts = Vec::new();
    while points.len() < min_points.max(1) {
        for r in refs {
            let (scale, _) = speed_scale();
            let t = Instant::now();
            let spec = CampaignSpec::from_json(&r.text).expect("reference specs parse");
            parse.push(secs_since(t) * scale);
            let t = Instant::now();
            let expansion = campaign::expand(&spec).expect("reference specs expand");
            expand.push(secs_since(t) * scale);
            let mut grouped = Vec::new();
            for point in &expansion.points {
                let mut runs = Vec::new();
                for rep in 0..expansion.replicates {
                    let t = Instant::now();
                    runs.push(campaign::run::run_point(
                        point,
                        spec.seeds.base + rep as u64,
                        false,
                    ));
                    points.push(secs_since(t) * scale);
                }
                grouped.push(runs);
            }
            let labels = expansion
                .points
                .iter()
                .map(|p| (p.label.clone(), p.settings.clone()))
                .collect();
            let t = Instant::now();
            let campaign_report =
                campaign::report::reduce(&spec.name, false, spec.max_runs, labels, grouped);
            reduce.push(secs_since(t) * scale);
            let t = Instant::now();
            let files = campaign_report.artefact_files();
            artefacts.push(secs_since(t) * scale);
            let same = files.ok().and_then(|files| {
                files
                    .into_iter()
                    .find(|(name, _)| name.ends_with("-summary.json"))
                    .map(|(_, content)| content == r.summary)
            });
            report.check(
                same == Some(true),
                "layer-by-layer campaign differs from campaign::run",
            );
        }
    }
    vec![
        Metric::new("campaign.parse_s", median(&parse), "s"),
        Metric::new("campaign.expand_s", median(&expand), "s"),
        Metric::new("campaign.run_point_p50_s", percentile(&points, 50.0), "s"),
        Metric::new("campaign.run_point_p90_s", percentile(&points, 90.0), "s"),
        Metric::new("campaign.reduce_s", median(&reduce), "s"),
        Metric::new("campaign.artefacts_s", median(&artefacts), "s"),
    ]
}

/// `server::http::read_request` on the client's own POST and poll
/// bytes, from an in-memory reader: median seconds per request at the
/// reference speed.
fn http_parse_s(spec_text: &str) -> f64 {
    let requests = [
        request("POST", "/campaigns", spec_text, true),
        request("GET", "/campaigns/1", "", true),
    ];
    let (scale, _) = speed_scale();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for bytes in &requests {
                let mut reader = BufReader::new(&bytes[..]);
                let parsed = server::http::read_request(&mut reader, 1 << 20);
                std::hint::black_box(parsed.is_ok());
            }
            secs_since(t) * scale / requests.len() as f64
        })
        .collect();
    median(&samples)
}

/// Runs the workload for `seconds` (half untraced, half traced when
/// `trace` is set) and reports its metrics.
#[must_use]
pub fn run(shape: &ServeShape, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let refs: Vec<Reference> = match shape
        .spec_texts(seed)
        .iter()
        .map(|t| reference(t))
        .collect()
    {
        Ok(refs) => refs,
        Err(e) => {
            report.check(false, &format!("reference campaign failed: {e}"));
            return report;
        }
    };

    // The first start-up serves the measured loop; the others are
    // timed after it, so their thread churn stays out of its numbers.
    let (running, first_setup) = match timed_setup() {
        Ok(started) => started,
        Err(e) => {
            report.check(false, &format!("server start-up failed: {e}"));
            return report;
        }
    };
    let mut client = Client {
        addr: running.addr,
        latencies_ms: Vec::new(),
    };

    let sched_before = SchedStat::now();
    let profilez = request("GET", "/profilez", "", true);
    let (budget, min_jobs) = if trace {
        (seconds / 2.0, shape.min_jobs / 4)
    } else {
        (seconds, shape.min_jobs)
    };
    let gated = pass(shape, &mut client, &refs, &mut report, budget, min_jobs);
    let traced = trace.then(|| {
        let before = client.exchange(&profilez);
        let traced = pass(shape, &mut client, &refs, &mut report, budget, min_jobs);
        let after = client.exchange(&profilez);
        let ok = before.status == 200 && after.status == 200;
        report.check(ok, "/profilez failed");
        (traced, before.body, after.body)
    });
    let sched = SchedStat::now().since(sched_before);
    report.check(stop_server(running), "server did not shut down cleanly");
    let mut setups = vec![first_setup];
    while setups.len() < shape.setups.max(1) {
        match timed_setup() {
            Ok((server, secs)) => {
                setups.push(secs);
                report.check(stop_server(server), "server did not shut down cleanly");
            }
            Err(e) => {
                report.check(false, &format!("server start-up failed: {e}"));
                break;
            }
        }
    }

    let energy_j: f64 = refs.iter().map(|r| r.energy_j).sum();
    let violations: Vec<f64> = refs
        .iter()
        .flat_map(|r| r.sla_violation_pct.iter().copied())
        .collect();
    let mean_violation = violations.iter().sum::<f64>() / violations.len().max(1) as f64;
    report.e2e = vec![
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("sim_host_s_per_s", median(&gated.sim_rates), "s/s"),
        Metric::new(
            "rss_peak_mb",
            gated
                .rss_peak_mb
                .unwrap_or_else(crate::measure::rss_peak_mb),
            "MiB",
        ),
        Metric::new("energy_mj", energy_j / 1e6, "MJ"),
        Metric::new("sla_ratio", 1.0 - mean_violation / 100.0, "ratio"),
        Metric::new(
            "job_turnaround_p50_s",
            percentile(&gated.turnarounds_s, 50.0),
            "s",
        ),
        Metric::new(
            "job_turnaround_p90_s",
            percentile(&gated.turnarounds_s, 90.0),
            "s",
        ),
        Metric::new(
            "request_p50_ms",
            percentile(&gated.latencies_ms, 50.0),
            "ms",
        ),
        Metric::new(
            "request_p90_ms",
            percentile(&gated.latencies_ms, 90.0),
            "ms",
        ),
    ];
    report.samples = vec![
        ("jobs", gated.turnarounds_s.len()),
        ("requests", gated.latencies_ms.len()),
    ];

    if let Some((traced, before, after)) = traced {
        // Server-side spans are raw host time: scale them by the
        // traced pass's median probe.
        let scale = crate::measure::REFERENCE_PROBE_S / median(&traced.probes_s);
        let (before, after) = (span_totals_ms(&before), span_totals_ms(&after));
        let delta_s = |name: &str| {
            let get = |spans: &[(String, f64)]| {
                spans
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |(_, ms)| *ms)
            };
            (get(&after) - get(&before)) / 1e3 * scale
        };
        // Spans are inclusive of the layers inside them. Every request
        // passes the log and auth layers; only those with the token
        // go further. The first /profilez read's own spans land
        // between the two reads.
        let all = (traced.authed + traced.unauthed + 1) as f64;
        let authed = (traced.authed + 1) as f64;
        let log = delta_s("mw:request_log");
        let auth = delta_s("mw:token_auth");
        let limit = delta_s("mw:rate_limit");
        let validate = delta_s("mw:spec_validation");
        let handler = delta_s("mw:handler");

        let mut layers = campaign_layers(&refs, 100, &mut report);
        layers.extend([
            Metric::new("server.http_parse_s", http_parse_s(&refs[0].text), "s"),
            Metric::new("server.mw.request_log_s", (log - auth) / all, "s"),
            Metric::new("server.mw.token_auth_s", (auth - limit) / all, "s"),
            Metric::new("server.mw.rate_limit_s", (limit - validate) / authed, "s"),
            Metric::new(
                "server.mw.spec_validation_s",
                (validate - handler) / authed,
                "s",
            ),
            Metric::new("server.queue_wait_s", median(&traced.queue_waits_s), "s"),
            Metric::new(
                "server.polls_per_job",
                traced.polls as f64 / traced.turnarounds_s.len().max(1) as f64,
                "count",
            ),
            Metric::new("bench.cpu_s", sched.cpu_s, "s"),
            Metric::new("bench.runq_wait_s", sched.runq_wait_s, "s"),
            Metric::new("bench.probe_s", median(&gated.probes_s), "s"),
            Metric::new(
                "bench.trace_overhead_pct",
                (median(&traced.turnarounds_s) / median(&gated.turnarounds_s) - 1.0) * 100.0,
                "%",
            ),
            Metric::new(
                "bench.jobs",
                (gated.turnarounds_s.len() + traced.turnarounds_s.len()) as f64,
                "count",
            ),
            Metric::new("bench.unsteady_units", gated.unsteady as f64, "count"),
            Metric::new("bench.requests", gated.latencies_ms.len() as f64, "count"),
        ]);
        report.layers = layers;
    }
    report
}
