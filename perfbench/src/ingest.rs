//! The `ingest-fleet` workload: `icfl-server` as its own process, fed
//! over HTTP by this process with at most two connections. Rounds of many
//! short tenant sessions (half fig2, half causalbench, a few trace passes
//! each) go as a closed loop of 64-scrape batches over two keep-alive
//! connections that take turns over the tenants; a 429 is retried after
//! the server's hint.
//!
//! Set-up trains the quick-mode models from the seed into a fresh
//! registry, records one scrape trace per app, starts the server and
//! registers the first round's tenants. The server's CPU time and peak RSS
//! are read from `/proc/<pid>`, so the client's own cost stays out of
//! them. The traced run adds one long-lived durable tenant to the
//! in-process replay (see [`replay`]).

use crate::replay;
use crate::spans::Spans;
use crate::train::{self, AppRun};
use crate::util::{self, Outcome};
use icfl_apps::App;
use icfl_core::RunConfig;
use icfl_micro::FaultKind;
use icfl_online::{
    record_trace, Episode, IncidentSchedule, ModelMeta, ModelRegistry, OnlineConfig,
};
use icfl_scenario::seeds;
use icfl_scenario::trace::{encode_scrape_line, ScrapeTrace};
use icfl_server::{HttpClient, IncidentsReport};
use icfl_sim::{SimDuration, SimTime};
use icfl_telemetry::MetricCatalog;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scrapes per batch on `ingest-fleet`.
const FLEET_BATCH: usize = 64;
/// Tenants per app in one `ingest-fleet` round.
const FLEET_TENANTS_PER_APP: usize = 4;
/// Trace passes each `ingest-fleet` tenant streams.
const FLEET_PASSES: usize = 3;
/// Trace passes of the long-lived tenant the traced run replays with a
/// `TenantStore` (8162 scrapes).
const LONG_PASSES: usize = 22;
/// Scrapes per batch of the long-lived tenant.
const LONG_BATCH: usize = 4;
/// Client connections (never more than the cores).
const MAX_CONNS: usize = 2;
/// A batch the server still refuses this long after its first try has
/// failed.
pub const RETRY_DEADLINE: Duration = Duration::from_secs(30);

/// The apps served, in tenant order.
pub fn apps() -> [App; 2] {
    [icfl_apps::fig2_topology(), icfl_apps::causalbench()]
}

/// Two-outage schedule at hop-relative instants (the same placement
/// `serverbench` uses), valid for any window geometry.
fn schedule_for(cfg: &OnlineConfig, targets: &[icfl_micro::ServiceId]) -> IncidentSchedule {
    let hop = cfg.windows.hop;
    let hops = |n: u64| SimDuration::from_nanos(hop.as_nanos() * n);
    let first = SimTime::ZERO + cfg.warmup + cfg.windows.window + hops(16);
    let len = hops(10);
    IncidentSchedule::new(vec![
        Episode::single(first, targets[0], FaultKind::ServiceUnavailable, len),
        Episode::single(
            first + hops(32),
            targets[1 % targets.len()],
            FaultKind::ServiceUnavailable,
            len,
        ),
    ])
}

/// What one set-up made.
pub struct Fixture {
    /// The registry the server loads models from.
    pub registry: PathBuf,
    /// One recorded trace per app, in [`apps`] order.
    pub traces: Vec<ScrapeTrace>,
    /// Training and evaluation of each app.
    pub runs: Vec<AppRun>,
}

/// Trains, evaluates and registers the quick-mode models and records one
/// trace per app, under `dir/registry`.
pub fn prepare(seed: u64, dir: &Path, spans: &Spans, out: &mut Outcome) -> Result<Fixture, String> {
    let registry_root = dir.join("registry");
    if registry_root.exists() {
        std::fs::remove_dir_all(&registry_root).map_err(|e| e.to_string())?;
    }
    let registry = ModelRegistry::open(&registry_root).map_err(|e| e.to_string())?;
    let online = OnlineConfig::quick();
    let catalog = MetricCatalog::derived_all();
    let mut traces = Vec::new();
    let mut runs = Vec::new();
    for app in apps() {
        let run = train::train_eval(
            &app,
            &RunConfig::quick(seed),
            &RunConfig::quick(seeds::eval_phase(seed)),
            None,
            spans,
            out,
        )?;
        let campaign = &run.campaign;
        let meta = ModelMeta {
            app: app.name.clone(),
            seed,
            catalog: catalog.name().to_owned(),
            detector: RunConfig::default_detector().kind.to_string(),
            num_services: run.model.num_services(),
            targets: campaign
                .targets()
                .iter()
                .map(|&t| campaign.service_names()[t.index()].clone())
                .collect(),
            note: "perfbench".into(),
        };
        registry
            .save(&app.name, meta, &run.model)
            .map_err(|e| e.to_string())?;
        let schedule = schedule_for(&online, campaign.targets());
        traces.push(record_trace(&app, &schedule, &online, seed).map_err(|e| e.to_string())?);
        runs.push(run);
    }
    Ok(Fixture {
        registry: registry_root,
        traces,
        runs,
    })
}

/// The `icfl-server` process; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// `host:port`.
    pub addr: String,
    /// The process id, as `/proc` names it.
    pub pid: String,
}

impl Server {
    /// Starts `bin` over `registry` on an ephemeral loopback port and
    /// waits until it accepts traffic.
    pub fn start(bin: &Path, registry: &Path, dir: &Path) -> Result<Server, String> {
        let port_file = dir.join("server.port");
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = Command::new(bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--models")
            .arg(registry)
            .arg("--port-file")
            .arg(&port_file)
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit());
        let child = cmd
            .spawn()
            .map_err(|e| format!("start {}: {e}", bin.display()))?;
        let pid = child.id().to_string();
        let mut server = Server {
            child,
            addr: String::new(),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&port_file) {
                server.addr = addr.trim().to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("icfl-server exited at start: {status}"));
            }
            if Instant::now() > deadline {
                return Err("icfl-server did not write its port file in 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Kills the process and waits for it to end.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One tenant's stream: the encoded request bodies of its batches.
pub struct Stream {
    /// Index into [`apps`] / the fixture's traces.
    pub app: usize,
    /// Tenant name, `<app>:<suffix>` (the app prefix keys the model).
    pub tenant: String,
    /// Request bodies, one per batch.
    pub bodies: Arc<Vec<String>>,
    /// Scrapes per batch.
    pub sizes: Arc<Vec<usize>>,
    /// Whole trace passes in the stream.
    pub passes: usize,
    /// Replayed with a `TenantStore`, as under `--state-dir`.
    pub durable: bool,
}

impl Stream {
    /// Scrapes in the stream.
    pub fn scrapes(&self) -> u64 {
        self.sizes.iter().map(|&n| n as u64).sum()
    }
}

/// Time shift of trace pass `l`, so timestamps keep increasing across
/// passes (the load generator's looping rule).
fn pass_offset(trace: &ScrapeTrace, l: usize) -> u64 {
    let last = trace.scrapes.last().map_or(0, |&(t, _)| t);
    l as u64 * (last + trace.meta.interval_nanos)
}

/// Request bodies and their scrape counts, shared by same-app tenants.
type Encoded = (Arc<Vec<String>>, Arc<Vec<usize>>);

/// Encodes `passes` passes of `trace` as batches of `batch` scrapes (the
/// last batch may be short).
pub fn encode(trace: &ScrapeTrace, passes: usize, batch: usize) -> (Vec<String>, Vec<usize>) {
    let mut bodies = Vec::new();
    let mut sizes = Vec::new();
    let mut body = String::new();
    let mut n = 0;
    for l in 0..passes {
        let off = pass_offset(trace, l);
        for (t, row) in &trace.scrapes {
            body.push_str(&encode_scrape_line(t + off, row));
            body.push('\n');
            n += 1;
            if n == batch {
                bodies.push(std::mem::take(&mut body));
                sizes.push(n);
                n = 0;
            }
        }
    }
    if n > 0 {
        bodies.push(body);
        sizes.push(n);
    }
    (bodies, sizes)
}

/// Registers `tenant` with its trace header.
fn register(client: &mut HttpClient, tenant: &str, trace: &ScrapeTrace) -> Result<(), String> {
    let meta = serde_json::to_string(&trace.meta).map_err(|e| e.to_string())?;
    let resp = client
        .post(&format!("/session/{tenant}"), meta.as_bytes())
        .map_err(|e| format!("register {tenant}: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "register {tenant}: {} {}",
            resp.status,
            resp.text().trim()
        ));
    }
    Ok(())
}

/// Marks `tenant` draining and waits until its queue is empty.
fn drain(client: &mut HttpClient, tenant: &str) -> Result<(), String> {
    let resp = client
        .get(&format!("/drain/{tenant}"))
        .map_err(|e| format!("drain {tenant}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("drain {tenant}: {}", resp.status));
    }
    Ok(())
}

fn incidents(client: &mut HttpClient, tenant: &str) -> Result<IncidentsReport, String> {
    let resp = client
        .get(&format!("/incidents/{tenant}"))
        .map_err(|e| format!("incidents {tenant}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("incidents {tenant}: {}", resp.status));
    }
    serde_json::from_str(&resp.text()).map_err(|e| format!("incidents {tenant}: {e}"))
}

/// Checks one drained tenant: the server accepted exactly the scrapes
/// sent, no worker error, and every fault episode of the passes sent
/// (ground truth from the trace header) has a confirmed verdict whose
/// top-1 is one of the episode's services. Returns (expected, confirmed).
pub fn check_tenant(
    trace: &ScrapeTrace,
    stream: &Stream,
    report: &IncidentsReport,
    out: &mut Outcome,
) -> (u64, u64) {
    let tenant = &stream.tenant;
    out.check(report.scrapes_accepted == stream.scrapes(), || {
        format!(
            "{tenant}: server accepted {} scrapes, client sent {}",
            report.scrapes_accepted,
            stream.scrapes()
        )
    });
    out.check(report.worker_error.is_none(), || {
        format!("{tenant}: worker error {:?}", report.worker_error)
    });
    let slack = OnlineConfig::quick().match_slack.as_nanos();
    let mut expected = 0;
    for l in 0..stream.passes {
        let off = pass_offset(trace, l);
        for ep in &trace.meta.episodes {
            expected += 1;
            let (start, end) = (ep.start_nanos + off, ep.end_nanos + off + slack);
            let inside: Vec<_> = report
                .verdicts
                .iter()
                .filter(|v| {
                    let at = (v.confirmed_at_secs * 1e9).round() as u64;
                    at >= start && at <= end
                })
                .collect();
            out.check(!inside.is_empty(), || {
                format!(
                    "{tenant}: pass {l} episode at {}s on {:?} has no confirmed verdict",
                    start / 1_000_000_000,
                    ep.services
                )
            });
            let named = inside
                .iter()
                .any(|v| v.top1.as_ref().is_some_and(|s| ep.services.contains(s)));
            if !inside.is_empty() && !named {
                out.count("episodes_top1_wrong", 1);
            }
        }
    }
    (expected, report.verdicts.len() as u64)
}

/// Reads the median of `icfl_server_batch_process_latency` from the
/// server's `/metrics`, in milliseconds (buckets summed over tenants,
/// interpolated inside the covering bucket).
fn batch_process_p50_ms(client: &mut HttpClient) -> Result<f64, String> {
    let text = client
        .get("/metrics")
        .map_err(|e| format!("metrics: {e}"))?
        .text();
    let mut buckets: std::collections::BTreeMap<u64, (f64, u64)> = Default::default();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("icfl_server_batch_process_latency_bucket{") else {
            continue;
        };
        let Some((labels, value)) = rest.rsplit_once("} ") else {
            continue;
        };
        let Some(le) = labels
            .split(',')
            .find_map(|kv| kv.strip_prefix("le=\""))
            .map(|v| v.trim_end_matches('"'))
        else {
            continue;
        };
        let bound = if le == "+Inf" {
            f64::INFINITY
        } else {
            le.parse::<f64>().map_err(|e| format!("le {le}: {e}"))?
        };
        let count: u64 = value
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bucket value {value:?}"))?;
        let e = buckets.entry(bound.to_bits()).or_insert((bound, 0));
        e.1 += count;
    }
    let mut b: Vec<(f64, u64)> = buckets.into_values().collect();
    b.sort_by(|x, y| x.0.total_cmp(&y.0));
    let total = b.last().map_or(0, |x| x.1);
    if total == 0 {
        return Err("no batch-process latency observed".into());
    }
    let rank = total as f64 / 2.0;
    let (mut lo, mut lo_n) = (0.0, 0u64);
    for (bound, cum) in b {
        if cum as f64 >= rank {
            if bound.is_infinite() || cum == lo_n {
                return Ok(lo * 1e3);
            }
            let frac = (rank - lo_n as f64) / (cum - lo_n) as f64;
            return Ok((lo + (bound - lo) * frac) * 1e3);
        }
        lo = bound;
        lo_n = cum;
    }
    Ok(lo * 1e3)
}

/// The figures of the timed phase.
#[derive(Default)]
struct Timed {
    scrapes: u64,
    batches: u64,
    retried: u64,
    failed: u64,
    /// Server CPU seconds from each first send until the drains.
    cpu_s: f64,
    /// Scrapes over the wall from first send until every tenant drained,
    /// per round.
    scrapes_per_s: Vec<f64>,
    /// Acknowledgement latency of every batch of every round.
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Server peak RSS per round's server process, MiB.
    peak_rss_mb: Vec<f64>,
    /// `icfl_server_batch_process_latency` median of the first server.
    process_p50_ms: f64,
    incidents_expected: u64,
    incidents_confirmed: u64,
    /// The streams of the first round, for the traced replay.
    first_round: Vec<Stream>,
    /// Incidents confirmed per stream of the first round.
    first_round_confirmed: Vec<u64>,
}

/// Starts a server and registers `streams` on it.
fn serve(bin: &Path, fixture: &Fixture, dir: &Path, streams: &[Stream]) -> Result<Server, String> {
    let server = Server::start(bin, &fixture.registry, dir)?;
    let mut client = HttpClient::connect(server.addr.clone());
    for s in streams {
        register(&mut client, &s.tenant, &fixture.traces[s.app])?;
    }
    Ok(server)
}

/// Runs the workload end to end. With `serving_only`, a traced run
/// reports only the serving layers: one round, models trained untraced.
pub fn run(
    seed: u64,
    seconds: f64,
    server_bin: &Path,
    dir: &Path,
    spans: &Spans,
    serving_only: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let reps = if spans.enabled() {
        1
    } else {
        train::SETUP_REPS
    };
    let untraced = Spans::new(false);
    let setup_spans = if serving_only { &untraced } else { spans };
    let seconds = if serving_only { 0.0 } else { seconds };
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut eval_s = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        // Every repetition makes everything afresh; the last one serves.
        drop(kept.take());
        let t = Instant::now();
        let fixture = prepare(seed, dir, setup_spans, out)?;
        let streams = fleet_streams(&fixture, 0);
        let server = serve(server_bin, &fixture, dir, &streams)?;
        setup_s.push(util::secs(t));
        train_s.push(fixture.runs.iter().map(|r| r.train_s).sum());
        eval_s.push(fixture.runs.iter().map(|r| r.eval_s).sum());
        kept = Some((fixture, server, streams));
    }
    let (fixture, server, streams) = kept.expect("at least one set-up");
    out.attempted += fixture.runs.iter().map(|r| r.ops).sum::<u64>();

    let timed = fleet(&fixture, server, streams, server_bin, dir, seconds, out)?;
    out.attempted += timed.batches + timed.failed;
    out.failed += timed.failed;
    out.count("batches_posted", timed.batches + timed.failed);
    out.count("batches_retried_429", timed.retried);
    out.count("batches_failed", timed.failed);
    out.count("incidents_expected", timed.incidents_expected);
    out.count("incidents_confirmed", timed.incidents_confirmed);

    if spans.enabled() {
        if timed.failed > 0 {
            // The replay would compare against cut-short streams.
            return Ok(());
        }
        out.metric(
            "server.tenant.accept_ratio",
            timed.batches as f64 / (timed.batches + timed.retried) as f64,
            "ratio",
        );
        out.metric("server.batch_process_ms.p50", timed.process_p50_ms, "ms");
        // The tail of a closed loop on a small machine is set by the
        // scheduler: it is shown here, not bounded as an end-to-end metric.
        out.metric(
            "client.ack_ms.p99",
            util::quantile(&timed.ack_ms, 0.99).unwrap_or(0.0),
            "ms",
        );
        out.metric(
            "client.lag_ms.p99",
            util::quantile(&timed.lag_ms, 0.99).unwrap_or(0.0),
            "ms",
        );
        let mut streams = timed.first_round;
        streams.push(long_stream(&fixture));
        let mut confirmed = replay::layers(&fixture, &streams, &dir.join("replay"), spans, out)?;
        confirmed.pop();
        out.check(confirmed == timed.first_round_confirmed, || {
            format!(
                "in-process replay confirmed {confirmed:?} incidents, the server {:?}",
                timed.first_round_confirmed
            )
        });
        if serving_only {
            return Ok(());
        }
        let first = &fixture.runs[1];
        train::sim_layers(
            &apps()[1],
            &RunConfig::quick(seed),
            &RunConfig::quick(seeds::eval_phase(seed)),
            &first.campaign,
            first.train_s + first.eval_s,
            spans,
            out,
        )?;
        train::core_layers(spans, out);
        return Ok(());
    }
    out.metric("setup_s", util::median(&setup_s), "s");
    out.metric("train_s", util::median(&train_s), "s");
    out.metric("eval_s", util::median(&eval_s), "s");
    out.metric("scrapes_per_s", util::median(&timed.scrapes_per_s), "1/s");
    out.metric(
        "server_cpu_us_per_scrape",
        timed.cpu_s * 1e6 / timed.scrapes as f64,
        "us",
    );
    out.metric("ack_p50_ms", util::median(&timed.ack_ms), "ms");
    out.metric("peak_rss_mb", util::median(&timed.peak_rss_mb), "MiB");
    Ok(())
}

/// The tenants of fleet round `r`: per app, [`FLEET_TENANTS_PER_APP`]
/// tenants of [`FLEET_PASSES`] passes, apps interleaved.
fn fleet_streams(fixture: &Fixture, r: usize) -> Vec<Stream> {
    let encoded: Vec<Encoded> = fixture
        .traces
        .iter()
        .map(|t| {
            let (b, n) = encode(t, FLEET_PASSES, FLEET_BATCH);
            (Arc::new(b), Arc::new(n))
        })
        .collect();
    let mut streams = Vec::new();
    for i in 0..FLEET_TENANTS_PER_APP {
        for (app, trace) in fixture.traces.iter().enumerate() {
            streams.push(Stream {
                app,
                tenant: format!("{}:r{r}t{i}", trace.meta.app),
                bodies: Arc::clone(&encoded[app].0),
                sizes: Arc::clone(&encoded[app].1),
                passes: FLEET_PASSES,
                durable: false,
            });
        }
    }
    streams
}

/// Checks every drained tenant and adds its figures to `timed`.
fn finish_round(
    fixture: &Fixture,
    streams: &[&Stream],
    client: &mut HttpClient,
    timed: &mut Timed,
    first: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    for s in streams {
        let report = incidents(client, &s.tenant)?;
        timed.scrapes += s.scrapes();
        let (e, c) = check_tenant(&fixture.traces[s.app], s, &report, out);
        timed.incidents_expected += e;
        timed.incidents_confirmed += c;
        if first {
            timed.first_round_confirmed.push(c);
        }
    }
    Ok(())
}

/// `ingest-fleet`: whole rounds until `seconds` have passed. Each round is
/// one server process with [`FLEET_TENANTS_PER_APP`] tenants per app,
/// streamed over the connections in turn and drained; the clock and the
/// server's CPU run from the first send to the last drain. A fresh server
/// per round keeps the tenant count, and so the server's threads and
/// memory, the same in every round.
fn fleet(
    fixture: &Fixture,
    first_server: Server,
    first_streams: Vec<Stream>,
    bin: &Path,
    dir: &Path,
    seconds: f64,
    out: &mut Outcome,
) -> Result<Timed, String> {
    let conns = MAX_CONNS.min(cores());
    let mut timed = Timed::default();
    let started = Instant::now();
    let mut next = Some((first_server, first_streams));
    let mut r = 0;
    while r == 0 || util::secs(started) < seconds {
        let (mut server, streams) = match next.take() {
            Some(ready) => ready,
            None => {
                let streams = fleet_streams(fixture, r);
                (serve(bin, fixture, dir, &streams)?, streams)
            }
        };
        let mut client = HttpClient::connect(server.addr.clone());
        let cpu0 = util::cpu_seconds(&server.pid)?;
        let t = Instant::now();
        let per_conn: Vec<ConnFigures> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let mine: Vec<&Stream> = streams.iter().skip(c).step_by(conns).collect();
                    let addr = server.addr.clone();
                    scope.spawn(move || turn_taking(&addr, &mine))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for s in &streams {
            drain(&mut client, &s.tenant)?;
        }
        let wall = util::secs(t);
        timed.cpu_s += util::cpu_seconds(&server.pid)? - cpu0;
        timed
            .scrapes_per_s
            .push(streams.iter().map(Stream::scrapes).sum::<u64>() as f64 / wall);
        timed.peak_rss_mb.push(util::peak_rss_mib(&server.pid)?);
        let mut cut_short = Vec::new();
        for f in per_conn {
            timed.batches += f.batches;
            timed.retried += f.retried;
            timed.failed += f.failed;
            cut_short.extend(f.cut_short);
            timed.ack_ms.extend(f.ack_ms);
            timed.lag_ms.extend(f.lag_ms);
        }
        if r == 0 {
            timed.process_p50_ms = batch_process_p50_ms(&mut client)?;
        }
        for (tenant, why) in &cut_short {
            eprintln!("{tenant}: {why}");
        }
        // The checks speak of the streams whose every batch was acked.
        let whole: Vec<&Stream> = streams
            .iter()
            .filter(|s| cut_short.iter().all(|(t, _)| *t != s.tenant))
            .collect();
        finish_round(fixture, &whole, &mut client, &mut timed, r == 0, out)?;
        server.stop();
        if r == 0 {
            timed.first_round = streams;
        }
        r += 1;
        if !cut_short.is_empty() {
            break;
        }
    }
    out.count("rounds", r as u64);
    Ok(timed)
}

/// One connection's tally.
#[derive(Default)]
struct ConnFigures {
    batches: u64,
    retried: u64,
    failed: u64,
    /// Tenants whose stream stopped at a failed batch, with the reason.
    cut_short: Vec<(String, String)>,
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

/// A closed loop over one keep-alive connection that takes turns over
/// `streams`: one batch of each tenant in turn. A 429 parks that tenant
/// until the server's hint has passed and moves on to the next. A batch
/// that fails (transport error, an unexpected answer, or still refused
/// after [`RETRY_DEADLINE`]) is counted and stops its tenant's stream.
/// The lag is how long a tenant's next batch was ready before the
/// connection got to it.
fn turn_taking(addr: &str, streams: &[&Stream]) -> ConnFigures {
    let mut client = HttpClient::connect(addr.to_owned());
    let mut f = ConnFigures::default();
    let now = Instant::now();
    // Per tenant: next batch, when it may be sent, when it became ready,
    // and when its first attempt was made.
    let mut next = vec![0usize; streams.len()];
    let mut not_before = vec![now; streams.len()];
    let mut ready_since = vec![now; streams.len()];
    let mut first_try: Vec<Option<Instant>> = vec![None; streams.len()];
    let mut left = streams.len();
    let mut i = 0;
    while left > 0 {
        let mut picked = None;
        for k in 0..streams.len() {
            let j = (i + k) % streams.len();
            if next[j] < streams[j].bodies.len() && not_before[j] <= Instant::now() {
                picked = Some(j);
                break;
            }
        }
        let Some(j) = picked else {
            let wake = (0..streams.len())
                .filter(|&j| next[j] < streams[j].bodies.len())
                .map(|j| not_before[j])
                .min()
                .expect("a tenant is left");
            std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            continue;
        };
        i = j + 1;
        let s = streams[j];
        let b = next[j];
        let sent_at = Instant::now();
        if first_try[j].is_none() {
            f.lag_ms
                .push(sent_at.duration_since(ready_since[j]).as_secs_f64() * 1e3);
            first_try[j] = Some(sent_at);
        }
        let failure = match client.post(&format!("/ingest/{}", s.tenant), s.bodies[b].as_bytes())
        {
            Err(e) => Some(format!("transport: {e}")),
            Ok(resp) if resp.status == 200 => {
                let want = format!("{{\"accepted\":{}}}", s.sizes[b]);
                if resp.text().trim() == want {
                    let done = Instant::now();
                    let first = first_try[j].take().expect("set at first attempt");
                    f.ack_ms
                        .push(done.duration_since(first).as_secs_f64() * 1e3);
                    f.batches += 1;
                    next[j] += 1;
                    ready_since[j] = done;
                    if next[j] == s.bodies.len() {
                        left -= 1;
                    }
                    None
                } else {
                    Some(format!("ack {:?}", resp.text()))
                }
            }
            Ok(resp) if resp.status == 429 => {
                let first = first_try[j].expect("set at first attempt");
                if first.elapsed() >= RETRY_DEADLINE {
                    Some(format!(
                        "still refused {} s after its first try",
                        RETRY_DEADLINE.as_secs()
                    ))
                } else {
                    f.retried += 1;
                    let ms = resp
                        .header("x-retry-after-ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(25);
                    not_before[j] = Instant::now() + Duration::from_millis(ms);
                    None
                }
            }
            Ok(resp) => Some(format!("{} {}", resp.status, resp.text().trim())),
        };
        if let Some(why) = failure {
            // The tenant's later batches would leave a gap: its stream
            // stops here.
            f.failed += 1;
            f.cut_short
                .push((s.tenant.clone(), format!("batch {b} failed: {why}")));
            next[j] = s.bodies.len();
            left -= 1;
        }
    }
    f
}

/// The long-lived tenant of the traced replay: causalbench, [`LONG_PASSES`]
/// passes in [`LONG_BATCH`]-scrape batches, replayed with a store.
fn long_stream(fixture: &Fixture) -> Stream {
    let app = 1;
    let trace = &fixture.traces[app];
    let (bodies, sizes) = encode(trace, LONG_PASSES, LONG_BATCH);
    Stream {
        app,
        tenant: format!("{}:long", trace.meta.app),
        bodies: Arc::new(bodies),
        sizes: Arc::new(sizes),
        passes: LONG_PASSES,
        durable: true,
    }
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
