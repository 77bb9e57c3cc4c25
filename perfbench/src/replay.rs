//! The traced run's in-process replay. The server's own threads cannot be
//! timed from outside, so each tenant's exact batches go through the same
//! public layers here, each call wrapped in a span:
//!
//! `http::read_request` → `trace::parse_scrape_line` →
//! `TenantPipeline::submit` (its worker pushes into a `FeedSession`, with a
//! `TenantStore` for a durable stream) — plus standalone `FeedSession::push`,
//! `FeedSession::checkpoint`, `WindowEngine::push` and `TenantStore`
//! append/sync/checkpoint, which the pipeline's worker calls out of reach.
//! Cadences are the server's own, from `ServerConfig::quick`.

use crate::ingest::{Fixture, Stream, RETRY_DEADLINE};
use crate::spans::Spans;
use crate::util::{self, Outcome};
use icfl_online::{FeedConfig, FeedSession, ModelProvenance, ModelRegistry};
use icfl_scenario::trace::parse_scrape_line;
use icfl_server::tenant::Reject;
use icfl_server::wal::{StoreConfig, StoredCheckpoint, StoredMeta, TenantStore};
use icfl_server::{http, Batch, PipelineOptions, ServerConfig, TenantPipeline};
use icfl_sim::SimTime;
use icfl_telemetry::{EngineConfig, WindowEngine};
use std::io::BufReader;
use std::path::Path;
use std::time::{Duration, Instant};

/// A fresh session for `tenant`, set up the way the server sets one up.
fn session(
    registry: &ModelRegistry,
    tenant: &str,
    names: &[String],
    feed: &FeedConfig,
) -> Result<FeedSession, String> {
    let key = tenant.split(':').next().unwrap_or(tenant);
    let record = registry.load_latest(key).map_err(|e| e.to_string())?;
    let provenance = ModelProvenance {
        key: key.to_owned(),
        version: record.version,
        meta: record.meta,
    };
    Ok(FeedSession::new(record.model, names.to_vec(), feed.clone())
        .map_err(|e| e.to_string())?
        .with_provenance(provenance))
}

/// Per-tenant figures of the standalone session.
struct Pushes {
    us: Vec<f64>,
    ticks: u64,
    confirmed: u64,
}

/// Replays `streams`; reports every serving-layer metric and returns the
/// incidents each tenant's pipeline confirmed. A durable stream's store
/// must afterwards recover every batch and scrape it was given.
pub fn layers(
    fixture: &Fixture,
    streams: &[Stream],
    dir: &Path,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<Vec<u64>, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let registry = ModelRegistry::open(&fixture.registry).map_err(|e| e.to_string())?;
    let server_cfg = ServerConfig::quick(&fixture.registry);
    let feed = server_cfg.feed.clone();
    let opts = PipelineOptions {
        queue_cap: server_cfg.queue_cap,
        retry_after_ms: server_cfg.retry_after_ms,
        checkpoint_every_ticks: server_cfg.checkpoint_every_ticks,
        max_worker_restarts: server_cfg.max_worker_restarts,
    };
    let fsync_every = server_cfg.fsync_every_batches.max(1) as usize;

    let mut parse_us = Vec::new();
    let mut decode_s = 0.0;
    let mut submit_us = Vec::new();
    let mut engine_s = 0.0;
    let mut append_us = Vec::new();
    let mut sync_us = Vec::new();
    let mut scrapes = 0u64;
    let mut wal_bytes = 0u64;
    let mut confirmed_by_pipeline = Vec::new();
    let mut pushes = Vec::new();
    // The tenant whose stream shows session age: the longest, last on ties.
    let aged = (0..streams.len())
        .max_by_key(|&i| (streams[i].scrapes(), i))
        .ok_or("no streams to replay")?;
    let mut aged_checkpoint = None;

    for (i, s) in streams.iter().enumerate() {
        let trace = &fixture.traces[s.app];
        let names = &trace.meta.service_names;
        let root = spans.open("replay.tenant", 0, 2);
        let store = if s.durable {
            let meta = StoredMeta {
                tenant: s.tenant.clone(),
                service_names: names.clone(),
            };
            let state = dir.join("pipeline");
            Some(
                TenantStore::create(&state, &meta)
                    .map_err(|e| e.to_string())?
                    .with_config(StoreConfig {
                        fsync_every_batches: fsync_every as u32,
                    }),
            )
        } else {
            None
        };
        let pipeline = TenantPipeline::open_with(
            &s.tenant,
            session(&registry, &s.tenant, names, &feed)?,
            opts,
            store,
        );
        // The standalone store never syncs on its own: sync is timed apart,
        // at the server's cadence.
        let mut wal = TenantStore::create(
            &dir.join("wal"),
            &StoredMeta {
                tenant: s.tenant.clone(),
                service_names: names.clone(),
            },
        )
        .map_err(|e| e.to_string())?
        .with_config(StoreConfig {
            fsync_every_batches: u32::MAX,
        });
        let mut standalone = session(&registry, &s.tenant, names, &feed)?;
        let mut engine = engine_for(&feed, names.len());
        let mut p = Pushes {
            us: Vec::with_capacity(s.scrapes() as usize),
            ticks: 0,
            confirmed: 0,
        };
        let path = format!("/ingest/{}", s.tenant);
        for (b, body) in s.bodies.iter().enumerate() {
            let mut raw = Vec::with_capacity(body.len() + 64);
            http::write_request(&mut raw, "POST", &path, body.as_bytes())
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let req = http::read_request(&mut BufReader::new(raw.as_slice()), None)
                .map_err(|e| e.to_string())?
                .ok_or("empty request")?;
            spans.record("server.http.parse", root.id(), 2, t);
            parse_us.push(util::secs(t) * 1e6);

            let t = Instant::now();
            let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
            let mut batch: Batch = Vec::with_capacity(s.sizes[b]);
            for line in text.lines().filter(|l| !l.is_empty()) {
                batch.push(parse_scrape_line(line)?);
            }
            spans.record("scenario.decode", root.id(), 2, t);
            decode_s += util::secs(t);
            scrapes += batch.len() as u64;

            let t = Instant::now();
            wal.append(b as u64 + 1, &batch)
                .map_err(|e| e.to_string())?;
            spans.record("server.wal.append", root.id(), 2, t);
            append_us.push(util::secs(t) * 1e6);
            if (b + 1) % fsync_every == 0 {
                let t = Instant::now();
                wal.sync().map_err(|e| e.to_string())?;
                spans.record("server.wal.sync", root.id(), 2, t);
                sync_us.push(util::secs(t) * 1e6);
            }

            for (at, row) in &batch {
                let t = Instant::now();
                engine.push(SimTime::from_nanos(*at), row.clone());
                engine_s += util::secs(t);
                let t = Instant::now();
                let progress = standalone
                    .push(SimTime::from_nanos(*at), row.clone())
                    .map_err(|e| e.to_string())?;
                p.us.push(util::secs(t) * 1e6);
                p.ticks += u64::from(progress.ticks);
                p.confirmed += u64::from(progress.confirmed);
            }

            submit(&pipeline, batch, &mut submit_us, spans, root.id())?;
        }
        while !pipeline.drained() {
            std::thread::sleep(Duration::from_millis(1));
        }
        confirmed_by_pipeline.push(pipeline.with_session(|s| s.verdicts().len() as u64));
        drop(pipeline);
        if s.durable {
            let rec = icfl_server::wal::recover(&dir.join("pipeline"), &s.tenant)
                .map_err(|e| format!("recover {}: {e}", s.tenant))?;
            let batches = s.bodies.len() as u64;
            out.check(
                rec.last_seq == batches && rec.total_scrapes == s.scrapes(),
                || {
                    format!(
                        "{}: WAL recovers {} batches / {} scrapes, {batches} / {} were accepted",
                        s.tenant,
                        rec.last_seq,
                        rec.total_scrapes,
                        s.scrapes()
                    )
                },
            );
        }

        if i == aged {
            let t = Instant::now();
            let ckpt = standalone.checkpoint();
            spans.record("online.checkpoint", root.id(), 2, t);
            let ckpt_us = util::secs(t) * 1e6;
            let bytes = serde_json::to_string(&ckpt)
                .map_err(|e| e.to_string())?
                .len();
            let stored = StoredCheckpoint {
                wal_seq: s.bodies.len() as u64,
                scrapes: s.scrapes(),
                feed: ckpt,
            };
            let t = Instant::now();
            wal.write_checkpoint(&stored).map_err(|e| e.to_string())?;
            spans.record("server.wal.checkpoint", root.id(), 2, t);
            aged_checkpoint = Some((ckpt_us, bytes as f64, util::secs(t) * 1e3));
            let overhead = trace_overhead(&registry, s, names, &feed)?;
            out.metric("bench.trace_overhead_ratio", overhead, "ratio");
        }
        wal.sync().map_err(|e| e.to_string())?;
        // The batch log alone: the tenant's directory also holds its
        // meta.json and, for the aged tenant, the checkpoint just written.
        let log = dir.join("wal").join(&s.tenant).join("wal.jsonl");
        wal_bytes += std::fs::metadata(&log)
            .map_err(|e| format!("{}: {e}", log.display()))?
            .len();
        pushes.push(p);
        root.close();
    }

    let (ckpt_us, ckpt_bytes, ckpt_ms) = aged_checkpoint.expect("the aged tenant was replayed");
    let aged_us = &pushes[aged].us;
    let tenth = (aged_us.len() / 10).max(1);
    out.metric("server.http.parse_us", util::median(&parse_us), "us");
    out.metric("scenario.decode_us", decode_s * 1e6 / scrapes as f64, "us");
    out.metric(
        "server.tenant.submit_us.p50",
        util::median(&submit_us),
        "us",
    );
    out.metric(
        "server.tenant.submit_us.p99",
        util::quantile(&submit_us, 0.99).unwrap_or(0.0),
        "us",
    );
    out.metric("online.push_us.early", util::mean(&aged_us[..tenth]), "us");
    out.metric(
        "online.push_us.late",
        util::mean(&aged_us[aged_us.len() - tenth..]),
        "us",
    );
    out.metric(
        "online.ticks",
        pushes.iter().map(|p| p.ticks).sum::<u64>() as f64,
        "count",
    );
    let confirmed: u64 = pushes.iter().map(|p| p.confirmed).sum();
    out.metric("online.incidents", confirmed as f64, "count");
    out.check(
        confirmed == confirmed_by_pipeline.iter().sum::<u64>(),
        || {
            format!(
                "standalone sessions confirmed {confirmed} incidents, the pipelines {}",
                confirmed_by_pipeline.iter().sum::<u64>()
            )
        },
    );
    out.metric(
        "telemetry.engine_push_us",
        engine_s * 1e6 / scrapes as f64,
        "us",
    );
    out.metric("online.checkpoint_us.late", ckpt_us, "us");
    out.metric("online.checkpoint_bytes.late", ckpt_bytes, "bytes");
    out.metric("server.wal.append_us", util::median(&append_us), "us");
    out.metric("server.wal.sync_us", util::median(&sync_us), "us");
    out.metric("server.wal.checkpoint_ms.late", ckpt_ms, "ms");
    out.metric(
        "server.wal.bytes_per_scrape",
        wal_bytes as f64 / scrapes as f64,
        "bytes",
    );
    out.metric("obs.counter_add_ns", counter_add_ns(), "ns");
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    Ok(confirmed_by_pipeline)
}

/// `TenantPipeline::submit`, retrying a full queue after its hint until
/// [`RETRY_DEADLINE`] has passed.
fn submit(
    pipeline: &TenantPipeline,
    batch: Batch,
    submit_us: &mut Vec<f64>,
    spans: &Spans,
    parent: usize,
) -> Result<(), String> {
    let first = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = pipeline.submit(batch.clone());
        spans.record("server.tenant.submit", parent, 2, t);
        submit_us.push(util::secs(t) * 1e6);
        match outcome {
            Ok(a) if !a.is_duplicate() => return Ok(()),
            Ok(_) => return Err(format!("{pipeline:?}: batch deduplicated")),
            Err(Reject::QueueFull { .. }) if first.elapsed() >= RETRY_DEADLINE => {
                return Err(format!(
                    "{pipeline:?}: queue still full {} s after the first try",
                    RETRY_DEADLINE.as_secs()
                ));
            }
            Err(Reject::QueueFull { retry_after_ms }) => {
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            Err(e) => return Err(format!("submit: {e}")),
        }
    }
}

/// A standalone window engine configured as a feed session's.
fn engine_for(feed: &FeedConfig, services: usize) -> WindowEngine {
    let capacity = feed.live_windows.max(feed.localize_windows) + 4;
    let mut cfg = EngineConfig::streaming(feed.windows, capacity, feed.collect_from);
    cfg.interval = feed.interval;
    WindowEngine::new(cfg, services)
}

/// Passes over the stream in the overhead measurement.
const OVERHEAD_PASSES: usize = 3;

/// The tracing overhead at the densest span site: `s` pushed through two
/// fresh sessions in lockstep, a batch at a time and in alternating order,
/// with a `Spans::record` around every push — into a recording store on
/// one side and a disabled one on the other. Everything else (clock reads,
/// the calls themselves) is the same on both sides, and the lockstep makes
/// both see the same machine. Returns how much longer the recorded side
/// took, as a share: per batch order, the median ratio (so that a
/// preempted batch does not count), and the geometric mean of the two
/// (so that the cost of going first cancels).
fn trace_overhead(
    registry: &ModelRegistry,
    s: &Stream,
    names: &[String],
    feed: &FeedConfig,
) -> Result<f64, String> {
    let mut batches = Vec::with_capacity(s.bodies.len());
    for body in s.bodies.iter() {
        let mut rows = Vec::new();
        for line in body.lines().filter(|l| !l.is_empty()) {
            rows.push(parse_scrape_line(line)?);
        }
        batches.push(rows);
    }
    // Index 0 records, index 1 does not.
    let stores = [Spans::new(true), Spans::new(false)];
    // Ratios with the recording side first, and with it second.
    let mut ratios = [Vec::new(), Vec::new()];
    for _ in 0..OVERHEAD_PASSES {
        let mut sessions = [
            session(registry, &s.tenant, names, feed)?,
            session(registry, &s.tenant, names, feed)?,
        ];
        for (b, batch) in batches.iter().enumerate() {
            let mut took_s = [0.0; 2];
            for side in [b % 2, 1 - b % 2] {
                let started = Instant::now();
                for (at, row) in batch.iter().cloned() {
                    let t = Instant::now();
                    sessions[side]
                        .push(SimTime::from_nanos(at), row)
                        .map_err(|e| e.to_string())?;
                    stores[side].record("online.push", 0, 3, t);
                }
                took_s[side] = util::secs(started);
            }
            ratios[b % 2].push(took_s[0] / took_s[1]);
        }
    }
    Ok((util::median(&ratios[0]) * util::median(&ratios[1])).sqrt() - 1.0)
}

/// Mean wall time per `icfl_obs::counter_add` call, with the server's
/// metric names and label shapes, from one thread per core.
fn counter_add_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let threads = crate::ingest::cores();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..threads {
            scope.spawn(move || {
                let tenant = format!("fig2:w{w}");
                for i in 0..CALLS {
                    if i % 2 == 0 {
                        icfl_obs::counter_add(
                            "icfl_server_batches_accepted_total",
                            &[("tenant", &tenant)],
                            1,
                        );
                    } else {
                        icfl_obs::counter_add(
                            "icfl_server_batches_rejected_total",
                            &[("tenant", &tenant), ("reason", "queue_full")],
                            1,
                        );
                    }
                }
            });
        }
    });
    t.elapsed().as_secs_f64() * 1e9 * threads as f64 / (CALLS * threads as u64) as f64
}
