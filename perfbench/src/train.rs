//! The `train` workload: Table I in paper mode. Each round trains both
//! apps at 1× load (Algorithm 1: campaign plus learning) and evaluates each
//! model at 1× and 4× load, on the default worker pool (one per core).
//!
//! [`train_eval`] and [`sim_layers`] are shared with the ingest
//! workloads, whose set-up trains and evaluates quick-mode models the
//! same way.

use crate::spans::Spans;
use crate::util::{self, Outcome};
use icfl_apps::App;
use icfl_core::{CampaignRun, CausalModel, EvalSuite, RunConfig};
use icfl_micro::ServiceId;
use icfl_scenario::{seeds, RecorderTap, Scenario};
use icfl_sim::{SimDuration, SimTime};
use icfl_telemetry::MetricCatalog;
use std::time::Instant;

/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Repetitions of each evaluation case's verdict whose median is that
/// case's acknowledgement latency.
const VERDICT_REPS: usize = 5;

/// The apps of Table I.
fn apps() -> [App; 2] {
    [icfl_apps::causalbench(), icfl_apps::robot_shop()]
}

/// Scrape instants inside the telemetry phase of one simulated phase.
fn phase_scrapes(len: SimDuration) -> u64 {
    len.as_nanos() / icfl_telemetry::Recorder::DEFAULT_INTERVAL.as_nanos()
}

/// One app trained at 1× and evaluated at 1× and 4×.
pub struct AppRun {
    /// `CampaignRun::execute` plus learning, seconds.
    pub train_s: f64,
    /// `EvalSuite::execute` plus `evaluate` at both loads, seconds.
    pub eval_s: f64,
    /// Scrape instants simulated inside the telemetry phases.
    pub scrapes: u64,
    /// Phases simulated plus evaluation cases run.
    pub ops: u64,
    /// Per evaluation case: the verdict's latency, milliseconds.
    pub verdict_ms: Vec<f64>,
    /// The campaign (kept for the serial phase rebuild).
    pub campaign: CampaignRun,
    /// The learned model.
    pub model: CausalModel,
}

/// Trains `app` under `train_cfg` and evaluates it under `eval_cfg` at 1×
/// and 4× load, checking the campaign and tallying top-1 accuracy at 1×
/// (with a note when it falls below `min_top1`). Learning is
/// `CampaignRun::learn`'s own steps, so that with spans on the campaign's
/// datasets and the learning step show as their own layers.
pub fn train_eval(
    app: &App,
    train_cfg: &RunConfig,
    eval_cfg: &RunConfig,
    min_top1: Option<f64>,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<AppRun, String> {
    let catalog = MetricCatalog::derived_all();
    let (_, app_targets) = app.build(train_cfg.seed).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let campaign = CampaignRun::execute(app, train_cfg).map_err(|e| e.to_string())?;
    spans.record("core.campaign_execute", 0, 0, t);
    let td = Instant::now();
    let baseline = campaign.baseline(&catalog).map_err(|e| e.to_string())?;
    let faults = campaign
        .fault_datasets(&catalog)
        .map_err(|e| e.to_string())?;
    spans.record("telemetry.dataset", 0, 0, td);
    let tl = Instant::now();
    let model = CausalModel::learn(&catalog, RunConfig::default_detector(), &baseline, &faults)
        .map_err(|e| e.to_string())?;
    spans.record("core.learn", 0, 0, tl);
    let train_s = util::secs(t);
    let mut ops = campaign.targets().len() as u64 + 1;
    let mut scrapes = phase_scrapes(train_cfg.campaign.baseline)
        + campaign.targets().len() as u64 * phase_scrapes(train_cfg.campaign.fault_duration);
    check_campaign(app, &app_targets, &campaign, &model, out);

    let mut eval_s = 0.0;
    let mut verdict_ms = Vec::new();
    for load in [1usize, 4] {
        let cfg = eval_cfg.clone().with_replicas(load);
        let t = Instant::now();
        let suite = EvalSuite::execute(app, campaign.targets(), &cfg).map_err(|e| e.to_string())?;
        spans.record("core.eval_execute", 0, 0, t);
        let summary = suite.evaluate(&model).map_err(|e| e.to_string())?;
        eval_s += util::secs(t);
        ops += suite.runs.len() as u64;
        scrapes += suite.runs.len() as u64 * phase_scrapes(cfg.campaign.fault_duration);
        out.check(summary.cases.len() == app_targets.len(), || {
            format!(
                "{} {load}x: {} evaluation cases for {} targets",
                app.name,
                summary.cases.len(),
                app_targets.len()
            )
        });
        // Each case's verdict: dataset plus Algorithm 2, repeated so its
        // median is steady. Top-1 is scored here, apart from the
        // program's own matching rule.
        let mut top1 = 0usize;
        for run in &suite.runs {
            let mut reps = Vec::with_capacity(VERDICT_REPS);
            let mut first = None;
            for _ in 0..VERDICT_REPS {
                let tv = Instant::now();
                let ds = run.dataset(model.catalog()).map_err(|e| e.to_string())?;
                let tl = Instant::now();
                let loc = model.localize(&ds).map_err(|e| e.to_string())?;
                spans.record("core.localize", 0, 0, tl);
                reps.push(util::secs(tv) * 1e3);
                first = loc.ranked().first().map(|&(s, _)| s);
            }
            verdict_ms.push(util::median(&reps));
            if first == Some(run.injected) {
                top1 += 1;
            }
        }
        if load == 1 {
            // Top-1 at 1x falls below 0.9 on some seeds (robot-shop, seed
            // 7: 0.82), so it is tallied, not gated: a check that fails
            // only on some inputs cannot tell a regression from the seed.
            out.count("cases_at_1x", suite.runs.len() as u64);
            out.count("top1_correct_at_1x", top1 as u64);
            if let Some(min) = min_top1 {
                let acc = top1 as f64 / suite.runs.len().max(1) as f64;
                if acc < min {
                    eprintln!("note: {} 1x top-1 accuracy {acc:.2} below {min}", app.name);
                    out.count("apps_top1_below_0.9_at_1x", 1);
                }
            }
        }
    }
    Ok(AppRun {
        train_s,
        eval_s,
        scrapes,
        ops,
        verdict_ms,
        campaign,
        model,
    })
}

/// The campaign checks: one fault phase per target of the app's own list,
/// and every target inside its own causal set for some metric (an
/// intervened service shifts its own metrics).
fn check_campaign(
    app: &App,
    app_targets: &[ServiceId],
    campaign: &CampaignRun,
    model: &CausalModel,
    out: &mut Outcome,
) {
    let entries = campaign.trace.entries();
    out.check(entries.len() == app_targets.len(), || {
        format!(
            "{}: {} fault phases for {} targets",
            app.name,
            entries.len(),
            app_targets.len()
        )
    });
    for &s in app_targets {
        let n = entries.iter().filter(|e| e.service == s).count();
        out.check(n == 1, || {
            format!("{}: {n} fault phases on target {}", app.name, s.index())
        });
        let in_own_set = (0..model.catalog().len())
            .any(|m| model.causal_set(m, s).is_some_and(|set| set.contains(&s)));
        out.check(in_own_set, || {
            format!(
                "{}: target {} lies in none of its own causal sets",
                app.name,
                s.index()
            )
        });
    }
}

/// One warm-up: quick-mode training of both apps.
fn setup_once(seed: u64) -> Result<(), String> {
    let catalog = MetricCatalog::derived_all();
    for app in apps() {
        let campaign =
            CampaignRun::execute(&app, &RunConfig::quick(seed)).map_err(|e| e.to_string())?;
        std::hint::black_box(
            campaign
                .learn(&catalog, RunConfig::default_detector())
                .map_err(|e| e.to_string())?,
        );
    }
    Ok(())
}

/// One Table I round in paper mode.
fn round(seed: u64, spans: &Spans, out: &mut Outcome) -> Result<Vec<AppRun>, String> {
    let train_cfg = RunConfig::paper(seed);
    let eval_cfg = RunConfig::paper(seeds::eval_phase(seed));
    apps()
        .iter()
        .map(|app| train_eval(app, &train_cfg, &eval_cfg, Some(0.9), spans, out))
        .collect()
}

/// Runs the workload: set-up, then whole rounds until `seconds` have
/// passed (at least one). A traced run times one round through its
/// parts.
pub fn run(seed: u64, seconds: f64, spans: &Spans, out: &mut Outcome) -> Result<(), String> {
    let reps = if spans.enabled() { 1 } else { SETUP_REPS };
    let mut setup = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        setup_once(seed)?;
        setup.push(util::secs(t));
    }

    let cpu0 = util::cpu_seconds("self")?;
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || (!spans.enabled() && util::secs(started) < seconds) {
        rounds.push(round(seed, spans, out)?);
    }
    let cpu = util::cpu_seconds("self")? - cpu0;
    let runs = || rounds.iter().flatten();
    let scrapes: u64 = runs().map(|r| r.scrapes).sum();
    out.attempted += runs().map(|r| r.ops).sum::<u64>();
    out.count("rounds", rounds.len() as u64);

    if spans.enabled() {
        let first = &rounds[0][0];
        sim_layers(
            &apps()[0],
            &RunConfig::paper(seed),
            &RunConfig::paper(seeds::eval_phase(seed)),
            &first.campaign,
            first.train_s + first.eval_s,
            spans,
            out,
        )?;
        core_layers(spans, out);
        return Ok(());
    }
    let per_round = |f: fn(&AppRun) -> f64| -> Vec<f64> {
        rounds.iter().map(|r| r.iter().map(f).sum()).collect()
    };
    let verdicts: Vec<f64> = runs().flat_map(|r| r.verdict_ms.clone()).collect();
    let work_s: f64 = runs().map(|r| r.train_s + r.eval_s).sum();
    out.metric("setup_s", util::median(&setup), "s");
    out.metric("train_s", util::median(&per_round(|r| r.train_s)), "s");
    out.metric("eval_s", util::median(&per_round(|r| r.eval_s)), "s");
    out.metric("scrapes_per_s", scrapes as f64 / work_s, "1/s");
    out.metric("server_cpu_us_per_scrape", cpu * 1e6 / scrapes as f64, "us");
    out.metric("ack_p50_ms", util::median(&verdicts), "ms");
    out.metric("peak_rss_mb", util::peak_rss_mib("self")?, "MiB");
    Ok(())
}

/// Dataset extraction, learning and localization, from the spans
/// [`train_eval`] recorded.
pub fn core_layers(spans: &Spans, out: &mut Outcome) {
    let ms = |name| util::median(&spans.durations(name)) * 1e3;
    out.metric("telemetry.dataset_ms", ms("telemetry.dataset"), "ms");
    out.metric("core.learn_ms", ms("core.learn"), "ms");
    out.metric("core.localize_us", ms("core.localize") * 1e3, "us");
}

/// Rebuilds every phase of `app`'s campaign and of its 1×/4× evaluation
/// serially through `ScenarioBuilder::build_with`, timing
/// `Scenario::run_until`: the campaign phase time, the simulated request
/// rate, and how busy the worker pool was when the same phases ran in
/// parallel (serial phase time over workers × the parallel wall).
pub fn sim_layers(
    app: &App,
    train_cfg: &RunConfig,
    eval_cfg: &RunConfig,
    campaign: &CampaignRun,
    parallel_wall: f64,
    spans: &Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let targets = campaign.targets();
    // (seed, replicas, phase length, fault target, is a campaign phase)
    type Phase = (u64, usize, SimDuration, Option<ServiceId>, bool);
    let mut phases: Vec<Phase> = vec![(train_cfg.seed, 1, train_cfg.campaign.baseline, None, true)];
    for (i, &s) in targets.iter().enumerate() {
        let seed = seeds::campaign_fault(train_cfg.seed, i);
        phases.push((seed, 1, train_cfg.campaign.fault_duration, Some(s), true));
    }
    for load in [1usize, 4] {
        for (i, &s) in targets.iter().enumerate() {
            let seed = seeds::eval_case(eval_cfg.seed, i);
            phases.push((seed, load, eval_cfg.campaign.fault_duration, Some(s), false));
        }
    }
    let mut campaign_phase_s = Vec::new();
    let mut run_s = 0.0;
    let mut serial_s = 0.0;
    let mut requests = 0u64;
    for (seed, replicas, len, fault, is_campaign) in phases {
        let from = SimTime::ZERO + train_cfg.campaign.warmup;
        let to = from + len;
        let tb = Instant::now();
        let trace = icfl_faults::InterventionTrace::new();
        let mut builder = Scenario::builder(app, seed).replicas(replicas);
        if let Some(s) = fault {
            builder = builder.fault_between(s, train_cfg.fault.clone(), from, to, &trace);
        }
        let (mut scenario, recorder) = builder
            .build_with(RecorderTap::new((from, to), train_cfg.windows))
            .map_err(|e| e.to_string())?;
        let tr = Instant::now();
        scenario.run_until(to);
        spans.record("sim.run_until", 0, 1, tr);
        let phase = util::secs(tr);
        run_s += phase;
        serial_s += util::secs(tb);
        if is_campaign {
            campaign_phase_s.push(phase);
        }
        for svc in 0..app.num_services() {
            let id = ServiceId::from_index(svc);
            let at = |t| {
                recorder
                    .boundary_counters(id, t)
                    .map(|c| c.requests_received)
            };
            if let (Some(a), Some(b)) = (at(from), at(to)) {
                requests += b.saturating_sub(a);
            }
        }
    }
    let workers = train_cfg.resolved_threads(targets.len() + 1) as f64;
    out.metric("sim.phase_s", util::median(&campaign_phase_s), "s");
    out.metric("sim.requests_per_s", requests as f64 / run_s, "1/s");
    out.metric(
        "core.pool_busy_ratio",
        serial_s / (workers * parallel_wall),
        "ratio",
    );
    Ok(())
}
