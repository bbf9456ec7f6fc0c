//! `expt trace` — an instrumented simulator run that exports the
//! telemetry stack end to end: per-round per-phase wall times to
//! `trace.csv`, a self-time summary table, wire/pool/top-k counters
//! bridged into one metrics snapshot (dumped as `trace.prom`), and the
//! coverage check the acceptance criterion pins — measured phase spans
//! must sum to ≥95% of each round's measured wall time.

use crate::experiments::common::setup;
use crate::ExptOpts;
use gluefl_core::{GlueFlParams, Simulation, StrategyConfig};
use gluefl_data::DatasetProfile;
use gluefl_ml::DatasetModel;
use gluefl_telemetry::{Phase, Snapshot, Telemetry};
use std::sync::Arc;

/// Folds the process-wide wire-codec, thread-pool and top-k counters
/// into the run's snapshot, so one exposition carries every layer. The
/// inputs are deltas taken across the traced run — the statics are
/// process lifetime and other code may have bumped them earlier.
fn bridge_process_stats(
    snap: &mut Snapshot,
    wire_before: (
        Vec<gluefl_wire::stats::FrameCount>,
        Vec<(&'static str, u64)>,
    ),
    pool_before: gluefl_pool::PoolStats,
    topk_before: gluefl_tensor::TopKStats,
) {
    let count_of = |table: &[gluefl_wire::stats::FrameCount],
                    kind: gluefl_wire::FrameKind,
                    codec: gluefl_wire::Codec| {
        table
            .iter()
            .find(|f| f.kind == kind && f.codec == codec)
            .map_or(0, |f| f.count)
    };
    for f in gluefl_wire::stats::encoded_frames() {
        let delta = f.count - count_of(&wire_before.0, f.kind, f.codec);
        if delta > 0 {
            snap.push(
                "gluefl_wire_frames_encoded_total",
                &[("kind", f.kind.name()), ("codec", f.codec.name())],
                delta as f64,
            );
        }
    }
    let err_of = |table: &[(&'static str, u64)], kind: &str| {
        table
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |(_, c)| *c)
    };
    for (kind, count) in gluefl_wire::stats::decode_errors() {
        let delta = count - err_of(&wire_before.1, kind);
        if delta > 0 {
            snap.push(
                "gluefl_wire_decode_errors_total",
                &[("kind", kind)],
                delta as f64,
            );
        }
    }
    let pool = gluefl_pool::stats();
    snap.push(
        "gluefl_pool_jobs_total",
        &[],
        (pool.jobs - pool_before.jobs) as f64,
    );
    snap.push(
        "gluefl_pool_steals_total",
        &[],
        (pool.steals - pool_before.steals) as f64,
    );
    snap.push(
        "gluefl_pool_idle_nanos_total",
        &[],
        (pool.idle_nanos - pool_before.idle_nanos) as f64,
    );
    snap.push(
        "gluefl_pool_runs_total",
        &[],
        (pool.runs - pool_before.runs) as f64,
    );
    let topk = gluefl_tensor::topk_stats();
    for (name, now, before) in [
        ("gluefl_topk_calls_total", topk.calls, topk_before.calls),
        (
            "gluefl_topk_fallbacks_total",
            topk.fallbacks,
            topk_before.fallbacks,
        ),
        (
            "gluefl_topk_survivors_total",
            topk.survivors,
            topk_before.survivors,
        ),
    ] {
        snap.push(name, &[], (now - before) as f64);
    }
    snap.sort();
}

/// Runs the traced simulation and writes `trace.csv` + `trace.prom`.
///
/// # Errors
/// Returns a message when phase coverage falls below the 95% criterion.
pub fn run(opts: &ExptOpts) -> Result<(), String> {
    let rounds = if opts.quick {
        opts.rounds.min(5)
    } else {
        opts.rounds.min(30)
    };
    let k = 30;
    let mut cfg = setup(
        DatasetProfile::Femnist,
        DatasetModel::ShuffleNet,
        StrategyConfig::GlueFl(GlueFlParams::paper_default(k, DatasetModel::ShuffleNet)),
        opts,
    );
    cfg.rounds = rounds;
    // Evaluation is outside the nine instrumented phases; keep it out of
    // the measured window so coverage reflects the round pipeline.
    cfg.eval_every = rounds + 1;

    let wire_before = (
        gluefl_wire::stats::encoded_frames(),
        gluefl_wire::stats::decode_errors(),
    );
    let pool_before = gluefl_pool::stats();
    let topk_before = gluefl_tensor::topk_stats();

    let tel = Arc::new(Telemetry::new());
    let mut sim = Simulation::new(cfg).with_telemetry(Arc::clone(&tel));
    let mut records = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        records.push(sim.step());
    }

    // --- trace.csv: one row per round, measured columns only. ---
    let mut csv = String::from("round,step_ns");
    for phase in Phase::ALL {
        csv.push_str(&format!(",{}_ns", phase.name()));
    }
    csv.push_str(",up_bytes,wire_up_bytes,invited,kept\n");
    for rec in &records {
        csv.push_str(&format!("{},{}", rec.round, rec.step_nanos));
        for phase in Phase::ALL {
            csv.push_str(&format!(",{}", rec.phase_nanos_of(phase)));
        }
        csv.push_str(&format!(
            ",{},{},{},{}\n",
            rec.up_bytes, rec.wire_up_bytes, rec.invited, rec.kept
        ));
    }
    crate::write_csv(&opts.out_dir, "trace.csv", &csv);

    // --- Self-time summary. ---
    let step_total: u64 = records.iter().map(|r| r.step_nanos).sum();
    let mut table = crate::Table::new(["phase", "total (ms)", "share", "spans", "mean (µs)"]);
    for phase in Phase::ALL {
        let nanos = tel.phase_nanos(phase);
        let spans = tel.phase_spans(phase);
        table.row([
            phase.name().to_owned(),
            format!("{:.3}", nanos as f64 / 1e6),
            format!("{:.1}%", 100.0 * nanos as f64 / step_total.max(1) as f64),
            format!("{spans}"),
            format!("{:.1}", nanos as f64 / 1e3 / spans.max(1) as f64),
        ]);
    }
    println!("\ntrace — GlueFL on FEMNIST/ShuffleNet, {rounds} rounds");
    println!("{}", table.render());

    // --- Snapshot with wire, pool and top-k counters bridged in. ---
    let mut snap = tel.snapshot();
    bridge_process_stats(&mut snap, wire_before, pool_before, topk_before);
    crate::write_csv(&opts.out_dir, "trace.prom", &snap.render_text());

    // --- Coverage: the spans must account for the measured wall time.
    //     (The acceptance criterion: within 5% of the round wall time.)
    let covered: u64 = records.iter().map(|r| r.measured_phase_total()).sum();
    let coverage = covered as f64 / step_total.max(1) as f64;
    println!(
        "phase coverage: {:.1}% of {:.3} ms measured wall time (criterion ≥95%)",
        coverage * 100.0,
        step_total as f64 / 1e6
    );
    if coverage < 0.95 {
        return Err(format!(
            "phase spans cover only {:.1}% of the measured round wall time (need ≥95%)",
            coverage * 100.0
        ));
    }
    if coverage > 1.0 {
        return Err(format!(
            "phase spans exceed the measured wall time ({:.1}%) — double counting",
            coverage * 100.0
        ));
    }
    Ok(())
}
