//! The in-process workloads (`sim-femnist`, `sim-wide-quant`): the
//! benchmark drives `Simulation::new` and `Simulation::step` and reads
//! the `RoundRecord`s they return.

use crate::layers::Layers;
use crate::reference::{reference_ms, scaled, smooth, REF_MS};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{mean, median, ms, quantile, rate_per_s, thread_cpu, windowed};
use crate::wirestats::WireSnap;
use crate::workloads::Workload;
use crate::Run;
use gluefl_core::{RoundRecord, SimConfig, Simulation};
use gluefl_data::SyntheticFlDataset;
use gluefl_telemetry::{Phase, Telemetry};
use gluefl_tensor::rng::derive_seed;
use std::sync::Arc;
use std::time::Instant;

/// Constructions (each with its warm-up rounds) behind one `setup_s`.
const SETUP_REPS: usize = 5;

/// A constructed, warmed-up simulation and what building it took:
/// seconds of this thread's CPU time scaled to the reference speed, and
/// seconds of wall time.
fn set_up(cfg: &SimConfig, warmup: u32) -> (Simulation, Vec<RoundRecord>, f64, f64) {
    let mut refs: Vec<f64> = (0..3).map(|_| reference_ms()).collect();
    let (t0, cpu0) = (Instant::now(), thread_cpu());
    let mut sim = Simulation::new(cfg.clone());
    let warm: Vec<RoundRecord> = (0..warmup).map(|_| sim.step()).collect();
    let (cpu_ms, wall_s) = (ms(thread_cpu() - cpu0), t0.elapsed().as_secs_f64());
    refs.extend((0..3).map(|_| reference_ms()));
    (sim, warm, scaled(cpu_ms, median(&refs)) / 1e3, wall_s)
}

/// Timed rounds per run of the reference kernel.
const CALIBRATE_EVERY: usize = 5;

/// Round times of a timed window: per round, the stepping thread's CPU
/// time and the wall time (ms); per [`CALIBRATE_EVERY`] rounds, the
/// reference kernel's time after them, when it is run. The simulation
/// runs on this thread alone.
#[derive(Default)]
struct RoundTimes {
    cpu_ms: Vec<f64>,
    wall_ms: Vec<f64>,
    ref_ms: Vec<f64>,
}

impl RoundTimes {
    /// Per-round CPU times scaled by the smoothed reference times.
    fn scaled_ms(&self) -> Vec<f64> {
        let refs = smooth(&self.ref_ms);
        self.cpu_ms
            .iter()
            .enumerate()
            .map(|(i, &cpu)| scaled(cpu, refs[(i / CALIBRATE_EVERY).min(refs.len() - 1)]))
            .collect()
    }
}

/// Steps `rounds` rounds, returning each record and its times. With
/// `calibrate`, the reference kernel runs after every
/// [`CALIBRATE_EVERY`]-th round, outside the round times.
fn timed_steps(
    sim: &mut Simulation,
    rounds: u32,
    times: &mut RoundTimes,
    calibrate: bool,
) -> Vec<RoundRecord> {
    let mut recs = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let (t, cpu) = (Instant::now(), thread_cpu());
        let rec = sim.step();
        times.cpu_ms.push(ms(thread_cpu() - cpu));
        times.wall_ms.push(ms(t.elapsed()));
        if calibrate && times.cpu_ms.len().is_multiple_of(CALIBRATE_EVERY) {
            times.ref_ms.push(reference_ms());
        }
        recs.push(rec);
    }
    recs
}

/// Test-set `(accuracy, loss)` of the current global model.
fn evaluate(sim: &Simulation) -> (f64, f64) {
    let (x, y) = sim.data().test_set();
    let m = sim.model().evaluate(x, y);
    let acc = if sim.config().use_top5 {
        m.top5
    } else {
        m.top1
    };
    (acc, m.loss)
}

fn check_rounds(report: &mut Report, recs: &[RoundRecord]) {
    let starved = recs.iter().filter(|r| r.kept == 0).count();
    report.check(starved == 0, format!("{starved} rounds kept no upload"));
}

/// Training must have reduced the test loss of the initial model.
fn check_learned(report: &mut Report, initial_loss: f64, loss: f64) {
    report.check(
        loss.is_finite() && loss < initial_loss,
        format!("final loss {loss} is not below the initial model's {initial_loss}"),
    );
}

/// The untraced run: end-to-end metrics.
pub fn run(w: Workload, run: &Run) -> Report {
    let cfg = w.config(run.seed, 0);
    let mut report = Report::default();
    report.note(describe(&cfg));
    let wire0 = WireSnap::take();
    let initial_loss = evaluate(&Simulation::new(cfg.clone())).1;

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setups_wall = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let (sim, warm, setup_s, wall_s) = set_up(&cfg, w.warmup_rounds());
        setups.push(setup_s);
        setups_wall.push(wall_s);
        built = Some((sim, warm));
    }
    let (mut sim, warm) = built.expect("at least one set-up");

    let timed = w.timed_rounds(run.seconds);
    let mut times = RoundTimes::default();
    let recs = timed_steps(&mut sim, timed, &mut times, true);
    let (acc, loss) = evaluate(&sim);

    check_rounds(&mut report, &warm);
    check_rounds(&mut report, &recs);
    check_learned(&mut report, initial_loss, loss);
    let errors = wire0.decode_errors_since();
    report.check(errors == 0, format!("{errors} wire decode errors"));
    report.attempted += recs.iter().map(|r| r.kept as u64).sum::<u64>();

    report.note(format!(
        "{timed} timed rounds after {} warm-up rounds; {SETUP_REPS} set-ups",
        w.warmup_rounds()
    ));
    report.note(quality_note(acc, loss, initial_loss, &recs));
    report.note(wall_note(
        median(&setups_wall),
        &times.wall_ms,
        &times.ref_ms,
    ));
    report.metric("setup_s", median(&setups), "s");
    round_metrics(&mut report, &times.scaled_ms());
    record_means(&mut report, &recs);
    report
}

/// `round_ms.p50`, `round_ms.p90` and `rounds_per_s` of a timed window's
/// per-round times (ms), CPU time scaled to the reference speed.
pub fn round_metrics(report: &mut Report, round_ms: &[f64]) {
    report.metric("round_ms.p50", windowed(round_ms, median), "ms");
    report.metric(
        "round_ms.p90",
        windowed(round_ms, |w| quantile(w, 0.9)),
        "ms",
    );
    report.metric("rounds_per_s", windowed(round_ms, rate_per_s), "1/s");
}

/// The unscaled wall-clock statistics and the reference kernel's median
/// time, printed beside the table: what the run took on this machine,
/// other tenants included.
pub fn wall_note(setup_s: f64, wall_ms: &[f64], ref_ms: &[f64]) -> String {
    format!(
        "wall clock: setup_s {setup_s:.6} s; round_ms.p50 {:.6} ms; round_ms.p90 {:.6} ms; \
         rounds_per_s {:.6} 1/s; reference kernel {:.4} ms (scaled to {REF_MS} ms)",
        windowed(wall_ms, median),
        windowed(wall_ms, |w| quantile(w, 0.9)),
        windowed(wall_ms, rate_per_s),
        median(ref_ms)
    )
}

/// The per-seed quality figures, printed beside the end-to-end table.
fn quality_note(acc: f64, loss: f64, initial_loss: f64, recs: &[RoundRecord]) -> String {
    format!(
        "final_accuracy {acc:.4} 1; final_loss {loss:.4} 1 (initial model {initial_loss:.4}); \
         modeled_round_s {:.3} s",
        modeled_round_s(recs)
    )
}

pub fn modeled_round_s(recs: &[RoundRecord]) -> f64 {
    mean(recs.iter().map(|r| r.round_secs))
}

/// The paper's per-round volumes (DV and measured upload), means over `recs`.
pub fn record_means(report: &mut Report, recs: &[RoundRecord]) {
    let mb = |f: fn(&RoundRecord) -> u64| mean(recs.iter().map(|r| f(r) as f64)) / 1e6;
    report.metric("down_mb_per_round", mb(|r| r.down_bytes), "MB");
    report.metric("up_mb_per_round", mb(|r| r.wire_up_bytes), "MB");
}

/// Rounds per block of the traced run's alternating untraced / traced
/// blocks.
const TRACE_BLOCK: u32 = 5;

/// The traced run. Two simulations of the same config advance through the
/// same rounds in alternating blocks: one plain, one with the program's
/// phase telemetry attached and the benchmark's spans around each step.
/// Interleaving exposes both to the same drift in machine speed, so their
/// p50 ratio is the tracing overhead. Per-layer metrics come from the
/// traced simulation.
pub fn run_traced(w: Workload, run: &Run) -> Report {
    let cfg = w.config(run.seed, 0);
    let mut report = Report::default();
    report.note(describe(&cfg));
    let origin = Instant::now();
    let mut spans = Spans::new(origin);
    let root = spans.open("sim.run", None, None);
    let wire0 = WireSnap::take();

    let t = Instant::now();
    drop(SyntheticFlDataset::generate(
        cfg.dataset.clone(),
        derive_seed(cfg.seed, "data", 0),
    ));
    let generate_ms = ms(t.elapsed());
    spans.push("data.generate", t, Instant::now(), Some(root), None);

    let setup = spans.open("sim.setup", Some(root), None);
    let (mut plain, _, _, _) = set_up(&cfg, w.warmup_rounds());
    let t = Instant::now();
    let mut sim = Simulation::new(cfg.clone()).with_telemetry(Arc::new(Telemetry::new()));
    spans.push("simulation.new", t, Instant::now(), Some(setup), None);
    let t = Instant::now();
    let initial_loss = evaluate(&sim).1;
    spans.push("sim.eval", t, Instant::now(), Some(setup), None);
    let mut warm = Vec::new();
    for round in 0..w.warmup_rounds() {
        let t = Instant::now();
        warm.push(sim.step());
        spans.push(
            "sim.warmup_step",
            t,
            Instant::now(),
            Some(setup),
            Some(round),
        );
    }
    spans.end(setup);

    let half = w.timed_rounds(run.seconds) / 2;
    let wire_timed = WireSnap::take();
    let mut untraced_recs = Vec::with_capacity(half as usize);
    let mut untraced = RoundTimes::default();
    let mut recs = Vec::with_capacity(half as usize);
    let mut traced_ms = Vec::with_capacity(half as usize);
    let mut step_ns = 0.0;
    for block in (0..half).step_by(TRACE_BLOCK as usize) {
        let n = TRACE_BLOCK.min(half - block);
        // One span per untraced block, none inside it.
        let t = Instant::now();
        let r = timed_steps(&mut plain, n, &mut untraced, false);
        spans.push("sim.untraced_steps", t, Instant::now(), Some(root), None);
        untraced_recs.extend(r);
        for _ in 0..n {
            let t = Instant::now();
            let rec = sim.step();
            let end = Instant::now();
            let step = spans.push("sim.step", t, end, Some(root), Some(rec.round));
            // The program's measured phases become the step's children,
            // laid end to end in execution order.
            let mut at = spans.ns(t);
            for phase in Phase::ALL {
                let d = rec.phase_nanos_of(phase);
                spans.push_ns(phase_span(phase), at, at + d, Some(step), Some(rec.round));
                at += d;
            }
            traced_ms.push(ms(end - t));
            step_ns += (end - t).as_nanos() as f64;
            recs.push(rec);
        }
    }
    let wire_after = WireSnap::take();

    let t = Instant::now();
    let (acc, loss) = evaluate(&sim);
    spans.push("sim.eval", t, Instant::now(), Some(root), None);
    spans.end(root);

    check_rounds(&mut report, &warm);
    check_rounds(&mut report, &untraced_recs);
    check_rounds(&mut report, &recs);
    report.check(
        untraced_recs == recs,
        "attaching telemetry changed the round records",
    );
    check_learned(&mut report, initial_loss, loss);
    let errors = wire0.decode_errors_since();
    report.check(errors == 0, format!("{errors} wire decode errors"));
    report.attempted += untraced_recs
        .iter()
        .chain(&recs)
        .map(|r| r.kept as u64)
        .sum::<u64>();
    report.note(format!(
        "{half} untraced + {half} traced rounds in alternating blocks of {TRACE_BLOCK}; \
         initial model loss {initial_loss:.4}"
    ));

    let phase_ms = |p: Phase| mean(recs.iter().map(|r| r.phase_nanos_of(p) as f64)) / 1e6;
    let phase_total: f64 = recs.iter().map(|r| r.measured_phase_total() as f64).sum();
    let invited: usize = recs.iter().map(|r| r.invited).sum();
    let kept: usize = recs.iter().map(|r| r.kept).sum();
    let train_s = recs
        .iter()
        .map(|r| r.phase_nanos_of(Phase::Train) as f64)
        .sum::<f64>()
        / 1e9;
    let samples = invited as f64 * (cfg.local_steps * cfg.batch_size) as f64;
    let layers = Layers {
        final_accuracy: acc,
        final_loss: loss,
        modeled_round_s: modeled_round_s(&recs),
        data_generate_ms: generate_ms,
        draw_us: phase_ms(Phase::Draw) * 1e3,
        rebalance_us: phase_ms(Phase::Rebalance) * 1e3,
        kept_ratio: kept as f64 / invited.max(1) as f64,
        train_ms: phase_ms(Phase::Train),
        samples_per_s: samples / train_s,
        encode_ms: phase_ms(Phase::Encode),
        decode_ms: phase_ms(Phase::Decode),
        decode_errors: errors as f64,
        broadcast_us: phase_ms(Phase::Broadcast) * 1e3,
        fold_ms: phase_ms(Phase::Fold),
        topk_ms: phase_ms(Phase::TopK),
        apply_ms: phase_ms(Phase::Apply),
        changed_positions: mean(recs.iter().map(|r| r.changed_positions as f64)),
        unattributed_ms: (step_ns - phase_total) / 1e6 / f64::from(half.max(1)),
        untraced_p50_ms: median(&untraced.wall_ms),
        traced_p50_ms: median(&traced_ms),
        coverage: phase_total / step_ns,
        ..Layers::default()
    };
    layers.report(&mut report);
    // Both simulations run the same rounds and encode the same frames.
    wire_timed.report_frames(&wire_after, 2 * half, &mut report);
    run.finish_trace(&spans);
    report
}

fn phase_span(p: Phase) -> &'static str {
    match p {
        Phase::Draw => "phase.draw",
        Phase::Broadcast => "phase.broadcast",
        Phase::Train => "phase.train",
        Phase::Encode => "phase.encode",
        Phase::Decode => "phase.decode",
        Phase::Fold => "phase.fold",
        Phase::TopK => "phase.topk",
        Phase::Apply => "phase.apply",
        Phase::Rebalance => "phase.rebalance",
    }
}

/// One line with the config fields that distinguish the workloads.
pub fn describe(cfg: &SimConfig) -> String {
    format!(
        "config: clients={} K={} oc={} E={} batch={} hidden={:?} strategy={:?} wire={:?} \
         availability={:?} seed={}",
        cfg.dataset.clients,
        cfg.round_size,
        cfg.oc,
        cfg.local_steps,
        cfg.batch_size,
        cfg.model.hidden,
        cfg.strategy,
        cfg.wire,
        cfg.availability,
        cfg.seed
    )
}
