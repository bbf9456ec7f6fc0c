//! The `loopback` workload: `Server::run` on this thread, two clients
//! on their own threads driving `ClientNode` over 127.0.0.1. It is a
//! closed loop: each client answers a message as soon as its own work
//! is done. Round time is the gap between consecutive INVITE arrivals at
//! client 0; both clients are invited every round.

use crate::layers::{Layers, ROUND_MSGS};
use crate::reference::{reference_ms, scaled, smooth};
use crate::report::Report;
use crate::sim::{describe, modeled_round_s, record_means, round_metrics, wall_note};
use crate::spans::Spans;
use crate::stats::{mean, median, ms, process_cpu};
use crate::wirestats::WireSnap;
use crate::workloads::Workload;
use crate::Run;
use gluefl_core::{RoundRecord, SimConfig, Simulation};
use gluefl_data::SyntheticFlDataset;
use gluefl_telemetry::{Snapshot, Telemetry};
use gluefl_tensor::rng::derive_seed;
use gluefl_transport::proto::{read_msg_blocking, write_msg};
use gluefl_transport::{
    fnv1a_f32_bits, ClientNode, MsgKind, Server, ServerConfig, ServerReport, TransportError,
    ENVELOPE_BYTES, PROTO_VERSION,
};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;

/// Set-ups behind one `setup_s`; all but the last run only until the
/// first timed INVITE.
const SETUP_REPS: usize = 15;

/// What one client thread saw.
struct ClientLog {
    /// INVITE arrival time per round.
    invites: Vec<Instant>,
    /// The process's CPU time at each INVITE arrival.
    invite_cpu: Vec<Duration>,
    /// The reference kernel's time in each calibrated round.
    ref_ms: Vec<f64>,
    /// Envelope + payload bytes received / sent, every message.
    bytes_down: u64,
    bytes_up: u64,
    spans: Spans,
}

/// One socket session: server report, counters and client logs.
struct Session {
    start: Instant,
    start_cpu: Duration,
    report: ServerReport,
    counters: Snapshot,
    clients: Vec<ClientLog>,
    /// The session root and `server.run`; client spans stay in `clients`.
    spans: Spans,
    /// `gluefl_wire::stats` before and after the session.
    wire: (WireSnap, WireSnap),
}

impl Session {
    /// Round `r`'s duration at client 0: INVITE(r) to INVITE(r + 1), ms.
    fn round_ms(&self, rounds: impl Iterator<Item = u32>) -> Vec<f64> {
        let inv = &self.clients[0].invites;
        rounds
            .map(|r| ms(inv[r as usize + 1] - inv[r as usize]))
            .collect()
    }

    /// CPU time the whole process (server, readers and both clients)
    /// spent on each round between the same two INVITE arrivals, scaled
    /// to the reference speed, ms. Covers the timed rounds of `cal`
    /// except the calibrated ones, which also ran the kernel.
    fn round_scaled_ms(&self, cal: Calibration, timed: u32) -> Vec<f64> {
        let c = &self.clients[0];
        let refs = smooth(&c.ref_ms);
        (cal.first..cal.first + timed)
            .filter(|&r| !cal.covers(r))
            .map(|r| {
                let cpu = ms(c.invite_cpu[r as usize + 1] - c.invite_cpu[r as usize]);
                let sample = ((r - cal.first) / CALIBRATE_EVERY) as usize;
                scaled(cpu, refs[sample.min(refs.len() - 1)])
            })
            .collect()
    }

    /// Set-up up to the INVITE of round `first`: process CPU ms and
    /// wall s.
    fn setup(&self, first: u32) -> (f64, f64) {
        let c = &self.clients[0];
        (
            ms(c.invite_cpu[first as usize] - self.start_cpu),
            (c.invites[first as usize] - self.start).as_secs_f64(),
        )
    }

    fn counter(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.counters.value(name, labels).unwrap_or(0.0)
    }

    fn bytes(&self, dir: &str, frame: &str) -> f64 {
        self.counter(
            "gluefl_server_bytes_total",
            &[("dir", dir), ("frame", frame)],
        )
    }

    /// Client 0's `name` spans over `rounds`, in ms per round.
    fn client0_ms_per_round(&self, name: &str, rounds: &[u32]) -> f64 {
        let total = self.clients[0].spans.total_ms_where(|span| {
            span.name == name && span.round.is_some_and(|r| rounds.contains(&r))
        });
        total / rounds.len().max(1) as f64
    }

    /// Every span of the session in one table, clients under the root.
    fn into_spans(self) -> Spans {
        let mut spans = self.spans;
        for c in self.clients {
            spans.append(c.spans, Some(0));
        }
        spans
    }
}

/// Rounds per block of the traced run's alternating untraced / traced
/// blocks.
const TRACE_BLOCK: u32 = 50;

/// Which rounds of a session record client spans: after `first`, every
/// other block of [`TRACE_BLOCK`] rounds. Interleaving keeps traced and
/// untraced rounds exposed to the same drift in machine speed.
#[derive(Debug, Clone, Copy)]
struct TracePlan {
    first: u32,
}

impl TracePlan {
    fn covers(self, round: u32) -> bool {
        round >= self.first && ((round - self.first) / TRACE_BLOCK) % 2 == 1
    }
}

/// Timed rounds per run of the reference kernel in the untraced run.
const CALIBRATE_EVERY: u32 = 100;

/// Which rounds of a session run the reference kernel on client 0: from
/// `first` on, one in [`CALIBRATE_EVERY`]. The kernel runs when the
/// round's INVITE arrives, so that round's time includes it and is left
/// out of the round statistics.
#[derive(Debug, Clone, Copy)]
struct Calibration {
    first: u32,
}

impl Calibration {
    fn covers(self, round: u32) -> bool {
        round >= self.first && (round - self.first).is_multiple_of(CALIBRATE_EVERY)
    }
}

/// Runs one client to `FIN`, mirroring `gluefl_transport::run_client`
/// with the benchmark's spans around each `ClientNode` call and each
/// blocking read of a round that `plan` covers, and the reference kernel
/// on each round that `cal` covers.
fn drive_client(
    addr: SocketAddr,
    cfg: SimConfig,
    id: usize,
    origin: Instant,
    plan: Option<TracePlan>,
    cal: Option<Calibration>,
) -> Result<ClientLog, TransportError> {
    let mut log = ClientLog {
        invites: Vec::new(),
        invite_cpu: Vec::new(),
        ref_ms: Vec::new(),
        bytes_down: 0,
        bytes_up: 0,
        spans: Spans::new(origin),
    };
    let session = log.spans.open("client.session", None, None);
    let t = Instant::now();
    let mut node = ClientNode::new(cfg, id);
    if plan.is_some() {
        log.spans
            .push("client.new", t, Instant::now(), Some(session), None);
    }
    let mut stream = TcpStream::connect(addr).map_err(gluefl_transport::ProtoError::Io)?;
    stream
        .set_nodelay(true)
        .map_err(gluefl_transport::ProtoError::Io)?;
    let send = |stream: &mut TcpStream, kind, round, payload: &[u8], log: &mut ClientLog| {
        log.bytes_up += (ENVELOPE_BYTES + payload.len()) as u64;
        write_msg(stream, kind, round, payload)
    };
    let mut hello = [0u8; 8];
    hello[..4].copy_from_slice(&PROTO_VERSION.to_le_bytes());
    hello[4..].copy_from_slice(&u32::try_from(id).expect("id fits u32").to_le_bytes());
    send(&mut stream, MsgKind::Hello, 0, &hello, &mut log)?;

    let mut payload = Vec::new();
    let mut out = Vec::new();
    loop {
        let t_wait = Instant::now();
        let env = read_msg_blocking(&mut stream, &mut payload)?;
        let arrived = Instant::now();
        log.bytes_down += (ENVELOPE_BYTES + payload.len()) as u64;
        let trace = plan.is_some_and(|p| p.covers(env.round));
        if trace && env.kind != MsgKind::Fin {
            log.spans.push(
                "client.wait",
                t_wait,
                arrived,
                Some(session),
                Some(env.round),
            );
        }
        match env.kind {
            MsgKind::Welcome => {}
            MsgKind::Invite => {
                log.invites.push(arrived);
                log.invite_cpu.push(process_cpu());
                if cal.is_some_and(|c| c.covers(env.round)) {
                    log.ref_ms.push(reference_ms());
                }
                let (analytic, wire) = node.handle_invite(env.round, &payload)?;
                if trace {
                    let done = Instant::now();
                    log.spans.push(
                        "client.handle_invite",
                        arrived,
                        done,
                        Some(session),
                        Some(env.round),
                    );
                }
                let mut offer = [0u8; 16];
                offer[..8].copy_from_slice(&analytic.to_le_bytes());
                offer[8..].copy_from_slice(&wire.to_le_bytes());
                send(&mut stream, MsgKind::Offer, env.round, &offer, &mut log)?;
            }
            MsgKind::Grant if payload.first() == Some(&1) => {
                out.clear();
                node.encode_granted(env.round, &mut out)?;
                if trace {
                    let done = Instant::now();
                    log.spans.push(
                        "client.encode_granted",
                        arrived,
                        done,
                        Some(session),
                        Some(env.round),
                    );
                }
                send(&mut stream, MsgKind::Upload, env.round, &out, &mut log)?;
            }
            MsgKind::Grant => node.discard_pending(),
            MsgKind::Fin => break,
            other => return Err(TransportError::UnexpectedMessage(other)),
        }
    }
    log.spans.end(session);
    Ok(log)
}

/// Runs one full socket session of `cfg.rounds` rounds.
/// Client 0 runs the reference kernel on the rounds `cal` covers.
fn session(
    cfg: &SimConfig,
    origin: Instant,
    plan: Option<TracePlan>,
    cal: Option<Calibration>,
) -> Result<Session, String> {
    let wire_before = WireSnap::take();
    let (start, start_cpu) = (Instant::now(), process_cpu());
    let hub = Arc::new(Telemetry::new());
    let mut net = ServerConfig::local(CLIENTS);
    net.telemetry = Some(Arc::clone(&hub));
    let server = Server::bind(cfg.clone(), net).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let mut spans = Spans::new(origin);
    let root = spans.open("loopback.session", None, None);
    let (served, clients) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let cfg = cfg.clone();
                let cal = cal.filter(|_| id == 0);
                s.spawn(move || drive_client(addr, cfg, id, origin, plan, cal))
            })
            .collect();
        let t = Instant::now();
        let served = server.run();
        if plan.is_some() {
            spans.push("server.run", t, Instant::now(), Some(root), None);
        }
        let clients: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect();
        (served, clients)
    });
    spans.end(root);
    let wire_after = WireSnap::take();
    let report = served.map_err(|e| format!("server: {e}"))?;
    let logs = clients
        .into_iter()
        .enumerate()
        .map(|(id, c)| c.map_err(|e| format!("client {id}: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    if logs[0].invites.len() != cfg.rounds as usize {
        return Err(format!(
            "client 0 saw {} INVITEs in {} rounds",
            logs[0].invites.len(),
            cfg.rounds
        ));
    }
    Ok(Session {
        start,
        start_cpu,
        report,
        counters: hub.snapshot(),
        clients: logs,
        spans,
        wire: (wire_before, wire_after),
    })
}

/// Runs the session and every correctness check on it; `None` when the
/// session itself failed (the failure is recorded on `out`).
fn checked_session(
    cfg: &SimConfig,
    origin: Instant,
    plan: Option<TracePlan>,
    cal: Option<Calibration>,
    out: &mut Report,
) -> Option<Session> {
    let s = match session(cfg, origin, plan, cal) {
        Ok(s) => s,
        Err(e) => {
            out.check(false, format!("socket session failed: {e}"));
            return None;
        }
    };
    let r = &s.report;
    let errors = s.wire.1.decode_errors - s.wire.0.decode_errors;
    out.check(errors == 0, format!("{errors} wire decode errors"));
    out.check(
        r.skipped_uploads == 0 && r.dead_clients == 0,
        format!(
            "{} uploads skipped, {} clients dead",
            r.skipped_uploads, r.dead_clients
        ),
    );
    let starved = r.records.iter().filter(|x| x.kept == 0).count();
    out.check(starved == 0, format!("{starved} rounds kept no upload"));
    let (down, up) = s
        .clients
        .iter()
        .fold((0, 0), |(d, u), c| (d + c.bytes_down, u + c.bytes_up));
    let total = |dir| {
        MsgKind::ALL
            .iter()
            .map(|k| s.bytes(dir, k.name()))
            .sum::<f64>()
    };
    out.check(
        total("down") == down as f64 && total("up") == up as f64,
        format!(
            "server byte counters (down {}, up {}) disagree with the clients' ({down}, {up})",
            total("down"),
            total("up")
        ),
    );

    // The same config and seed in-process, outside every timed window.
    let mut sim = Simulation::new(cfg.clone());
    let expected: Vec<RoundRecord> = (0..cfg.rounds).map(|_| sim.step()).collect();
    let fnv = fnv1a_f32_bits(sim.model().params());
    out.check(
        r.final_params_fnv == fnv,
        format!(
            "final_params_fnv {:#x} differs from the simulator's {fnv:#x}",
            r.final_params_fnv
        ),
    );
    let diverged = r
        .records
        .iter()
        .zip(&expected)
        .filter(|(a, b)| a != b)
        .count();
    out.check(
        diverged == 0 && r.records.len() == expected.len(),
        format!("{diverged} round records differ from the simulator's"),
    );
    out.attempted += r.records.iter().map(|x| x.kept as u64).sum::<u64>();
    out.failed += (r.skipped_uploads + r.dead_clients) as u64;
    Some(s)
}

fn final_eval(recs: &[RoundRecord]) -> (f64, f64) {
    let last = recs.last();
    (
        last.and_then(|r| r.accuracy).unwrap_or(f64::NAN),
        last.and_then(|r| r.loss).unwrap_or(f64::NAN),
    )
}

/// The untraced run: end-to-end metrics.
pub fn run(run: &Run) -> Report {
    let w = Workload::Loopback;
    let (warm, timed) = (w.warmup_rounds(), w.timed_rounds(run.seconds));
    let mut out = Report::default();
    let origin = Instant::now();

    // Set-up only: each short session runs until the first timed INVITE,
    // with the reference kernel timed on this thread before and after.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut setups_wall = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let mut refs: Vec<f64> = (0..3).map(|_| reference_ms()).collect();
        let short = session(&w.config(run.seed, warm + 1), origin, None, None);
        refs.extend((0..3).map(|_| reference_ms()));
        match short {
            Ok(s) => {
                let (cpu_ms, wall_s) = s.setup(warm);
                setups.push(scaled(cpu_ms, median(&refs)) / 1e3);
                setups_wall.push(wall_s);
            }
            Err(e) => out.check(false, format!("set-up session failed: {e}")),
        }
    }
    let cfg = w.config(run.seed, warm + timed + 1);
    out.note(describe(&cfg));
    out.note(format!(
        "{timed} timed rounds after {warm} warm-up rounds, one in {CALIBRATE_EVERY} of them \
         running the reference kernel; {SETUP_REPS} set-ups; closed loop, {CLIENTS} client \
         connections"
    ));
    let cal = Calibration { first: warm };
    let Some(s) = checked_session(&cfg, origin, None, Some(cal), &mut out) else {
        return out;
    };
    if setups.is_empty() {
        return out;
    }
    let round_ms = s.round_ms((warm..warm + timed).filter(|&r| !cal.covers(r)));
    let recs = &s.report.records[warm as usize..(warm + timed) as usize];
    let (acc, loss) = final_eval(&s.report.records);

    out.note(wall_note(
        median(&setups_wall),
        &round_ms,
        &s.clients[0].ref_ms,
    ));
    out.metric("setup_s", median(&setups), "s");
    round_metrics(&mut out, &s.round_scaled_ms(cal, timed));
    record_means(&mut out, recs);
    out.note(format!(
        "final_accuracy {acc:.4} 1; final_loss {loss:.4} 1; modeled_round_s {:.3} s",
        modeled_round_s(recs)
    ));
    // The dense-broadcast gap: measured socket bytes beside the paper's
    // staleness-aware downstream volume.
    let (sock_down, sock_up) = socket_mb_per_round(&s);
    out.note(format!(
        "socket_down_mb_per_round {sock_down:.6} MB vs down_mb_per_round {:.6} MB; \
         socket_up_mb_per_round {sock_up:.6} MB",
        mean(recs.iter().map(|r| r.down_bytes as f64)) / 1e6
    ));
    out
}

/// Measured envelope + payload MB per round from the server's counters,
/// round messages only (the handshake and FIN are per session).
fn socket_mb_per_round(s: &Session) -> (f64, f64) {
    let rounds = s.report.records.len() as f64;
    let per_round = |dir: &str, frames: &[&str]| {
        frames.iter().map(|f| s.bytes(dir, f)).sum::<f64>() / rounds / 1e6
    };
    (
        per_round("down", &["invite", "grant"]),
        per_round("up", &["offer", "upload"]),
    )
}

/// The traced run: one session whose timed rounds alternate between
/// untraced blocks and blocks that record client spans.
pub fn run_traced(run: &Run) -> Report {
    let w = Workload::Loopback;
    let (warm, timed) = (w.warmup_rounds(), w.timed_rounds(run.seconds));
    let cfg = w.config(run.seed, warm + timed + 1);
    let mut out = Report::default();
    out.note(describe(&cfg));
    out.note(format!(
        "{timed} timed rounds in alternating untraced / traced blocks of {TRACE_BLOCK}; \
         closed loop, {CLIENTS} client connections"
    ));
    let origin = Instant::now();

    // `ClientNode::new` and `Server::run` each regenerate the dataset;
    // one set-up pays for all three.
    let t = Instant::now();
    for _ in 0..=CLIENTS {
        drop(SyntheticFlDataset::generate(
            cfg.dataset.clone(),
            derive_seed(cfg.seed, "data", 0),
        ));
    }
    let generate_ms = ms(t.elapsed());

    let plan = TracePlan { first: warm };
    let Some(s) = checked_session(&cfg, origin, Some(plan), None, &mut out) else {
        return out;
    };
    let (traced_rounds, untraced_rounds): (Vec<u32>, Vec<u32>) =
        (warm..warm + timed).partition(|&r| plan.covers(r));
    let untraced_ms = s.round_ms(untraced_rounds.iter().copied());
    let traced_ms = s.round_ms(traced_rounds.iter().copied());
    let recs: Vec<RoundRecord> = traced_rounds
        .iter()
        .map(|&r| s.report.records[r as usize])
        .collect();

    // Client 0's spans over the traced rounds.
    let handle_invite_ms = s.client0_ms_per_round("client.handle_invite", &traced_rounds);
    let encode_granted_ms = s.client0_ms_per_round("client.encode_granted", &traced_rounds);
    let wait_ms = s.client0_ms_per_round("client.wait", &traced_rounds);
    let covered = handle_invite_ms + encode_granted_ms + wait_ms;

    let (sock_down, sock_up) = socket_mb_per_round(&s);
    let rounds = s.report.records.len() as f64;
    let granted = s.counter("gluefl_server_offers_granted_total", &[]);
    let skipped = s.counter("gluefl_server_uploads_skipped_total", &[]);
    let killed = s.counter("gluefl_server_clients_killed_total", &[]);
    let deadlines = s.counter(
        "gluefl_server_deadlines_expired_total",
        &[("phase", "offer")],
    ) + s.counter(
        "gluefl_server_deadlines_expired_total",
        &[("phase", "upload")],
    );
    let invited: usize = recs.iter().map(|r| r.invited).sum();
    let kept: usize = recs.iter().map(|r| r.kept).sum();
    let (acc, loss) = final_eval(&s.report.records);
    let layers = Layers {
        final_accuracy: acc,
        final_loss: loss,
        modeled_round_s: modeled_round_s(&recs),
        data_generate_ms: generate_ms,
        kept_ratio: kept as f64 / invited.max(1) as f64,
        changed_positions: mean(recs.iter().map(|r| r.changed_positions as f64)),
        handle_invite_ms,
        encode_granted_ms,
        wait_ms,
        transport_kb: ROUND_MSGS.map(|(dir, frame)| s.bytes(dir, frame) / rounds / 1e3),
        socket_down_mb: sock_down,
        socket_up_mb: sock_up,
        offers_granted: granted,
        deadlines_expired: deadlines,
        uploads_skipped: skipped,
        clients_killed: killed,
        failed_upload_ratio: (skipped + killed) / granted.max(1.0),
        untraced_p50_ms: median(&untraced_ms),
        traced_p50_ms: median(&traced_ms),
        coverage: covered / mean(traced_ms.iter().copied()),
        ..Layers::default()
    };
    layers.report(&mut out);
    let (before, after) = &s.wire;
    before.report_frames(after, s.report.records.len() as u32, &mut out);
    run.finish_trace(&s.into_spans());
    out
}
