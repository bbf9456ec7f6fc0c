//! The orchestrating server: a real-socket round loop that reproduces
//! [`gluefl_core::Simulation`] bit-exactly when every client behaves,
//! and completes every round (skipping the offender) when one does not.
//!
//! # Round protocol
//!
//! Per round the server:
//!
//! 1. plans invitations through the strategy's `OnlineQuery` seam
//!    (availability ∧ connection-alive);
//! 2. serializes the broadcast once (dense F32 model frame + the
//!    strategy's mask frame) and sends each invited client an `INVITE`
//!    carrying its group tag plus that cached frame pair;
//! 3. collects `OFFER`s — each client's predicted upload byte counts —
//!    under per-client deadlines derived from the *modeled* download and
//!    compute times ([`wall_deadline`]); an offer above twice the
//!    payload cap kills its sender;
//! 4. keeps the fastest offers per group ([`keep_fastest`]) and
//!    `GRANT`s exactly the keep set — the over-committed remainder is
//!    told to discard, so its upload bytes never reach the decoder; a
//!    remainder client that uploads anyway has its payload drained and
//!    dropped unread;
//! 5. decodes each granted upload **as it arrives**
//!    ([`wire_link::decode_upload_with_stats`]) and folds it immediately
//!    through the [`StreamingAggregator`] — there is no
//!    collect-then-aggregate staging; a hostile or dead client, or one
//!    whose upload length differs from its offer, is skipped
//!    (`gate.skip`) and the round completes without it;
//! 6. applies the masked update, averages BN statistics (Appendix D),
//!    evolves sticky state, and evaluates on schedule.
//!
//! Every step that is not socket handling — the run state, planning,
//! download accounting, timing, keep selection, the apply, rebalancing,
//! evaluation — is the code [`gluefl_core::Simulation`] runs
//! ([`RunSetup`], [`ServerSetup`], [`wire_link`]), so the per-round
//! [`RoundRecord`]s match the in-process run field for field.

use crate::proto::{
    read_msg, stall_ticks_for, write_msg, MsgKind, ProtoError, MAX_PAYLOAD, PROTO_VERSION,
};
use crate::TransportError;
use gluefl_core::strategies::{Group, Strategy, Upload};
use gluefl_core::stream::StreamingAggregator;
use gluefl_core::{
    keep_fastest, wire_link, ClientCodec, RoundRecord, RunSetup, ScratchPool, ServerSetup,
    SimConfig,
};
use gluefl_net::timing::{wall_deadline, ClientRoundTime};
use gluefl_telemetry::{Counter, Dir, EventKind, Telemetry};
use std::io;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Modeled upload time assigned to an invited client that never offered:
/// large enough to lose every [`keep_fastest`] comparison, finite so the
/// sort never sees a NaN/∞ ordering panic.
const MISSING_OFFER_SECS: f64 = 1e30;

/// Largest byte count an honest `OFFER` can name: twice the envelope
/// payload cap. The `INVITE` carrying the dense F32 model already fits
/// [`MAX_PAYLOAD`], so no honest upload comes near this; a larger figure
/// is a protocol violation, and a round's sum of offers cannot overflow.
const MAX_OFFER_BYTES: u64 = 2 * MAX_PAYLOAD as u64;

/// Transport-level knobs of the server (the training run itself is fully
/// described by the [`SimConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Expected number of connecting clients; `HELLO` ids must be unique
    /// and below this.
    pub clients: usize,
    /// How long to wait for all clients to say `HELLO`.
    pub hello_timeout: Duration,
    /// Flat floor of every offer deadline.
    pub offer_timeout: Duration,
    /// Flat floor of every upload deadline.
    pub upload_timeout: Duration,
    /// Wall seconds of extra patience per *modeled* second
    /// ([`wall_deadline`]'s `scale`); 0 keeps deadlines flat — right for
    /// loopback, where modeled hours must not become real ones.
    pub secs_per_modeled_sec: f64,
    /// Grace budget for a connection that started a message and stopped
    /// making progress (slow-loris kill threshold).
    pub stall_grace: Duration,
    /// Socket read-timeout tick of the per-connection reader threads.
    pub read_tick: Duration,
    /// Telemetry hub the run reports into: per-round / per-connection
    /// journal events (offers granted, expired deadlines, mid-message
    /// stalls, skips and kills) and counters, including measured bytes
    /// up and down by envelope message kind. `None` (the default) skips
    /// every recording branch.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl ServerConfig {
    /// Defaults for a local run with `clients` participants.
    #[must_use]
    pub fn local(clients: usize) -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            clients,
            hello_timeout: Duration::from_secs(30),
            offer_timeout: Duration::from_secs(30),
            upload_timeout: Duration::from_secs(30),
            secs_per_modeled_sec: 0.0,
            stall_grace: Duration::from_secs(2),
            read_tick: Duration::from_millis(50),
            telemetry: None,
        }
    }
}

/// The server's pre-registered counter handles plus the hub, so the hot
/// round loop records through plain atomics — the registry mutex is
/// only touched at construction and on the rare decode-error path.
struct NetRecorder {
    hub: Arc<Telemetry>,
    offers_granted: Counter,
    offer_deadlines: Counter,
    upload_deadlines: Counter,
    stalls: Counter,
    skips: Counter,
    kills: Counter,
    /// Bytes received / sent, indexed by `MsgKind::id() - 1`.
    bytes_up: Vec<Counter>,
    bytes_down: Vec<Counter>,
}

impl NetRecorder {
    fn new(hub: Arc<Telemetry>) -> Self {
        let dir_counters = |dir: &'static str| -> Vec<Counter> {
            MsgKind::ALL
                .iter()
                .map(|k| {
                    hub.counter(
                        "gluefl_server_bytes_total",
                        &[("dir", dir), ("frame", k.name())],
                    )
                })
                .collect()
        };
        Self {
            offers_granted: hub.counter("gluefl_server_offers_granted_total", &[]),
            offer_deadlines: hub.counter(
                "gluefl_server_deadlines_expired_total",
                &[("phase", "offer")],
            ),
            upload_deadlines: hub.counter(
                "gluefl_server_deadlines_expired_total",
                &[("phase", "upload")],
            ),
            stalls: hub.counter("gluefl_server_stalls_total", &[]),
            skips: hub.counter("gluefl_server_uploads_skipped_total", &[]),
            kills: hub.counter("gluefl_server_clients_killed_total", &[]),
            bytes_up: dir_counters("up"),
            bytes_down: dir_counters("down"),
            hub,
        }
    }

    /// Records one sent message's measured bytes (envelope + payload).
    fn sent(&self, kind: MsgKind, payload_len: usize) {
        self.bytes_down[kind.id() as usize - 1]
            .add((crate::proto::ENVELOPE_BYTES + payload_len) as u64);
    }

    /// Records one received message's measured bytes, journaling the
    /// big ones (uploads) per client.
    fn received(&self, round: u32, id: usize, kind: MsgKind, payload_len: usize) {
        let bytes = (crate::proto::ENVELOPE_BYTES + payload_len) as u64;
        self.bytes_up[kind.id() as usize - 1].add(bytes);
        if kind == MsgKind::Upload {
            self.hub.event(
                round,
                id as i64,
                EventKind::Bytes {
                    dir: Dir::Up,
                    frame: kind.name(),
                    bytes,
                },
            );
        }
    }

    /// Inspects every reader event once, on receipt: byte accounting
    /// for complete messages, the stall counter for mid-message stalls.
    fn reader_event(&self, round: u32, id: usize, event: &ReaderEvent) {
        match event {
            ReaderEvent::Msg(env, payload) => self.received(round, id, env.kind, payload.len()),
            ReaderEvent::Failed(ProtoError::Stalled { .. }) => {
                self.stalls.inc();
                self.hub.event(round, id as i64, EventKind::Stall);
            }
            ReaderEvent::Closed | ReaderEvent::Failed(_) => {}
        }
    }

    fn skip(&self, round: u32, id: usize) {
        self.skips.inc();
        self.hub.event(round, id as i64, EventKind::UploadSkipped);
    }

    fn decode_error(&self, round: u32, id: usize, err: &gluefl_wire::WireError) {
        let kind = err.stat_name();
        self.hub
            .counter("gluefl_server_decode_errors_total", &[("kind", kind)])
            .inc();
        self.hub
            .event(round, id as i64, EventKind::DecodeError { kind });
    }
}

/// What a run produced: the per-round records (comparable with
/// `PartialEq` against a [`gluefl_core::Simulation`] run), plus
/// robustness counters.
#[derive(Debug)]
pub struct ServerReport {
    /// One record per round, field-for-field what the simulator emits.
    pub records: Vec<RoundRecord>,
    /// The strategy's display name.
    pub strategy: String,
    /// FNV-1a over the final global parameters' bit patterns
    /// ([`crate::fnv1a_f32_bits`]).
    pub final_params_fnv: u64,
    /// Kept uploads that were skipped (deadline, disconnect, or hostile
    /// bytes). 0 in a failure-free run.
    pub skipped_uploads: usize,
    /// Connections declared dead during the run.
    pub dead_clients: usize,
}

/// What a reader thread reports about its connection.
enum ReaderEvent {
    /// A complete message arrived.
    Msg(crate::proto::Envelope, Vec<u8>),
    /// The peer closed cleanly between messages.
    Closed,
    /// The connection failed (truncation, stall, garbage, socket error).
    /// The round loop treats every failure the same way (kill + skip);
    /// telemetry distinguishes mid-message stalls for the stall counter.
    Failed(ProtoError),
}

/// One registered client connection.
struct Conn {
    writer: TcpStream,
    reader: Option<JoinHandle<()>>,
}

/// Marks a connection dead: no further events are honored and the socket
/// is shut down so its reader thread unblocks and exits. The kill
/// counter and journal event fire on the same `alive` transition the
/// [`ServerReport::dead_clients`] count uses, so the two always agree.
fn kill(
    id: usize,
    alive: &mut [bool],
    conns: &[Option<Conn>],
    dead: &mut usize,
    tel: &Option<NetRecorder>,
    round: u32,
) {
    if alive[id] {
        alive[id] = false;
        *dead += 1;
        if let Some(t) = tel {
            t.kills.inc();
            t.hub.event(round, id as i64, EventKind::ClientKilled);
        }
        if let Some(conn) = &conns[id] {
            let _ = conn.writer.shutdown(Shutdown::Both);
        }
    }
}

/// A bound, not-yet-running server. [`Server::run`] executes the full
/// round loop and consumes it.
pub struct Server {
    listener: TcpListener,
    sim: SimConfig,
    net: ServerConfig,
}

impl Server {
    /// Binds the listen socket.
    ///
    /// # Errors
    /// Socket errors from bind.
    pub fn bind(sim: SimConfig, net: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&net.addr)?;
        Ok(Self { listener, sim, net })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Panics
    /// Panics if the socket cannot report its own address.
    #[must_use]
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.listener
            .local_addr()
            .expect("bound socket has an address")
    }

    /// Accepts all clients, runs every configured round, and reports.
    ///
    /// # Errors
    /// [`TransportError::HandshakeTimeout`] when fewer than the expected
    /// clients complete `HELLO` in time; socket errors from the
    /// listener. Per-connection failures after the handshake are *not*
    /// errors — the offender is skipped and the run completes.
    ///
    /// # Panics
    /// Panics only on internal invariant violations (a kept slot left
    /// unresolved), never on hostile input.
    #[allow(clippy::too_many_lines)]
    pub fn run(self) -> Result<ServerReport, TransportError> {
        let Server {
            listener,
            sim: cfg,
            net,
        } = self;
        let stall_ticks = stall_ticks_for(net.stall_grace, net.read_tick);
        let tel = net.telemetry.clone().map(NetRecorder::new);

        // --- Run state, built by the same constructors as the simulator's. ---
        let mut setup = RunSetup::new(&cfg);
        let mut srv = ServerSetup::new(&cfg, &setup);
        // Holds no residuals: it only names the upload variant the
        // strategy's clients produce.
        let codec = setup.codec(&cfg);
        let n = setup.data.num_clients();
        let dim = setup.dim();
        let stats_len = setup.stats_positions.len();
        let mut scratch = ScratchPool::new();

        // --- Handshake phase. ---
        let (tx, rx) = mpsc::channel::<(usize, ReaderEvent)>();
        let mut conns: Vec<Option<Conn>> = (0..net.clients).map(|_| None).collect();
        let mut alive = vec![false; net.clients.max(n)];
        listener.set_nonblocking(true).map_err(ProtoError::Io)?;
        let hello_deadline = Instant::now() + net.hello_timeout;
        let mut connected = 0usize;
        while connected < net.clients && Instant::now() < hello_deadline {
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Some(id) = handshake(
                        stream,
                        &net,
                        &alive,
                        u32::try_from(n).unwrap_or(u32::MAX),
                        cfg.rounds,
                        stall_ticks,
                        &tx,
                        &mut conns,
                        &tel,
                    ) {
                        alive[id] = true;
                        connected += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(ProtoError::Io(e).into()),
            }
        }
        if connected < net.clients {
            return Err(TransportError::HandshakeTimeout {
                connected,
                expected: net.clients,
            });
        }

        let mut dead_clients = 0usize;
        let mut skipped_uploads = 0usize;

        // Round-scoped buffers.
        let mut records = Vec::with_capacity(cfg.rounds as usize);
        let mut invited: Vec<(usize, Group)> = Vec::new();
        let mut invited_ix = vec![usize::MAX; n];
        let mut bbuf: Vec<u8> = Vec::new();
        let mut invite_buf: Vec<u8> = Vec::new();
        let mut stats_saved: Vec<f32> = Vec::new();
        let mut changed: Vec<usize> = Vec::new();

        for round in 0..cfg.rounds {
            // --- Plan (strategy RNG + availability, alive-gated). ---
            let plan = srv.plan_round(round, |id| alive[id]);
            invited.clear();
            invited.extend(plan.invited());
            let mut rec = RoundRecord {
                round,
                invited: invited.len(),
                ..Default::default()
            };
            if invited.is_empty() {
                setup.eval_on_schedule(&cfg, &mut scratch, round, &mut rec);
                records.push(rec);
                continue;
            }
            for (i, &(id, _)) in invited.iter().enumerate() {
                invited_ix[id] = i;
            }

            // --- Download accounting (every invited client syncs). ---
            let download_bytes = srv.sync_invited(round, &invited);
            rec.down_bytes = download_bytes.iter().sum();

            // --- Serialize the broadcast once; INVITE every client. ---
            bbuf.clear();
            rec.wire_broadcast_bytes = wire_link::encode_broadcast(
                &cfg.wire,
                round,
                setup.model.params(),
                srv.strategy.round_mask(round),
                &mut bbuf,
            ) as u64;
            for &(id, group) in &invited {
                if !alive[id] {
                    continue;
                }
                invite_buf.clear();
                invite_buf.push(u8::from(group == Group::Sticky));
                invite_buf.extend_from_slice(&bbuf);
                let conn = conns[id].as_mut().expect("alive client has a connection");
                if write_msg(&mut conn.writer, MsgKind::Invite, round, &invite_buf).is_err() {
                    kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                } else if let Some(t) = &tel {
                    t.sent(MsgKind::Invite, invite_buf.len());
                }
            }

            // --- Offer phase: per-client deadlines from modeled times. ---
            let phase_start = Instant::now();
            let mut times: Vec<ClientRoundTime> = Vec::with_capacity(invited.len());
            let mut deadlines: Vec<Instant> = Vec::with_capacity(invited.len());
            for (i, &(id, _)) in invited.iter().enumerate() {
                let mut time = srv.download_compute_time(&cfg, id, download_bytes[i]);
                time.upload_secs = MISSING_OFFER_SECS;
                times.push(time);
                deadlines.push(
                    phase_start
                        + wall_deadline(
                            time.download_secs + time.compute_secs,
                            net.offer_timeout,
                            net.secs_per_modeled_sec,
                        ),
                );
            }
            let mut offers: Vec<Option<(u64, u64)>> = vec![None; invited.len()];
            let mut resolved: Vec<bool> = invited.iter().map(|&(id, _)| !alive[id]).collect();
            let mut pending = resolved.iter().filter(|&&r| !r).count();
            while pending > 0 {
                let now = Instant::now();
                for i in 0..invited.len() {
                    if !resolved[i] && now >= deadlines[i] {
                        resolved[i] = true;
                        pending -= 1;
                        if let Some(t) = &tel {
                            t.offer_deadlines.inc();
                            t.hub.event(
                                round,
                                invited[i].0 as i64,
                                EventKind::DeadlineExpired { which: "offer" },
                            );
                        }
                        kill(
                            invited[i].0,
                            &mut alive,
                            &conns,
                            &mut dead_clients,
                            &tel,
                            round,
                        );
                    }
                }
                if pending == 0 {
                    break;
                }
                let next = deadlines
                    .iter()
                    .zip(resolved.iter())
                    .filter(|&(_, &r)| !r)
                    .map(|(d, _)| *d)
                    .min()
                    .expect("pending > 0 implies an unresolved deadline");
                let timeout = next
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                let (id, event) = match rx.recv_timeout(timeout) {
                    Ok(pair) => pair,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                if let Some(t) = &tel {
                    t.reader_event(round, id, &event);
                }
                if !alive[id] {
                    continue;
                }
                let ix = if id < n { invited_ix[id] } else { usize::MAX };
                let offer = match &event {
                    ReaderEvent::Msg(env, payload)
                        if env.kind == MsgKind::Offer
                            && env.round == round
                            && ix != usize::MAX
                            && !resolved[ix] =>
                    {
                        parse_offer(payload)
                    }
                    _ => None,
                };
                match offer {
                    Some(offer) => {
                        offers[ix] = Some(offer);
                        resolved[ix] = true;
                        pending -= 1;
                    }
                    None => {
                        // Closed, failed, or a protocol violation.
                        kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                        if ix != usize::MAX && !resolved[ix] {
                            resolved[ix] = true;
                            pending -= 1;
                        }
                    }
                }
            }

            // --- Price offers; account volume; finish modeled times. ---
            for (i, &(id, _)) in invited.iter().enumerate() {
                if let Some((analytic, wire)) = offers[i] {
                    rec.up_bytes += analytic;
                    rec.wire_up_bytes += wire;
                    times[i].upload_secs = srv.upload_secs(id, wire);
                }
            }

            // --- Keep the fastest per group (over-commitment, §5.6). ---
            let kept_idx = keep_fastest(&plan, &times);
            rec.kept = kept_idx.len();
            let mut kept_slot = vec![usize::MAX; invited.len()];
            for (j, &i) in kept_idx.iter().enumerate() {
                kept_slot[i] = j;
            }

            // --- GRANT the keep set; dismiss the remainder. ---
            for (i, &(id, _)) in invited.iter().enumerate() {
                if !alive[id] || offers[i].is_none() {
                    continue;
                }
                let conn = conns[id].as_mut().expect("alive client has a connection");
                let granted = [u8::from(kept_slot[i] != usize::MAX)];
                if write_msg(&mut conn.writer, MsgKind::Grant, round, &granted).is_err() {
                    kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                } else if let Some(t) = &tel {
                    t.sent(MsgKind::Grant, granted.len());
                    if granted[0] == 1 {
                        t.offers_granted.inc();
                        t.hub.event(round, id as i64, EventKind::OfferGranted);
                    }
                }
            }

            // --- Upload phase: decode + fold each arrival immediately. ---
            let kept_pairs: Vec<(usize, Group)> = kept_idx.iter().map(|&i| invited[i]).collect();
            let mut gate =
                StreamingAggregator::begin(round, &kept_pairs, &mut *srv.strategy, &mut scratch);
            stats_saved.clear();
            stats_saved.resize(kept_idx.len() * stats_len, 0.0);
            let mut delivered = vec![false; kept_idx.len()];
            let mut up_resolved = vec![false; kept_idx.len()];
            let phase_start = Instant::now();
            let mut up_deadlines: Vec<Instant> = Vec::with_capacity(kept_idx.len());
            let mut pending = 0usize;
            for (j, &i) in kept_idx.iter().enumerate() {
                let (id, _) = invited[i];
                up_deadlines.push(
                    phase_start
                        + wall_deadline(
                            times[i].upload_secs,
                            net.upload_timeout,
                            net.secs_per_modeled_sec,
                        ),
                );
                if alive[id] && offers[i].is_some() {
                    pending += 1;
                } else {
                    let _ = gate.skip(&mut *srv.strategy, id, &mut scratch);
                    skipped_uploads += 1;
                    if let Some(t) = &tel {
                        t.skip(round, id);
                    }
                    up_resolved[j] = true;
                }
            }
            while pending > 0 {
                let now = Instant::now();
                for j in 0..kept_idx.len() {
                    if !up_resolved[j] && now >= up_deadlines[j] {
                        up_resolved[j] = true;
                        pending -= 1;
                        let id = invited[kept_idx[j]].0;
                        let _ = gate.skip(&mut *srv.strategy, id, &mut scratch);
                        skipped_uploads += 1;
                        if let Some(t) = &tel {
                            t.upload_deadlines.inc();
                            t.hub.event(
                                round,
                                id as i64,
                                EventKind::DeadlineExpired { which: "upload" },
                            );
                            t.skip(round, id);
                        }
                        kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                    }
                }
                if pending == 0 {
                    break;
                }
                let next = up_deadlines
                    .iter()
                    .zip(up_resolved.iter())
                    .filter(|&(_, &r)| !r)
                    .map(|(d, _)| *d)
                    .min()
                    .expect("pending > 0 implies an unresolved deadline");
                let timeout = next
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                let (id, event) = match rx.recv_timeout(timeout) {
                    Ok(pair) => pair,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                if let Some(t) = &tel {
                    t.reader_event(round, id, &event);
                }
                if !alive[id] {
                    continue;
                }
                let ix = if id < n { invited_ix[id] } else { usize::MAX };
                let slot = if ix == usize::MAX {
                    usize::MAX
                } else {
                    kept_slot[ix]
                };
                match event {
                    ReaderEvent::Msg(env, payload)
                        if env.kind == MsgKind::Upload && env.round == round =>
                    {
                        if slot == usize::MAX {
                            // The over-committed remainder (or an
                            // uninvited peer) sent bytes anyway: the
                            // reader already drained them off the socket;
                            // drop the payload without decoding a byte.
                            drop(payload);
                            continue;
                        }
                        if up_resolved[slot] {
                            // Duplicate upload: protocol violation.
                            kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                            continue;
                        }
                        let ok = accept_upload(
                            &payload,
                            offers[ix].map_or(0, |(_, wire)| wire),
                            round,
                            &codec,
                            &mut *srv.strategy,
                            &mut gate,
                            &mut scratch,
                            id,
                            dim,
                            stats_len,
                            &mut stats_saved[slot * stats_len..(slot + 1) * stats_len],
                            &tel,
                        );
                        if ok {
                            delivered[slot] = true;
                        } else {
                            let _ = gate.skip(&mut *srv.strategy, id, &mut scratch);
                            skipped_uploads += 1;
                            if let Some(t) = &tel {
                                t.skip(round, id);
                            }
                            kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                        }
                        up_resolved[slot] = true;
                        pending -= 1;
                    }
                    _ => {
                        kill(id, &mut alive, &conns, &mut dead_clients, &tel, round);
                        if slot != usize::MAX && !up_resolved[slot] {
                            let _ = gate.skip(&mut *srv.strategy, id, &mut scratch);
                            skipped_uploads += 1;
                            if let Some(t) = &tel {
                                t.skip(round, id);
                            }
                            up_resolved[slot] = true;
                            pending -= 1;
                        }
                    }
                }
            }
            assert!(gate.complete(), "every kept slot must be resolved");
            let update = gate.finish(&mut *srv.strategy, &mut scratch);

            // --- Apply the update and the BN-statistic mean over the
            // delivered stats frames (the simulator's 1/K mean when none
            // was skipped); rebalance with the whole keep set. ---
            let stats_rows: Vec<&[f32]> = (0..kept_idx.len())
                .filter(|&kj| delivered[kj])
                .map(|kj| &stats_saved[kj * stats_len..(kj + 1) * stats_len])
                .collect();
            let delivered_count = stats_rows.len();
            rec.changed_positions =
                srv.apply_update(&mut setup, update, &stats_rows, &mut changed, &mut scratch);
            srv.finish_round(round, &invited, &kept_idx);
            rec.set_kept_times(&times, &kept_idx);
            setup.eval_on_schedule(&cfg, &mut scratch, round, &mut rec);
            records.push(rec);
            if let Some(t) = &tel {
                t.hub.event(
                    round,
                    -1,
                    EventKind::RoundDone {
                        kept: u32::try_from(delivered_count).unwrap_or(u32::MAX),
                    },
                );
            }

            // Reset the invited-index map for the next round.
            for &(id, _) in &invited {
                invited_ix[id] = usize::MAX;
            }
        }

        // --- FIN + teardown. ---
        for (id, conn) in conns.iter_mut().enumerate() {
            if let Some(conn) = conn {
                if alive[id] && write_msg(&mut conn.writer, MsgKind::Fin, cfg.rounds, &[]).is_ok() {
                    if let Some(t) = &tel {
                        t.sent(MsgKind::Fin, 0);
                    }
                }
                let _ = conn.writer.shutdown(Shutdown::Both);
            }
        }
        drop(rx);
        for conn in conns.iter_mut().flatten() {
            if let Some(handle) = conn.reader.take() {
                let _ = handle.join();
            }
        }

        Ok(ServerReport {
            records,
            strategy: srv.strategy.name(),
            final_params_fnv: crate::fnv1a_f32_bits(setup.model.params()),
            skipped_uploads,
            dead_clients,
        })
    }
}

/// Validates and completes one `HELLO` handshake; returns the client id
/// on success, `None` (connection dropped) otherwise.
#[allow(clippy::too_many_arguments)]
fn handshake(
    mut stream: TcpStream,
    net: &ServerConfig,
    alive: &[bool],
    population: u32,
    rounds: u32,
    stall_ticks: u32,
    tx: &mpsc::Sender<(usize, ReaderEvent)>,
    conns: &mut [Option<Conn>],
    tel: &Option<NetRecorder>,
) -> Option<usize> {
    stream.set_nodelay(true).ok()?;
    stream.set_read_timeout(Some(net.read_tick)).ok()?;
    let mut payload = Vec::new();
    let env = read_msg(&mut stream, &mut payload, false, stall_ticks).ok()??;
    if env.kind != MsgKind::Hello || payload.len() != 8 {
        return None;
    }
    let version = u32::from_le_bytes(payload[..4].try_into().expect("4 B"));
    let id = u32::from_le_bytes(payload[4..].try_into().expect("4 B")) as usize;
    if version != PROTO_VERSION || id >= net.clients || alive[id] {
        return None;
    }
    if let Some(t) = tel {
        t.received(0, id, MsgKind::Hello, payload.len());
    }
    let mut welcome = [0u8; 8];
    welcome[..4].copy_from_slice(&population.to_le_bytes());
    welcome[4..].copy_from_slice(&rounds.to_le_bytes());
    write_msg(&mut stream, MsgKind::Welcome, 0, &welcome).ok()?;
    if let Some(t) = tel {
        t.sent(MsgKind::Welcome, welcome.len());
    }
    let mut reader_stream = stream.try_clone().ok()?;
    let reader_tx = tx.clone();
    let reader = std::thread::spawn(move || {
        let mut payload = Vec::new();
        loop {
            match read_msg(&mut reader_stream, &mut payload, true, stall_ticks) {
                Ok(Some(env)) => {
                    let body = std::mem::take(&mut payload);
                    if reader_tx.send((id, ReaderEvent::Msg(env, body))).is_err() {
                        return; // server gone
                    }
                }
                Ok(None) => {
                    let _ = reader_tx.send((id, ReaderEvent::Closed));
                    return;
                }
                Err(e) => {
                    let _ = reader_tx.send((id, ReaderEvent::Failed(e)));
                    return;
                }
            }
        }
    });
    conns[id] = Some(Conn {
        writer: stream,
        reader: Some(reader),
    });
    Some(id)
}

/// Decodes, validates, and folds one upload payload. Returns `false`
/// (without panicking) for anything hostile: wire errors, a payload
/// whose length differs from the `offered_wire` bytes, a variant the
/// strategy would reject, misaligned dimensions, unsorted or
/// out-of-range indices, or a stats frame that disagrees with the model
/// layout.
#[allow(clippy::too_many_arguments)]
fn accept_upload(
    payload: &[u8],
    offered_wire: u64,
    round: u32,
    codec: &ClientCodec,
    strategy: &mut dyn Strategy,
    gate: &mut StreamingAggregator,
    scratch: &mut ScratchPool,
    id: usize,
    dim: usize,
    stats_len: usize,
    stats_out: &mut [f32],
    tel: &Option<NetRecorder>,
) -> bool {
    let decoded = wire_link::decode_upload_with_stats(payload, strategy.round_mask(round), scratch);
    let (upload, stats_frame) = match decoded {
        Ok(pair) => pair,
        Err(e) => {
            if let Some(t) = tel {
                t.decode_error(round, id, &e);
            }
            return false;
        }
    };
    let sane = payload.len() as u64 == offered_wire
        && codec.accepts(&upload)
        && upload.dim() == dim
        && upload_indices_ok(&upload, dim)
        && stats_frame.dim == dim
        && stats_frame.nnz == stats_len;
    if !sane {
        // The frames decoded but the receiver can't use them: fold the
        // rejection into the same typed-error table the wire layer uses.
        if let Some(t) = tel {
            let e = if upload.dim() != dim || stats_frame.dim != dim {
                gluefl_wire::WireError::DimMismatch {
                    declared: if upload.dim() != dim {
                        upload.dim()
                    } else {
                        stats_frame.dim
                    },
                    expected: dim,
                }
            } else if payload.len() as u64 != offered_wire {
                // The frames are complete, so the offer lied about them.
                gluefl_wire::WireError::Truncated {
                    needed: usize::try_from(offered_wire).unwrap_or(usize::MAX),
                    got: payload.len(),
                }
            } else {
                gluefl_wire::WireError::UnexpectedKind(0)
            };
            gluefl_wire::stats::record_decode_error(&e);
            t.decode_error(round, id, &e);
        }
        scratch.reclaim_upload(upload);
        return false;
    }
    let mut stats_back = scratch.take_cleared();
    stats_frame.values_into(&mut stats_back);
    stats_out.copy_from_slice(&stats_back);
    scratch.put(stats_back);
    gate.accept(strategy, id, upload, scratch).is_ok()
}

/// Parses an `OFFER` payload — `analytic` then `wire` bytes, both `u64`
/// little-endian. `None` when malformed or above [`MAX_OFFER_BYTES`].
fn parse_offer(payload: &[u8]) -> Option<(u64, u64)> {
    let field = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 B"));
    if payload.len() != 16 {
        return None;
    }
    let (analytic, wire) = (field(0), field(8));
    (analytic <= MAX_OFFER_BYTES && wire <= MAX_OFFER_BYTES).then_some((analytic, wire))
}

/// Explicit-position index lists must be strictly increasing and within
/// the model dimension (the accumulation kernels index with them).
fn indices_ok(indices: &[u32], dim: usize) -> bool {
    indices.windows(2).all(|w| w[0] < w[1])
        && indices.last().is_none_or(|&last| (last as usize) < dim)
}

/// Validates every explicit index list inside an upload.
fn upload_indices_ok(upload: &Upload, dim: usize) -> bool {
    match upload {
        Upload::Dense(_) | Upload::KnownMask(_) => true,
        Upload::Sparse(u) => indices_ok(u.indices(), dim),
        Upload::Ternary(t) => indices_ok(&t.indices, dim),
        Upload::MaskSplit(s) => indices_ok(s.unique.indices(), dim),
    }
}
