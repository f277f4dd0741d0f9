//! The traced run: replays each session's recorded input streams
//! through the layers' public functions with a span around every call.
//!
//! A session run with `ObsMode::Full` leaves a sim-time timeline of
//! frames (captured, encoded with size and target), packets (sent with
//! size, delivered, dropped), feedback reports (accepted, rejected) and
//! target changes. The replay walks that timeline in order and feeds
//! each event to fresh instances of the layer that handled it in the
//! real run, interleaving the receiver's periodic feedback flushes and
//! NACK polls on the session's own cadence. Encoded frames take their
//! real sizes, so the packetizer, FEC encoder and receiver see the real
//! packet stream; the link sees the real send instants over the real
//! trace. What the replay cannot reproduce bit for bit (the corrupted
//! content of rejected reports, the audio flow's sequence numbers) is
//! approximated and documented in README.md.
//!
//! Spans never nest: each measures one public call. A calibrated empty
//! span is subtracted from every span.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use ravel_codec::{Encoder, EncoderConfig};
use ravel_core::{AdaptiveController, FrameDecision};
use ravel_harness::Cell;
use ravel_net::{
    ChaosSchedule, ChaosTrace, FecDecoder, FecEncoder, FeedbackBuilder, FeedbackReport,
    FeedbackValidator, FrameAssembler, Link, MediaKind, NackGenerator, Pacer, Packet, Packetizer,
    RtxBuffer,
};
use ravel_obs::ObsEvent;
use ravel_pipeline::{CcKind, SessionResult};
use ravel_sim::{Dur, EventQueue, Time};
use ravel_video::VideoSource;

/// The receiver's NACK poll cadence (the session's `NackPoll` period).
const NACK_POLL_EVERY: Dur = Dur::millis(10);
/// How long a session keeps draining after capture ends.
const DRAIN_GRACE: Dur = Dur::secs(2);
/// The sender's floor on the pacing target.
const PACER_FLOOR_BPS: f64 = 100_000.0;

/// The layers spans are attributed to, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ravel-harness`: the pool and the report writer.
    Harness,
    /// `ravel-pipeline`: whole sessions and contract evaluation.
    Pipeline,
    /// `ravel-sim`: the calendar event queue.
    Sim,
    /// `ravel-video` + `ravel-codec`: capture and encoder rate control.
    Codec,
    /// `ravel-net` sender side: packetizer, FEC, pacer, RTX store, link.
    NetSend,
    /// `ravel-net` receiver side: assembly, feedback, NACK, FEC decode.
    NetRecv,
    /// `ravel-net` validator, `ravel-cc` controllers, `ravel-core`.
    Control,
    /// `ravel-metrics`: latency summaries.
    Metrics,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 8] = [
        Layer::Harness,
        Layer::Pipeline,
        Layer::Sim,
        Layer::Codec,
        Layer::NetSend,
        Layer::NetRecv,
        Layer::Control,
        Layer::Metrics,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Pipeline => "pipeline",
            Layer::Sim => "sim",
            Layer::Codec => "codec",
            Layer::NetSend => "net.send",
            Layer::NetRecv => "net.recv",
            Layer::Control => "control",
            Layer::Metrics => "metrics",
        }
    }
}

/// One timed public call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Span {
    /// `run_cells_opts`.
    RunCells,
    /// `render_json`.
    RenderJson,
    /// `Cell::run`.
    CellRun,
    /// `contracts::evaluate`.
    Evaluate,
    /// `EventQueue::push`.
    QueuePush,
    /// `EventQueue::pop`.
    QueuePop,
    /// `VideoSource::next_frame`.
    NextFrame,
    /// `Encoder::encode`.
    Encode,
    /// `Encoder::skip_frame`.
    Skip,
    /// `Encoder::set_target_bitrate`.
    RateSetter,
    /// `Packetizer::packetize_into`.
    Packetize,
    /// `FecEncoder::on_media_packet`.
    FecEncode,
    /// `Pacer::enqueue`.
    PacerEnqueue,
    /// `Pacer::release_into`.
    PacerRelease,
    /// `Pacer::set_target_bitrate`.
    PacerTarget,
    /// `RtxBuffer::store`.
    RtxStore,
    /// `RtxBuffer::retransmit`.
    RtxRetransmit,
    /// `Link::send`.
    LinkSend,
    /// `FeedbackBuilder::on_packet`.
    FeedbackOnPacket,
    /// `NackGenerator::on_packet`.
    NackOnPacket,
    /// `FecDecoder::on_media_packet` / `on_parity_packet`.
    FecDecode,
    /// `FrameAssembler::push`.
    Assemble,
    /// `FeedbackBuilder::flush`.
    FeedbackFlush,
    /// `NackGenerator::poll`.
    NackPoll,
    /// `FeedbackValidator::check`.
    Validate,
    /// `Gcc::on_feedback`.
    CcGcc,
    /// `Nada::on_feedback`.
    CcNada,
    /// `Bbr::on_feedback`.
    CcBbr,
    /// `LossEma::on_feedback`.
    CcLossEma,
    /// `on_feedback` of the fixed-rate and naive-AIMD controllers.
    CcOther,
    /// `AdaptiveController::on_feedback` / `on_feedback_timeout`.
    CoreFeedback,
    /// `AdaptiveController::on_frame`.
    CoreFrame,
    /// `LatencyRecorder::summarize_all`.
    Summarize,
}

const SPANS: usize = Span::Summarize as usize + 1;

impl Span {
    /// Every span, in declaration (index) order.
    const ALL: [Span; SPANS] = {
        use Span::*;
        [
            RunCells,
            RenderJson,
            CellRun,
            Evaluate,
            QueuePush,
            QueuePop,
            NextFrame,
            Encode,
            Skip,
            RateSetter,
            Packetize,
            FecEncode,
            PacerEnqueue,
            PacerRelease,
            PacerTarget,
            RtxStore,
            RtxRetransmit,
            LinkSend,
            FeedbackOnPacket,
            NackOnPacket,
            FecDecode,
            Assemble,
            FeedbackFlush,
            NackPoll,
            Validate,
            CcGcc,
            CcNada,
            CcBbr,
            CcLossEma,
            CcOther,
            CoreFeedback,
            CoreFrame,
            Summarize,
        ]
    };

    fn layer(self) -> Layer {
        use Span::*;
        match self {
            RunCells | RenderJson => Layer::Harness,
            CellRun | Evaluate => Layer::Pipeline,
            QueuePush | QueuePop => Layer::Sim,
            NextFrame | Encode | Skip | RateSetter => Layer::Codec,
            Packetize | FecEncode | PacerEnqueue | PacerRelease | PacerTarget | RtxStore
            | RtxRetransmit | LinkSend => Layer::NetSend,
            FeedbackOnPacket | NackOnPacket | FecDecode | Assemble | FeedbackFlush | NackPoll => {
                Layer::NetRecv
            }
            Validate | CcGcc | CcNada | CcBbr | CcLossEma | CcOther | CoreFeedback | CoreFrame => {
                Layer::Control
            }
            Summarize => Layer::Metrics,
        }
    }

    fn for_cc(kind: CcKind) -> Span {
        match kind {
            CcKind::Gcc => Span::CcGcc,
            CcKind::Nada => Span::CcNada,
            CcKind::Bbr => Span::CcBbr,
            CcKind::LossEma => Span::CcLossEma,
            CcKind::Fixed | CcKind::NaiveAimd => Span::CcOther,
        }
    }
}

/// In-memory span accumulator: calls and self time per call site.
pub struct Tracer {
    enabled: bool,
    timer_ns: f64,
    calls: [u64; SPANS],
    ns: [f64; SPANS],
}

impl Tracer {
    /// A tracer that subtracts `timer_ns` from every span; a disabled
    /// one runs the calls bare (the untraced reference for overhead).
    pub fn new(enabled: bool, timer_ns: f64) -> Tracer {
        Tracer {
            enabled,
            timer_ns,
            calls: [0; SPANS],
            ns: [0.0; SPANS],
        }
    }

    /// Runs `f` inside a span.
    #[inline(always)]
    pub fn span<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as f64;
        self.calls[span as usize] += 1;
        self.ns[span as usize] += (ns - self.timer_ns).max(0.0);
        out
    }

    /// Calls recorded at `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Self time at `span`, in nanoseconds.
    pub fn ns(&self, span: Span) -> f64 {
        self.ns[span as usize]
    }

    /// Calls and self time summed over `spans`.
    pub fn sum(&self, spans: &[Span]) -> (u64, f64) {
        spans
            .iter()
            .fold((0, 0.0), |(c, n), &s| (c + self.calls(s), n + self.ns(s)))
    }

    /// Calls and self time of every span attributed to `layer`.
    pub fn layer(&self, layer: Layer) -> (u64, f64) {
        let spans: Vec<Span> = Span::ALL
            .into_iter()
            .filter(|s| s.layer() == layer)
            .collect();
        self.sum(&spans)
    }
}

/// The cost of an empty span: the median of `samples` back-to-back
/// clock-read intervals, in nanoseconds. Subtracted from every span.
pub fn calibrate_timer(samples: usize) -> f64 {
    let mut d: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            black_box(());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    d.sort_by(f64::total_cmp);
    d[d.len() / 2]
}

/// What the replay of one session did, for the cross-check against the
/// real run's counters and for the per-layer ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `VideoSource::next_frame` calls (frames captured).
    pub frames_captured: u64,
    /// `Encoder::encode` calls.
    pub frames_encoded: u64,
    /// Packets handed to `Link::send`.
    pub packets_sent: u64,
    /// Sends of a sequence number already sent once: retransmissions.
    pub retransmissions: u64,
    /// Delivered packets fed to the receiver.
    pub packets_delivered: u64,
    /// Packets the replayed `Link` delivered (same trace, seed and send
    /// instants as the real link, so the same count).
    pub link_delivered: u64,
    /// NACKs the replayed `NackGenerator` emitted.
    pub nacks_sent: u64,
    /// `NackGenerator::poll` calls.
    pub nack_polls: u64,
    /// Polls that returned a batch.
    pub nack_polls_useful: u64,
    /// Reports the real sender accepted.
    pub reports_accepted: u64,
    /// Reports the real sender's validator rejected.
    pub reports_rejected: u64,
    /// Whether the session was still transmitting in its last
    /// `CUT_OFF` — then retransmissions granted at the very end may
    /// still sit in the pacer when it stops, counted but never sent.
    pub cut_off: bool,
    /// Sends whose size did not match the replayed packetizer's packet
    /// for that sequence number (audio flows shift the numbering).
    pub send_mismatches: u64,
}

impl Counts {
    /// Adds another session's counts.
    pub fn add(&mut self, o: &Counts) {
        self.frames_captured += o.frames_captured;
        self.frames_encoded += o.frames_encoded;
        self.packets_sent += o.packets_sent;
        self.retransmissions += o.retransmissions;
        self.packets_delivered += o.packets_delivered;
        self.link_delivered += o.link_delivered;
        self.nacks_sent += o.nacks_sent;
        self.nack_polls += o.nack_polls;
        self.nack_polls_useful += o.nack_polls_useful;
        self.reports_accepted += o.reports_accepted;
        self.reports_rejected += o.reports_rejected;
        self.send_mismatches += o.send_mismatches;
    }
}

/// A session still transmitting this close to its end was cut off.
const CUT_OFF: Dur = Dur::millis(50);

/// Compares one session's replay counts with the real run's counters.
/// Each mismatch is one line; an empty result means the replay
/// described the session that was timed.
///
/// Retransmissions are counted when the sender grants them, but the
/// replay sees them when they are sent. The two agree exactly unless
/// the session ended while its pacer was still draining (it sent within
/// `CUT_OFF` of its end; at the pacer's slowest rate consecutive sends
/// are closer than that). Then retransmissions granted for NACKed
/// packets may still have been queued, so the gap may be as large as
/// the NACKs that did not turn into a send.
pub fn cross_check(label: &str, c: &Counts, r: &SessionResult) -> Vec<String> {
    let mut bad = Vec::new();
    let exact = [
        ("frames_encoded", c.frames_encoded, r.frames_encoded),
        ("packets_delivered", c.link_delivered, r.packets_delivered),
        ("nacks_sent", c.nacks_sent, r.nacks_sent),
        ("rejected_reports", c.reports_rejected, r.rejected_reports),
    ];
    for (name, replay, session) in exact {
        if replay != session {
            bad.push(format!(
                "{label}: replay {name} {replay} != session {session}"
            ));
        }
    }
    let unsent = r.retransmissions.checked_sub(c.retransmissions);
    let allowed = if c.cut_off {
        c.nacks_sent.saturating_sub(c.retransmissions)
    } else {
        0
    };
    if unsent.is_none_or(|u| u > allowed) {
        bad.push(format!(
            "{label}: replay retransmissions {} != session {} (unsent allowance {allowed})",
            c.retransmissions, r.retransmissions
        ));
    }
    bad
}

/// Replays one session. `events` receives the session's queue traffic
/// as `(scheduled at, fires at)` pairs for the event-queue replay.
pub fn replay_session(
    tr: &mut Tracer,
    cell: &Cell,
    result: &SessionResult,
    events: &mut Vec<(Time, Time)>,
) -> Counts {
    let cfg = &cell.cfg;
    let mut source = VideoSource::new(cfg.content.profile(), cfg.resolution, cfg.fps, cfg.seed);
    let mut enc_cfg = EncoderConfig::rtc(cfg.start_rate_bps, cfg.fps);
    enc_cfg.capture_resolution = cfg.resolution;
    enc_cfg.temporal_layers = cfg.temporal_layers;
    let mut encoder = Encoder::new(enc_cfg);
    let mut cc = cfg.scheme.cc.build(cfg.start_rate_bps);
    let cc_span = Span::for_cc(cfg.scheme.cc);
    let mut ctl = cfg.scheme.adaptive.map(|acfg| {
        let mut ctl = AdaptiveController::new(acfg, cfg.fps);
        let mut factor = 1.04;
        if cfg.enable_fec {
            factor *= 1.0 + 1.0 / cfg.fec_group_size as f64;
        }
        let reserved = if cfg.enable_audio {
            cfg.audio_bitrate_bps + 40.0 * 8.0 * 50.0
        } else {
            0.0
        };
        ctl.set_rate_overheads(factor, reserved);
        ctl
    });
    let schedule = cfg
        .chaos
        .map(|spec| ChaosSchedule::generate(spec, cfg.duration))
        .filter(|s| !s.is_empty());
    let mut link = Link::new(
        ChaosTrace::new(cell.trace.build(), schedule.clone().unwrap_or_default()),
        cfg.link,
        cfg.seed,
    );
    let mut packetizer = Packetizer::new();
    let mut fec_enc = cfg.enable_fec.then(|| FecEncoder::new(cfg.fec_group_size));
    let mut pacer = Pacer::new(cfg.start_rate_bps, 2.5);
    let mut rtx = RtxBuffer::new(Dur::SECOND, 2048);
    let mut assembler = FrameAssembler::new();
    let mut feedback = FeedbackBuilder::new();
    let mut nack_gen = NackGenerator::new(Dur::millis(30), 5, cfg.max_playout_delay);
    let mut fec_dec = FecDecoder::new();
    let mut validator = FeedbackValidator::new();
    // Rejected reports are replayed against a validator of their own:
    // their real (corrupted) content is not recorded, and checking an
    // honest stand-in must not advance the accepting validator's state.
    let mut reject_validator = FeedbackValidator::new();

    let mut c = Counts::default();
    let mut by_seq: HashMap<u64, Packet> = HashMap::new();
    let mut sent_seqs: HashSet<u64> = HashSet::new();
    let mut reports: HashMap<u64, (Time, FeedbackReport)> = HashMap::new();
    let mut latest_report: Option<u64> = None;
    let mut last_seq: Option<u64> = None;
    let mut pkts: Vec<Packet> = Vec::new();
    let mut released: Vec<Packet> = Vec::new();
    let mut last_send_at: Option<Time> = None;
    let mut last_capture = Time::ZERO;
    let hard_end = Time::ZERO + cfg.duration + DRAIN_GRACE;
    let mut next_flush = Time::ZERO + cfg.feedback_interval;
    let mut next_poll = cfg.enable_rtx.then_some(Time::ZERO + NACK_POLL_EVERY);

    // Fires the receiver's periodic work due strictly before `until`
    // (flush before poll on a tie: the flush was scheduled earlier).
    macro_rules! periodic_before {
        ($until:expr) => {
            loop {
                let flush_due = next_flush <= hard_end && next_flush < $until;
                let poll_due = next_poll.is_some_and(|p| p <= hard_end && p < $until);
                if flush_due && (!poll_due || next_flush <= next_poll.unwrap_or(next_flush)) {
                    let at = next_flush;
                    if let Some(report) = tr.span(Span::FeedbackFlush, || feedback.flush(at)) {
                        latest_report = Some(report.report_seq);
                        reports.insert(report.report_seq, (at, report));
                    }
                    events.push((at - cfg.feedback_interval, at));
                    next_flush = at + cfg.feedback_interval;
                } else if poll_due {
                    let at = next_poll.unwrap_or(hard_end);
                    c.nack_polls += 1;
                    if tr.span(Span::NackPoll, || nack_gen.poll(at)).is_some() {
                        c.nack_polls_useful += 1;
                    }
                    events.push((at - NACK_POLL_EVERY, at));
                    next_poll = Some(at + NACK_POLL_EVERY);
                } else {
                    break;
                }
            }
        };
    }

    let records = result.obs.events();
    let mut i = 0;
    while i < records.len() {
        let at = records[i].at;
        periodic_before!(at);
        match &records[i].event {
            ObsEvent::FrameCaptured { .. } => {
                c.frames_captured += 1;
                let frame = tr.span(Span::NextFrame, || source.next_frame());
                events.push((last_capture, at));
                last_capture = at;
                let decision = match ctl.as_mut() {
                    Some(ctl) => {
                        tr.span(Span::CoreFrame, || ctl.on_frame(&frame, at, &mut encoder))
                    }
                    None => FrameDecision::Encode,
                };
                let encoded = match records.get(i + 1).map(|r| &r.event) {
                    Some(&ObsEvent::FrameEncoded {
                        size_bytes,
                        target_bps,
                        ..
                    }) => Some((size_bytes, target_bps)),
                    _ => None,
                };
                let Some((size_bytes, target_bps)) = encoded else {
                    if decision == FrameDecision::Encode {
                        tr.span(Span::Skip, || encoder.skip_frame());
                    }
                    i += 1;
                    continue;
                };
                i += 1;
                c.frames_encoded += 1;
                if encoder.target_bps() != target_bps {
                    tr.span(Span::RateSetter, || encoder.set_target_bitrate(target_bps));
                }
                let mut frame_out = tr.span(Span::Encode, || encoder.encode(&frame, at));
                frame_out.size_bytes = size_bytes;
                let done = frame_out.encoded_at.max(at);
                events.push((at, done));
                if let Some(s) = schedule.as_ref() {
                    packetizer.set_payload_mtu(s.payload_mtu(done));
                }
                tr.span(Span::Packetize, || {
                    packetizer.packetize_into(&frame_out, &mut pkts)
                });
                for p in pkts.drain(..) {
                    by_seq.insert(p.seq, p);
                    let parity = match fec_enc.as_mut() {
                        Some(fec) => tr.span(Span::FecEncode, || {
                            fec.on_media_packet(&p, || packetizer.take_seq(), done)
                        }),
                        None => None,
                    };
                    if let Some(par) = parity {
                        by_seq.insert(par.seq, par);
                    }
                    tr.span(Span::PacerEnqueue, || {
                        pacer.enqueue(std::iter::once(p).chain(parity))
                    });
                }
            }
            &ObsEvent::PacketSent { seq, size_bytes } => {
                if last_send_at != Some(at) {
                    tr.span(Span::PacerRelease, || pacer.release_into(at, &mut released));
                    released.clear();
                    events.push((last_send_at.unwrap_or(Time::ZERO), at));
                    last_send_at = Some(at);
                }
                let mut packet = match by_seq.get(&seq) {
                    Some(p) if p.size_bytes == size_bytes => *p,
                    _ => {
                        c.send_mismatches += 1;
                        Packet {
                            kind: if cfg.enable_audio {
                                MediaKind::Audio
                            } else {
                                MediaKind::Video
                            },
                            seq,
                            frame_index: u64::MAX,
                            fragment: 0,
                            num_fragments: 1,
                            size_bytes,
                            pts: at,
                            send_time: at,
                            is_keyframe: false,
                        }
                    }
                };
                packet.send_time = at;
                c.packets_sent += 1;
                if !sent_seqs.insert(seq) {
                    c.retransmissions += 1;
                    tr.span(Span::RtxRetransmit, || rtx.retransmit(&[seq]));
                }
                if cfg.enable_rtx {
                    tr.span(Span::RtxStore, || rtx.store(&packet, at));
                }
                tr.span(Span::LinkSend, || link.send(&packet, at));
                by_seq.insert(seq, packet);
            }
            &ObsEvent::PacketDelivered { seq } => {
                c.packets_delivered += 1;
                let Some(packet) = by_seq.get(&seq).copied() else {
                    i += 1;
                    continue;
                };
                events.push((packet.send_time, at.max(packet.send_time)));
                tr.span(Span::FeedbackOnPacket, || feedback.on_packet(&packet, at));
                if cfg.enable_rtx {
                    tr.span(Span::NackOnPacket, || nack_gen.on_packet(seq, at));
                }
                let recovered = if cfg.enable_fec {
                    match packet.kind {
                        MediaKind::Fec => {
                            tr.span(Span::FecDecode, || fec_dec.on_parity_packet(&packet))
                        }
                        _ => tr.span(Span::FecDecode, || fec_dec.on_media_packet(seq)),
                    }
                } else {
                    Vec::new()
                };
                // Only media packets are looked up for a recovered seq:
                // a group's span can cover parity seqs, and recovering
                // one of those delivers nothing to the receiver.
                for s in recovered {
                    if let Some(rec) = by_seq
                        .get(&s)
                        .copied()
                        .filter(|p| p.kind == MediaKind::Video)
                    {
                        tr.span(Span::NackOnPacket, || nack_gen.on_packet(s, at));
                        tr.span(Span::Assemble, || assembler.push(&rec, at));
                    }
                }
                if packet.kind == MediaKind::Video {
                    tr.span(Span::Assemble, || assembler.push(&packet, at));
                }
            }
            &ObsEvent::FeedbackReceived { report_seq, .. } => {
                c.reports_accepted += 1;
                let Some((flushed_at, report)) = reports
                    .get(&report_seq)
                    .or_else(|| latest_report.and_then(|s| reports.get(&s)))
                else {
                    i += 1;
                    continue;
                };
                events.push((*flushed_at, at.max(*flushed_at)));
                let _ = tr.span(Span::Validate, || validator.check(report, last_seq));
                last_seq = Some(report_seq);
                let target = tr.span(cc_span, || cc.on_feedback(report, at));
                match ctl.as_mut() {
                    Some(ctl) => tr.span(Span::CoreFeedback, || {
                        ctl.on_feedback(report, target, at, &mut encoder)
                    }),
                    None => tr.span(Span::RateSetter, || encoder.set_target_bitrate(target)),
                }
                let pace = encoder.target_bps().max(PACER_FLOOR_BPS);
                tr.span(Span::PacerTarget, || pacer.set_target_bitrate(pace));
            }
            &ObsEvent::FeedbackRejected { report_seq, .. } => {
                c.reports_rejected += 1;
                let stand_in = reports
                    .get(&report_seq)
                    .or_else(|| latest_report.and_then(|s| reports.get(&s)));
                if let Some((flushed_at, report)) = stand_in {
                    events.push((*flushed_at, at.max(*flushed_at)));
                    let _ = tr.span(Span::Validate, || reject_validator.check(report, last_seq));
                }
            }
            &ObsEvent::TargetChanged {
                new_bps,
                reason: "watchdog",
                ..
            } => {
                match ctl.as_mut() {
                    Some(ctl) => tr.span(Span::CoreFeedback, || {
                        ctl.on_feedback_timeout(new_bps, at, &mut encoder)
                    }),
                    None => tr.span(Span::RateSetter, || encoder.set_target_bitrate(new_bps)),
                }
                let pace = encoder.target_bps().max(PACER_FLOOR_BPS);
                tr.span(Span::PacerTarget, || pacer.set_target_bitrate(pace));
            }
            _ => {}
        }
        i += 1;
    }
    periodic_before!(hard_end + Dur::micros(1));
    // The last flush's report, if any, arrives after the session ends.
    let _ = latest_report;
    c.nacks_sent = nack_gen.nacks_sent();
    c.link_delivered = link.delivered();
    c.cut_off = last_send_at.is_some_and(|t| t + CUT_OFF >= hard_end);
    tr.span(Span::Summarize, || {
        black_box(result.recorder.summarize_all())
    });
    c
}

/// Replays a population's queue traffic through one `EventQueue`:
/// events are pushed in order of the instant they were scheduled, and
/// everything due by then is popped first. Returns the peak depth.
pub fn replay_queue(tr: &mut Tracer, mut events: Vec<(Time, Time)>) -> usize {
    events.sort_by_key(|&(scheduled, _)| scheduled);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut depth = 0;
    for (scheduled, fires) in events {
        while queue.peek_time().is_some_and(|t| t <= scheduled) {
            black_box(tr.span(Span::QueuePop, || queue.pop()));
        }
        tr.span(Span::QueuePush, || queue.push(fires.max(scheduled), 0));
        depth = depth.max(queue.len());
    }
    while !queue.is_empty() {
        black_box(tr.span(Span::QueuePop, || queue.pop()));
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(
        frames: u64,
        delivered: u64,
        rtx: u64,
        nacks: u64,
        rejected: u64,
    ) -> SessionResult {
        let mut r = SessionResult::empty();
        r.frames_encoded = frames;
        r.packets_delivered = delivered;
        r.retransmissions = rtx;
        r.nacks_sent = nacks;
        r.rejected_reports = rejected;
        r
    }

    #[test]
    fn cross_check_passes_on_agreement_and_names_each_mismatch() {
        let c = Counts {
            frames_encoded: 1200,
            link_delivered: 20_000,
            retransmissions: 40,
            nacks_sent: 45,
            reports_rejected: 7,
            ..Counts::default()
        };
        assert!(cross_check("x", &c, &result_with(1200, 20_000, 40, 45, 7)).is_empty());
        let bad = cross_check("x", &c, &result_with(1199, 20_000, 41, 45, 8));
        assert_eq!(bad.len(), 3);
        assert!(bad[0].contains("frames_encoded 1200 != session 1199"));
        assert!(bad[1].contains("rejected_reports 7 != session 8"));
        assert!(bad[2].contains("retransmissions 40 != session 41"));
    }

    #[test]
    fn unsent_retransmissions_are_allowed_only_when_cut_off() {
        let mut c = Counts {
            retransmissions: 226,
            nacks_sent: 229,
            ..Counts::default()
        };
        let r = result_with(0, 0, 229, 229, 0);
        // Three granted but unsent: wrong unless the session was cut off
        // mid-drain, and then only up to the NACKs never answered.
        assert_eq!(cross_check("x", &c, &r).len(), 1);
        c.cut_off = true;
        assert!(cross_check("x", &c, &r).is_empty());
        let r = result_with(0, 0, 230, 229, 0);
        assert_eq!(cross_check("x", &c, &r).len(), 1);
        // More sent than granted is never right.
        c.retransmissions = 231;
        assert_eq!(
            cross_check("x", &c, &result_with(0, 0, 229, 229, 0)).len(),
            1
        );
    }

    #[test]
    fn queue_replay_pops_everything_and_tracks_depth() {
        let mut tr = Tracer::new(true, 0.0);
        let t = Time::from_millis;
        // Three events scheduled at 0 firing at 10, 20, 30; one scheduled
        // at 25 (after the first two fired) firing at 40.
        let events = vec![(t(0), t(10)), (t(0), t(20)), (t(0), t(30)), (t(25), t(40))];
        let depth = replay_queue(&mut tr, events);
        assert_eq!(depth, 3);
        assert_eq!(tr.calls(Span::QueuePush), 4);
        assert_eq!(tr.calls(Span::QueuePop), 4);
    }

    #[test]
    fn every_span_is_listed_at_its_index() {
        for (i, span) in Span::ALL.into_iter().enumerate() {
            assert_eq!(span as usize, i);
        }
    }
}
