//! Thread-per-node execution of the same protocol handlers the simulator
//! runs — real cores, real channels, optionally real sockets.
//!
//! The simulator stays the deterministic oracle (virtual time, fault
//! injection, reproducible figures); this runtime answers the question the
//! simulator cannot: what does the protocol do on actual parallel hardware?
//! Handlers are reused *unchanged* — they only ever talk to [`Ctx`], so the
//! runtime swap is invisible to protocol code. The conformance suite in
//! `qt-core` asserts both runtimes produce bit-identical plans, cost bits,
//! and offer ids from the same seeds.
//!
//! Two transports, selected by [`RealTransport`]:
//!
//! * **Threads** — one OS thread per node, bounded `std::sync::mpsc`
//!   channels between them. Sends that find a full channel block (after
//!   bumping [`Metrics::send_backpressure`]), so a slow node throttles its
//!   producers instead of ballooning memory.
//! * **Tcp** — the same thread-per-node loop, but inter-node messages are
//!   encoded with the [`qt_catalog::wire`] codec and carried over loopback
//!   `std::net::TcpStream`s in length-prefixed frames. This exercises the
//!   full serialize/deserialize path and measures real frame sizes.
//!
//! Timers (`Ctx::schedule`) become deadline entries in a per-node heap,
//! fired only when the node's channel is momentarily idle — mirroring the
//! simulator's rule that a same-instant flush timer runs after the messages
//! that scheduled it. Time is wall-clock seconds since run start, so
//! `ctx.now()` is monotone per node but *not* globally synchronized; the
//! protocol only uses it for timestamps and timeouts, never for ordering.
//!
//! Shutdown is cooperative: when the root node's handler satisfies the
//! caller's `done` predicate, the runtime broadcasts a shutdown marker.
//! Channels are FIFO, so every protocol message the root sent beforehand
//! (awards, releases) is delivered before its recipient stops. All threads
//! are joined before [`RealRuntime::run`] returns — no detached workers.

use crate::metrics::Metrics;
use crate::runtime::{Ctx, Handler};
use qt_catalog::wire::{put_len, put_str, Reader, Wire, WireError};
use qt_catalog::NodeId;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{BufWriter, Read as IoRead, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::time::{Duration, Instant};

/// How inter-node messages travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RealTransport {
    /// Bounded in-process channels; messages move by ownership transfer.
    /// Frame sizes are still measured (encode-and-discard) so byte
    /// accounting matches the socket path.
    #[default]
    Threads,
    /// Loopback TCP sockets; messages round-trip through the wire codec.
    Tcp,
}

/// Tuning knobs for a real-transport run.
#[derive(Debug, Clone)]
pub struct RealConfig {
    /// Transport flavor.
    pub transport: RealTransport,
    /// Per-node channel capacity before senders block.
    pub channel_capacity: usize,
    /// Wall seconds per protocol second, applied to timer delays and
    /// injection times. `1.0` means a 30 s protocol timeout is a real 30 s
    /// deadline (which fault-free runs never reach — rounds close when all
    /// sellers answer).
    pub time_scale: f64,
}

impl Default for RealConfig {
    fn default() -> Self {
        RealConfig {
            transport: RealTransport::Threads,
            channel_capacity: 1024,
            time_scale: 1.0,
        }
    }
}

/// What a finished run returns: every handler back by value (the drivers
/// read plans and engine state out of them), merged metrics, and the
/// wall-clock duration.
pub struct RealOutcome<H> {
    /// Handlers in registration order, with their node ids.
    pub handlers: Vec<(NodeId, H)>,
    /// Counters merged across all node threads.
    pub metrics: Metrics,
    /// Wall-clock seconds from first injection to full join.
    pub wall_seconds: f64,
}

enum Packet<M> {
    Msg {
        from: NodeId,
        msg: M,
        bytes: f64,
        kind: &'static str,
        lease: bool,
    },
    Shutdown,
}

struct TimerEntry<M> {
    at: Instant,
    seq: u64,
    msg: M,
    kind: &'static str,
}

impl<M> PartialEq for TimerEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for TimerEntry<M> {}
impl<M> PartialOrd for TimerEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for TimerEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// The message kinds the protocol uses, for interning decoded kind labels
/// back to `&'static str` (metrics keys). Unknown kinds fall back to
/// `"other"` rather than leaking.
const KNOWN_KINDS: &[&str] = &[
    "start",
    "arrive",
    "rfb",
    "rfb-retry",
    "rfb-repair",
    "offers",
    "timeout",
    "flush",
    "negotiate",
    "award",
    "award-ack",
    "award-decline",
    "award-timeout",
    "lease",
    "lease-ack",
    "lease-tick",
    "release",
    "retrade-timeout",
    "ad",
    "advertise",
    "shed",
    "agg-offers",
    "broker-timeout",
    "boot",
    "fault",
    "broker-lease",
    "broker-lease-ack",
    "broker-lease-tick",
    "promote",
    "region-update",
    "quiesce",
    "shed-retry",
];

fn intern_kind(s: &str) -> &'static str {
    KNOWN_KINDS
        .iter()
        .find(|k| **k == s)
        .copied()
        .unwrap_or("other")
}

/// Encoded frame size for one message: the transport's 4-byte length prefix
/// plus the header (from, flags, kind, sim-estimate bytes) plus the payload.
fn frame_len(kind: &str, payload_len: usize) -> u64 {
    (4 + 4 + 1 + 4 + kind.len() + 8 + payload_len) as u64
}

const FLAG_LEASE: u8 = 1;
const FLAG_SHUTDOWN: u8 = 2;

/// One frame: the length prefix, the header and the payload.
fn frame_from_payload(from: NodeId, payload: &[u8], bytes: f64, kind: &str, flags: u8) -> Vec<u8> {
    let len = frame_len(kind, payload.len()) as usize;
    let mut frame = Vec::with_capacity(len);
    put_len(&mut frame, len - 4);
    from.put(&mut frame);
    flags.put(&mut frame);
    put_str(&mut frame, kind);
    bytes.put(&mut frame);
    frame.extend_from_slice(payload);
    frame
}

fn decode_frame<M: Wire>(body: &[u8]) -> Result<Packet<M>, WireError> {
    let mut r = Reader::new(body);
    let from = NodeId::get(&mut r)?;
    let flags = u8::get(&mut r)?;
    let kind = intern_kind(r.str()?);
    let bytes = f64::get(&mut r)?;
    if flags & FLAG_SHUTDOWN != 0 {
        return Ok(Packet::Shutdown);
    }
    let msg = M::get(&mut r)?;
    r.finish()?;
    Ok(Packet::Msg {
        from,
        msg,
        bytes,
        kind,
        lease: flags & FLAG_LEASE != 0,
    })
}

/// Where a node's outgoing messages go.
enum Outbound<M> {
    Channel(BTreeMap<NodeId, SyncSender<Packet<M>>>),
    Socket(BTreeMap<NodeId, BufWriter<TcpStream>>),
}

/// Thread-per-node runtime. Mirrors the [`Simulator`](crate::Simulator)
/// builder surface: `add_node`, `inject`, then `run` with a root node and a
/// completion predicate evaluated on the root's handler after every message
/// it processes.
pub struct RealRuntime<M, H> {
    config: RealConfig,
    nodes: Vec<(NodeId, H)>,
    injections: Vec<(f64, NodeId, NodeId, M, &'static str)>,
}

impl<M, H> RealRuntime<M, H>
where
    M: Wire + Send,
    H: Handler<M> + Send,
{
    /// New runtime with the given transport configuration.
    pub fn new(config: RealConfig) -> Self {
        RealRuntime {
            config,
            nodes: Vec::new(),
            injections: Vec::new(),
        }
    }

    /// Register `handler` as node `id`.
    pub fn add_node(&mut self, id: NodeId, handler: H) {
        self.nodes.push((id, handler));
    }

    /// Inject an external message to `to` at `at` seconds after run start
    /// (scaled by `time_scale`). Injections are delivered in `(at, order)`
    /// sequence and, like the simulator's, carry no payload bytes.
    pub fn inject(&mut self, at: f64, from: NodeId, to: NodeId, msg: M, kind: &'static str) {
        self.injections.push((at, from, to, msg, kind));
    }

    /// Run to completion: spawn one thread per node, deliver injections,
    /// and stop once `done(root's handler)` holds after a message on the
    /// root node. Joins every thread before returning.
    ///
    /// Panics if `root` was not registered or (Tcp mode) if loopback
    /// sockets cannot be set up — environment failures, not protocol ones.
    pub fn run<F>(self, root: NodeId, done: F) -> RealOutcome<H>
    where
        F: Fn(&H) -> bool + Sync,
    {
        assert!(
            self.nodes.iter().any(|(id, _)| *id == root),
            "root node {root:?} not registered"
        );
        let RealRuntime {
            config,
            nodes,
            mut injections,
        } = self;
        injections.sort_by(|a, b| a.0.total_cmp(&b.0));
        let ids: Vec<NodeId> = nodes.iter().map(|(id, _)| *id).collect();

        // One bounded channel per node. Every worker (and the injector)
        // holds clones of all senders; in Tcp mode the cross-node senders
        // are only used by frame-reader threads feeding the local loop.
        let mut senders: BTreeMap<NodeId, SyncSender<Packet<M>>> = BTreeMap::new();
        let mut receivers: BTreeMap<NodeId, Receiver<Packet<M>>> = BTreeMap::new();
        for id in &ids {
            let (tx, rx) = std::sync::mpsc::sync_channel(config.channel_capacity.max(1));
            senders.insert(*id, tx);
            receivers.insert(*id, rx);
        }

        // Tcp mode: bind one loopback listener per node and fully connect
        // the mesh up front (connect() succeeds against a listen backlog
        // even before the accept side runs).
        let mut listeners: BTreeMap<NodeId, TcpListener> = BTreeMap::new();
        let mut out_streams: BTreeMap<NodeId, BTreeMap<NodeId, BufWriter<TcpStream>>> =
            BTreeMap::new();
        if config.transport == RealTransport::Tcp {
            let mut addrs: BTreeMap<NodeId, SocketAddr> = BTreeMap::new();
            for id in &ids {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
                addrs.insert(*id, l.local_addr().expect("listener addr"));
                listeners.insert(*id, l);
            }
            for id in &ids {
                let mut outs = BTreeMap::new();
                for peer in &ids {
                    if peer == id {
                        continue;
                    }
                    let s = TcpStream::connect(addrs[peer]).expect("connect loopback peer");
                    s.set_nodelay(true).ok();
                    outs.insert(*peer, BufWriter::new(s));
                }
                out_streams.insert(*id, outs);
            }
        }

        let start = Instant::now();
        let time_scale = config.time_scale.max(1e-9);
        let done_ref = &done;

        let mut outcome_handlers: Vec<(NodeId, H)> = Vec::with_capacity(nodes.len());
        let mut metrics = Metrics::default();

        std::thread::scope(|scope| {
            // Frame readers (Tcp): each node accepts n-1 inbound streams;
            // every stream gets a reader thread that decodes frames into
            // the node's local channel. Readers exit on EOF (peers drop
            // their write ends at shutdown) or when the channel closes.
            if config.transport == RealTransport::Tcp {
                for (id, listener) in &listeners {
                    for _ in 0..ids.len() - 1 {
                        let (stream, _) = listener.accept().expect("accept loopback peer");
                        stream.set_nodelay(true).ok();
                        let tx = senders[id].clone();
                        scope.spawn(move || read_frames::<M>(stream, tx));
                    }
                }
            }

            // The injector thread paces external arrivals on the scaled
            // clock and then drops its sender clones.
            {
                let senders = senders.clone();
                scope.spawn(move || {
                    for (at, from, to, msg, kind) in injections {
                        let due = start + Duration::from_secs_f64(at.max(0.0) * time_scale);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        if let Some(tx) = senders.get(&to) {
                            // A closed channel here means the run finished
                            // before this arrival; nothing to deliver to.
                            let _ = tx.send(Packet::Msg {
                                from,
                                msg,
                                bytes: 0.0,
                                kind,
                                lease: false,
                            });
                        }
                    }
                });
            }

            let mut joins = Vec::with_capacity(nodes.len());
            for (id, handler) in nodes {
                let rx = receivers.remove(&id).expect("receiver for node");
                let outbound = match config.transport {
                    RealTransport::Threads => Outbound::Channel(senders.clone()),
                    // Remote sends go over the sockets; self-sends always
                    // use the local channel (`self_tx`).
                    RealTransport::Tcp => {
                        Outbound::Socket(out_streams.remove(&id).unwrap_or_default())
                    }
                };
                let self_tx = senders[&id].clone();
                let is_root = id == root;
                joins.push((
                    id,
                    scope.spawn(move || {
                        node_loop(
                            id,
                            handler,
                            rx,
                            outbound,
                            self_tx,
                            start,
                            time_scale,
                            is_root.then_some(done_ref),
                        )
                    }),
                ));
            }
            // The main thread's sender clones must die or workers waiting
            // on `recv` would never observe disconnection after shutdown.
            drop(senders);

            for (id, j) in joins {
                let (h, m) = j.join().expect("node thread panicked");
                metrics.merge(&m);
                outcome_handlers.push((id, h));
            }
        });

        RealOutcome {
            handlers: outcome_handlers,
            metrics,
            wall_seconds: start.elapsed().as_secs_f64(),
        }
    }
}

/// Read length-prefixed frames off one TCP stream into a node's channel.
fn read_frames<M: Wire>(mut stream: TcpStream, tx: SyncSender<Packet<M>>) {
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            return; // EOF: peer shut down.
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        match decode_frame::<M>(&body) {
            Ok(pkt) => {
                let is_shutdown = matches!(pkt, Packet::Shutdown);
                if tx.send(pkt).is_err() || is_shutdown {
                    return;
                }
            }
            // A malformed frame on loopback means a codec bug; drop the
            // connection rather than feeding the handler garbage.
            Err(_) => return,
        }
    }
}

/// One node's event loop: channel messages first, due timers when the
/// channel is momentarily idle, block until the next deadline otherwise.
#[allow(clippy::too_many_arguments)]
fn node_loop<M, H, F>(
    id: NodeId,
    mut handler: H,
    rx: Receiver<Packet<M>>,
    mut outbound: Outbound<M>,
    self_tx: SyncSender<Packet<M>>,
    start: Instant,
    time_scale: f64,
    root_done: Option<&F>,
) -> (H, Metrics)
where
    M: Wire + Send,
    H: Handler<M>,
    F: Fn(&H) -> bool,
{
    let mut metrics = Metrics::default();
    let mut timers: BinaryHeap<Reverse<TimerEntry<M>>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let long_wait = Duration::from_secs(3600);

    loop {
        // 1. Drain immediately-available channel traffic.
        let pkt = match rx.try_recv() {
            Ok(p) => Some(p),
            Err(std::sync::mpsc::TryRecvError::Empty) => None,
            Err(std::sync::mpsc::TryRecvError::Disconnected) => break,
        };
        let (from, msg, bytes, kind, lease, timer) = match pkt {
            Some(Packet::Shutdown) => break,
            Some(Packet::Msg {
                from,
                msg,
                bytes,
                kind,
                lease,
            }) => (from, msg, bytes, kind, lease, false),
            None => {
                // 2. Channel idle: fire a due timer, else block until the
                //    next deadline or the next message.
                let now = Instant::now();
                let due = timers.peek().is_some_and(|Reverse(t)| t.at <= now);
                if due {
                    let Reverse(t) = timers.pop().expect("peeked timer");
                    (id, t.msg, 0.0, t.kind, false, true)
                } else {
                    let wait = timers
                        .peek()
                        .map(|Reverse(t)| t.at.saturating_duration_since(now))
                        .unwrap_or(long_wait);
                    match rx.recv_timeout(wait) {
                        Ok(Packet::Shutdown) => break,
                        Ok(Packet::Msg {
                            from,
                            msg,
                            bytes,
                            kind,
                            lease,
                        }) => (from, msg, bytes, kind, lease, false),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                }
            }
        };

        metrics.events += 1;
        if timer {
            metrics.record_timer(kind);
        } else if lease {
            metrics.record_lease(kind);
        } else {
            metrics.record_message(kind, bytes);
        }

        let now_secs = start.elapsed().as_secs_f64() / time_scale;
        let mut ctx = Ctx::new(now_secs, id);
        handler.on_message(&mut ctx, from, msg);
        metrics.compute_seconds += ctx.compute_charged();

        for out in ctx.take_outbox() {
            if out.timer {
                timer_seq += 1;
                timers.push(Reverse(TimerEntry {
                    at: Instant::now()
                        + Duration::from_secs_f64((out.extra_delay * time_scale).max(0.0)),
                    seq: timer_seq,
                    msg: out.msg,
                    kind: out.kind,
                }));
                continue;
            }
            // Byte accounting: measure the actual encoded frame on every
            // send, whichever transport carries it.
            let payload = out.msg.encode();
            metrics.wire_bytes += frame_len(out.kind, payload.len());
            if out.to == id {
                // Self-send through the local channel keeps FIFO order
                // with inbound traffic.
                send_with_backpressure(
                    &self_tx,
                    Packet::Msg {
                        from: id,
                        msg: out.msg,
                        bytes: out.bytes,
                        kind: out.kind,
                        lease: out.lease,
                    },
                    &mut metrics,
                );
                continue;
            }
            match &mut outbound {
                Outbound::Channel(senders) => match senders.get(&out.to) {
                    Some(tx) => send_with_backpressure(
                        tx,
                        Packet::Msg {
                            from: id,
                            msg: out.msg,
                            bytes: out.bytes,
                            kind: out.kind,
                            lease: out.lease,
                        },
                        &mut metrics,
                    ),
                    None => metrics.record_drop("unroutable"),
                },
                Outbound::Socket(streams) => match streams.get_mut(&out.to) {
                    Some(w) => {
                        let flags = if out.lease { FLAG_LEASE } else { 0 };
                        let frame = frame_from_payload(id, &payload, out.bytes, out.kind, flags);
                        if w.write_all(&frame).and_then(|_| w.flush()).is_err() {
                            metrics.record_drop("closed");
                        }
                    }
                    None => metrics.record_drop("unroutable"),
                },
            }
        }

        if let Some(done) = root_done {
            if done(&handler) {
                match &mut outbound {
                    Outbound::Channel(senders) => {
                        for (to, tx) in senders.iter() {
                            if *to != id {
                                let _ = tx.send(Packet::Shutdown);
                            }
                        }
                    }
                    Outbound::Socket(streams) => {
                        let frame = frame_from_payload(id, &[], 0.0, "shutdown", FLAG_SHUTDOWN);
                        for (_, w) in streams.iter_mut() {
                            let _ = w.write_all(&frame).and_then(|_| w.flush());
                        }
                    }
                }
                break;
            }
        }
    }
    (handler, metrics)
}

fn send_with_backpressure<M>(tx: &SyncSender<Packet<M>>, pkt: Packet<M>, metrics: &mut Metrics) {
    match tx.try_send(pkt) {
        Ok(()) => {}
        Err(TrySendError::Full(pkt)) => {
            metrics.send_backpressure += 1;
            if tx.send(pkt).is_err() {
                metrics.record_drop("closed");
            }
        }
        Err(TrySendError::Disconnected(_)) => metrics.record_drop("closed"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
        Tick,
    }

    qt_catalog::impl_wire!(enum Msg { 0 => Ping(i), 1 => Pong(i), 2 => Tick });

    fn ping_all(transport: RealTransport) {
        // Probe on node 0 fans a ping out to 4 echo nodes and completes
        // when all pongs are back.
        struct Fan {
            peers: Vec<NodeId>,
            got: Vec<u32>,
        }
        enum N {
            Fan(Fan),
            Echo,
        }
        impl Handler<Msg> for N {
            fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
                match (self, msg) {
                    (N::Fan(f), Msg::Tick) => {
                        for p in &f.peers {
                            ctx.send(*p, Msg::Ping(p.0), 32.0, "rfb");
                        }
                    }
                    (N::Fan(f), Msg::Pong(i)) => f.got.push(i),
                    (N::Echo, Msg::Ping(i)) => {
                        ctx.charge_compute(1e-6);
                        ctx.send(from, Msg::Pong(i), 64.0, "offers")
                    }
                    _ => {}
                }
            }
        }
        let mut rt: RealRuntime<Msg, N> = RealRuntime::new(RealConfig {
            transport,
            ..RealConfig::default()
        });
        let peers: Vec<NodeId> = (1..=4).map(NodeId).collect();
        rt.add_node(
            NodeId(0),
            N::Fan(Fan {
                peers: peers.clone(),
                got: vec![],
            }),
        );
        for p in &peers {
            rt.add_node(*p, N::Echo);
        }
        rt.inject(0.0, NodeId(0), NodeId(0), Msg::Tick, "start");
        let out = rt.run(NodeId(0), |n| matches!(n, N::Fan(f) if f.got.len() == 4));
        let (_, root) = out
            .handlers
            .iter()
            .find(|(id, _)| *id == NodeId(0))
            .unwrap();
        let N::Fan(f) = root else { panic!("root kept") };
        let mut got = f.got.clone();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3, 4]);
        // 1 start injection + 4 pings + 4 pongs.
        assert_eq!(out.metrics.messages, 9);
        assert_eq!(out.metrics.kind_count("rfb"), 4);
        assert_eq!(out.metrics.kind_count("offers"), 4);
        // Sim-estimate bytes accumulate; wire bytes were measured too.
        assert_eq!(out.metrics.bytes, 4.0 * 32.0 + 4.0 * 64.0);
        assert!(out.metrics.wire_bytes > 0);
        assert!(out.wall_seconds >= 0.0);
    }

    #[test]
    fn threads_fan_out_and_join() {
        ping_all(RealTransport::Threads);
    }

    #[test]
    fn tcp_fan_out_and_join() {
        ping_all(RealTransport::Tcp);
    }

    #[test]
    fn timers_fire_when_channel_is_idle() {
        struct T {
            fired: bool,
        }
        impl Handler<Msg> for T {
            fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: NodeId, msg: Msg) {
                match msg {
                    Msg::Ping(_) => ctx.schedule(0.0, Msg::Tick, "flush"),
                    Msg::Tick => self.fired = true,
                    _ => {}
                }
            }
        }
        let mut rt: RealRuntime<Msg, T> = RealRuntime::new(RealConfig::default());
        rt.add_node(NodeId(0), T { fired: false });
        rt.inject(0.0, NodeId(0), NodeId(0), Msg::Ping(1), "start");
        let out = rt.run(NodeId(0), |t| t.fired);
        assert!(out.handlers[0].1.fired);
        assert_eq!(out.metrics.timer_events, 1);
        assert_eq!(out.metrics.kind_count("flush"), 1);
    }

    #[test]
    fn frame_roundtrip_and_garbage() {
        let f = frame_from_payload(NodeId(3), &Msg::Ping(9).encode(), 256.0, "rfb", 0);
        let body = &f[4..];
        let Ok(Packet::Msg {
            from,
            msg,
            bytes,
            kind,
            lease,
        }) = decode_frame::<Msg>(body)
        else {
            panic!("frame decodes");
        };
        assert_eq!(from, NodeId(3));
        assert_eq!(msg, Msg::Ping(9));
        assert_eq!(bytes, 256.0);
        assert_eq!(kind, "rfb");
        assert!(!lease);
        // Shutdown frames decode without a payload.
        let s = frame_from_payload(NodeId(1), &[], 0.0, "shutdown", FLAG_SHUTDOWN);
        assert!(matches!(decode_frame::<Msg>(&s[4..]), Ok(Packet::Shutdown)));
        // Truncations and garbage error, never panic.
        for cut in 0..body.len() {
            assert!(decode_frame::<Msg>(&body[..cut]).is_err());
        }
        assert!(decode_frame::<Msg>(&[0xFF; 7]).is_err());
    }

    /// `wire_bytes` counts `frame_len`, so it must be what goes on the socket.
    #[test]
    fn frame_len_is_the_length_of_the_frame_sent() {
        let payload = Msg::Pong(7).encode();
        for (kind, flags) in [("rfb", 0), ("award", FLAG_LEASE), ("", 0)] {
            let f = frame_from_payload(NodeId(2), &payload, 64.0, kind, flags);
            assert_eq!(f.len() as u64, frame_len(kind, payload.len()));
            assert_eq!(u32::decode(&f[..4]), Ok((f.len() - 4) as u32));
        }
        let s = frame_from_payload(NodeId(2), &[], 0.0, "shutdown", FLAG_SHUTDOWN);
        assert_eq!(s.len() as u64, frame_len("shutdown", 0));
    }

    #[test]
    fn unknown_kind_interns_to_other() {
        assert_eq!(intern_kind("rfb"), "rfb");
        assert_eq!(intern_kind("mystery"), "other");
    }
}
