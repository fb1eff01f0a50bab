//! The event loop.

use crate::fault::FaultPlan;
use crate::metrics::Metrics;
use crate::topology::Topology;
// `Ctx` and `Handler` live in [`crate::runtime`], shared with the real
// transport; re-exported here so historical `qt_net::sim::{Ctx, Handler}`
// paths keep working.
pub use crate::runtime::{Ctx, Handler};
use qt_catalog::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Event<M> {
    time: f64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
    bytes: f64,
    kind: &'static str,
    timer: bool,
    lease: bool,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap via reversal at the call site; tie-break on sequence
        // number for full determinism.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The discrete-event simulator.
///
/// ```
/// use qt_catalog::NodeId;
/// use qt_cost::NetLink;
/// use qt_net::{Ctx, Handler, Simulator, Topology};
///
/// struct Echo;
/// struct Probe { reply_at: Option<f64> }
///
/// #[derive(Clone)]
/// enum Msg { Ping, Pong }
/// # // One handler type per simulator; dispatch on node role.
/// enum Node { Echo(Echo), Probe(Probe) }
///
/// impl Handler<Msg> for Node {
///     fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: NodeId, msg: Msg) {
///         match (self, msg) {
///             (Node::Echo(_), Msg::Ping) => {
///                 ctx.charge_compute(0.5);                  // half a second of work
///                 ctx.send(from, Msg::Pong, 1_000.0, "pong"); // 1 KB reply
///             }
///             (Node::Probe(p), Msg::Pong) => p.reply_at = Some(ctx.now()),
///             _ => {}
///         }
///     }
/// }
///
/// let mut sim: Simulator<Msg, Node> =
///     Simulator::new(Topology::Uniform(NetLink { latency: 0.1, bandwidth: 10_000.0 }));
/// sim.add_node(NodeId(0), Node::Probe(Probe { reply_at: None }));
/// sim.add_node(NodeId(1), Node::Echo(Echo));
/// sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping, "ping");
/// sim.run(100);
///
/// // ping at t=0, 0.5 s compute, then 0.1 s latency + 0.1 s transfer.
/// let Node::Probe(p) = sim.handler(NodeId(0)).unwrap() else { unreachable!() };
/// assert!((p.reply_at.unwrap() - 0.7).abs() < 1e-9);
/// assert_eq!(sim.metrics.kind_count("pong"), 1);
/// ```
pub struct Simulator<M, H: Handler<M>> {
    // Node ids are dense small integers (federation nodes are numbered
    // 0..N), so per-node state lives in flat vectors indexed by `NodeId.0`
    // rather than tree maps: the busy-until check and the handler fetch sit
    // on the per-event hot path, and with thousands of interleaved session
    // events flowing through the heap the O(log n) pointer-chasing lookups
    // were measurable.
    handlers: Vec<Option<H>>,
    queue: BinaryHeap<std::cmp::Reverse<Event<M>>>,
    topology: Topology,
    time: f64,
    seq: u64,
    busy_until: Vec<f64>,
    fault: Option<FaultPlan>,
    /// Accumulated metrics (public for the experiment harness).
    pub metrics: Metrics,
}

impl<M, H: Handler<M>> Simulator<M, H> {
    /// New simulator over `topology`.
    pub fn new(topology: Topology) -> Self {
        Simulator {
            handlers: Vec::new(),
            queue: BinaryHeap::new(),
            topology,
            time: 0.0,
            seq: 0,
            busy_until: Vec::new(),
            fault: None,
            metrics: Metrics::default(),
        }
    }

    /// Attach a [`FaultPlan`]. An inert plan (the default) is dropped so
    /// that fault-free runs take the exact code path they always did.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = if plan.is_inert() { None } else { Some(plan) };
    }

    /// Register `handler` as node `id`.
    pub fn add_node(&mut self, id: NodeId, handler: H) {
        let idx = id.0 as usize;
        if idx >= self.handlers.len() {
            self.handlers.resize_with(idx + 1, || None);
            self.busy_until.resize(idx + 1, 0.0);
        }
        self.handlers[idx] = Some(handler);
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Borrow a node's handler (to read results out after the run).
    pub fn handler(&self, id: NodeId) -> Option<&H> {
        self.handlers.get(id.0 as usize).and_then(|h| h.as_ref())
    }

    /// Mutably borrow a node's handler (test instrumentation).
    pub fn handler_mut(&mut self, id: NodeId) -> Option<&mut H> {
        self.handlers
            .get_mut(id.0 as usize)
            .and_then(|h| h.as_mut())
    }

    /// Inject an external message to `to` at absolute virtual time `at`
    /// (e.g. the user's query arriving at the buyer).
    pub fn inject(&mut self, at: f64, from: NodeId, to: NodeId, msg: M, kind: &'static str) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(std::cmp::Reverse(Event {
            time: at,
            seq,
            from,
            to,
            msg,
            bytes: 0.0,
            kind,
            timer: false,
            lease: false,
        }));
    }

    /// Run until the event queue drains or `max_events` deliveries happened.
    /// Returns the number of events delivered to handlers (deferred
    /// re-enqueues and faulted-away messages don't count).
    ///
    /// Messages to unregistered nodes are dropped (recorded under the
    /// `"unroutable"` cause in [`Metrics::dropped_by_cause`]) rather than
    /// panicking: with crash windows and partitions in play, a stray late
    /// message is part of the model, not a protocol bug.
    pub fn run(&mut self, max_events: u64) -> u64
    where
        M: Clone,
    {
        let mut processed = 0;
        while processed < max_events {
            let Some(std::cmp::Reverse(ev)) = self.queue.pop() else {
                break;
            };
            // A delivery deferred behind a busy node is re-enqueued at the
            // time the node frees up instead of executed now with a warped
            // clock: `self.time` (and every handler's `ctx.now()`) stays
            // monotone non-decreasing, and deliveries to *other* nodes in
            // the interim happen at their true virtual times. The original
            // sequence number rides along, so per-destination FIFO order is
            // preserved through the equal-time tie-break.
            let busy = self
                .busy_until
                .get(ev.to.0 as usize)
                .copied()
                .unwrap_or(0.0);
            if busy > ev.time {
                self.queue
                    .push(std::cmp::Reverse(Event { time: busy, ..ev }));
                continue;
            }
            let start = ev.time;
            self.time = start;

            // Fault plane: crashed recipients and severed links lose the
            // message at its arrival instant. Timers are local alarms and
            // always fire — the buyer's deadline chain must make progress
            // precisely when the network does not.
            if !ev.timer {
                if let Some(plan) = &self.fault {
                    if plan.down(ev.to, start) {
                        self.metrics.record_drop("crash");
                        continue;
                    }
                    if plan.severed(ev.from, ev.to, start) {
                        self.metrics.record_drop("partition");
                        continue;
                    }
                }
            }
            let Some(handler) = self
                .handlers
                .get_mut(ev.to.0 as usize)
                .and_then(|h| h.as_mut())
            else {
                self.metrics.record_drop("unroutable");
                continue;
            };

            processed += 1;
            self.metrics.events += 1;
            if ev.timer {
                self.metrics.record_timer(ev.kind);
            } else if ev.lease {
                self.metrics.record_lease(ev.kind);
            } else {
                self.metrics.record_message(ev.kind, ev.bytes);
            }

            let mut ctx = Ctx::new(start, ev.to);
            handler.on_message(&mut ctx, ev.from, ev.msg);

            self.metrics.compute_seconds += ctx.compute_charged();
            let done = start + ctx.compute_charged();
            self.busy_until[ev.to.0 as usize] = done;
            for out in ctx.take_outbox() {
                let link = self.topology.link(ev.to, out.to);
                let arrive = done + link.transfer_time(out.bytes) + out.extra_delay;
                let seq = self.seq;
                self.seq += 1;
                let mut time = arrive;
                if !out.timer {
                    if let Some(plan) = &self.fault {
                        // Transit faults roll per sequence number, once: a
                        // deferred re-enqueue never re-rolls its fate.
                        if plan.drops(seq) {
                            self.metrics.record_drop("loss");
                            continue;
                        }
                        if plan.duplicates(seq) {
                            // The duplicate is the only copy ever
                            // materialized: the original message below is
                            // moved, never cloned, so a fault plan costs
                            // nothing on sends whose duplication roll
                            // doesn't fire.
                            self.metrics.duplicated += 1;
                            let dup_seq = self.seq;
                            self.seq += 1;
                            self.queue.push(std::cmp::Reverse(Event {
                                time: arrive + plan.jitter_for(dup_seq),
                                seq: dup_seq,
                                from: ev.to,
                                to: out.to,
                                msg: out.msg.clone(),
                                bytes: out.bytes,
                                kind: out.kind,
                                timer: false,
                                lease: out.lease,
                            }));
                        }
                        time = arrive + plan.jitter_for(seq);
                    }
                }
                self.queue.push(std::cmp::Reverse(Event {
                    time,
                    seq,
                    from: ev.to,
                    to: out.to,
                    msg: out.msg,
                    bytes: out.bytes,
                    kind: out.kind,
                    timer: out.timer,
                    lease: out.lease,
                }));
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_cost::NetLink;

    /// Ping-pong: node 0 sends `n` pings; node 1 echoes each.
    #[derive(Debug, Clone)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    struct Pinger {
        remaining: u32,
        received: Vec<u32>,
    }

    impl Handler<Msg> for Pinger {
        fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping(i) => {
                    // Echo with some compute.
                    ctx.charge_compute(0.5);
                    ctx.send(NodeId(0), Msg::Pong(i), 100.0, "pong");
                }
                Msg::Pong(i) => {
                    self.received.push(i);
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        ctx.send(NodeId(1), Msg::Ping(i + 1), 100.0, "ping");
                    }
                }
            }
        }
    }

    fn build(n: u32) -> Simulator<Msg, Pinger> {
        let mut sim = Simulator::new(Topology::Uniform(NetLink {
            latency: 1.0,
            bandwidth: 100.0,
        }));
        sim.add_node(
            NodeId(0),
            Pinger {
                remaining: n,
                received: vec![],
            },
        );
        sim.add_node(
            NodeId(1),
            Pinger {
                remaining: 0,
                received: vec![],
            },
        );
        sim
    }

    #[test]
    fn ping_pong_round_trip_time() {
        let mut sim = build(0);
        // Kick off: deliver Pong(0) to node 0 at t=0; it sends Ping(1)... no,
        // remaining=0 means it just records. Send a Ping to node 1 instead.
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.run(1000);
        // One echo: ping delivered t=0, compute 0.5, transfer 1 + 100/100=2
        // → pong arrives at 2.5.
        assert!((sim.now() - 2.5).abs() < 1e-9, "{}", sim.now());
        assert_eq!(sim.handler(NodeId(0)).unwrap().received, vec![0]);
        assert_eq!(sim.metrics.messages, 2);
        assert_eq!(sim.metrics.kind_count("pong"), 1);
        assert!((sim.metrics.compute_seconds - 0.5).abs() < 1e-12);
    }

    #[test]
    fn repeated_rounds_accumulate_time_deterministically() {
        let mut a = build(3);
        a.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        a.run(1000);
        let mut b = build(3);
        b.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        b.run(1000);
        assert_eq!(a.now(), b.now());
        assert_eq!(a.metrics.messages, b.metrics.messages);
        assert_eq!(a.handler(NodeId(0)).unwrap().received, vec![0, 1, 2, 3]);
    }

    #[test]
    fn busy_node_serializes_processing() {
        // Two pings arrive at t=0; the echoes must be 0.5 apart because the
        // responder is sequential.
        struct Recorder {
            times: Vec<f64>,
        }
        struct Echo;
        #[derive(Clone)]
        enum M2 {
            Ping,
            Pong,
        }
        enum Either {
            E(Echo),
            R(Recorder),
        }
        impl Handler<M2> for Either {
            fn on_message(&mut self, ctx: &mut Ctx<M2>, from: NodeId, msg: M2) {
                match (self, msg) {
                    (Either::E(_), M2::Ping) => {
                        ctx.charge_compute(0.5);
                        ctx.send(from, M2::Pong, 0.0, "pong");
                    }
                    (Either::R(r), M2::Pong) => r.times.push(ctx.now()),
                    _ => {}
                }
            }
        }
        let mut sim: Simulator<M2, Either> = Simulator::new(Topology::Uniform(NetLink {
            latency: 0.0,
            bandwidth: f64::INFINITY,
        }));
        sim.add_node(NodeId(0), Either::R(Recorder { times: vec![] }));
        sim.add_node(NodeId(1), Either::E(Echo));
        sim.inject(0.0, NodeId(0), NodeId(1), M2::Ping, "ping");
        sim.inject(0.0, NodeId(0), NodeId(1), M2::Ping, "ping");
        sim.run(100);
        let Either::R(r) = sim.handler(NodeId(0)).unwrap() else {
            panic!()
        };
        assert_eq!(r.times.len(), 2);
        assert!((r.times[0] - 0.5).abs() < 1e-9);
        assert!((r.times[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn max_events_bounds_run() {
        let mut sim = build(1_000_000);
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        let processed = sim.run(10);
        assert_eq!(processed, 10);
    }

    #[test]
    fn scheduled_timers_fire_after_delay() {
        struct Timed {
            fired_at: Vec<f64>,
        }
        impl Handler<&'static str> for Timed {
            fn on_message(
                &mut self,
                ctx: &mut Ctx<&'static str>,
                _from: NodeId,
                msg: &'static str,
            ) {
                match msg {
                    "start" => ctx.schedule(5.0, "timer", "timer"),
                    "timer" => self.fired_at.push(ctx.now()),
                    _ => {}
                }
            }
        }
        let mut sim: Simulator<&'static str, Timed> = Simulator::new(Topology::default());
        sim.add_node(NodeId(0), Timed { fired_at: vec![] });
        sim.inject(0.0, NodeId(0), NodeId(0), "start", "start");
        sim.run(10);
        let t = &sim.handler(NodeId(0)).unwrap().fired_at;
        assert_eq!(t.len(), 1);
        assert!((t[0] - 5.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn self_send_is_instant() {
        struct SelfLoop {
            count: u32,
        }
        impl Handler<u32> for SelfLoop {
            fn on_message(&mut self, ctx: &mut Ctx<u32>, _from: NodeId, msg: u32) {
                self.count += 1;
                if msg > 0 {
                    ctx.send(ctx.node(), msg - 1, 1e9, "self");
                }
            }
        }
        let mut sim: Simulator<u32, SelfLoop> = Simulator::new(Topology::default());
        sim.add_node(NodeId(0), SelfLoop { count: 0 });
        sim.inject(0.0, NodeId(0), NodeId(0), 5, "self");
        sim.run(100);
        assert_eq!(sim.handler(NodeId(0)).unwrap().count, 6);
        assert_eq!(sim.now(), 0.0); // self-sends cost no time
    }

    /// Regression for the warped-clock bug: a delivery deferred behind a
    /// busy node used to execute immediately with `self.time` jumped forward
    /// past later-queued events, so `ctx.now()` went backwards and nodes saw
    /// deliveries out of virtual-time order.
    #[test]
    fn virtual_time_is_monotone_across_deferred_deliveries() {
        use std::cell::RefCell;
        use std::rc::Rc;
        #[derive(Clone)]
        struct Blip;
        struct Tracer {
            log: Rc<RefCell<Vec<(NodeId, f64)>>>,
            compute: f64,
        }
        impl Handler<Blip> for Tracer {
            fn on_message(&mut self, ctx: &mut Ctx<Blip>, _from: NodeId, _msg: Blip) {
                self.log.borrow_mut().push((ctx.node(), ctx.now()));
                ctx.charge_compute(self.compute);
            }
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Simulator<Blip, Tracer> = Simulator::new(Topology::default());
        sim.add_node(
            NodeId(1),
            Tracer {
                log: log.clone(),
                compute: 1.0,
            },
        );
        sim.add_node(
            NodeId(2),
            Tracer {
                log: log.clone(),
                compute: 0.0,
            },
        );
        // Two back-to-back blips pin node 1 busy until t=2.0; a blip to the
        // idle node 2 lands in between at t=0.5. Pre-fix, the deferred
        // second delivery to node 1 ran at t=1.0 *before* the t=0.5 one.
        sim.inject(0.0, NodeId(0), NodeId(1), Blip, "blip");
        sim.inject(0.0, NodeId(0), NodeId(1), Blip, "blip");
        sim.inject(0.5, NodeId(0), NodeId(2), Blip, "blip");
        sim.run(100);
        let log = log.borrow();
        let times: Vec<f64> = log.iter().map(|&(_, t)| t).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "handler clocks went backwards: {times:?}"
        );
        assert_eq!(
            *log,
            vec![(NodeId(1), 0.0), (NodeId(2), 0.5), (NodeId(1), 1.0)],
            "cross-node delivery order must respect virtual time"
        );
    }

    #[test]
    fn unregistered_recipient_is_a_drop_not_a_panic() {
        let mut sim = build(0);
        sim.inject(0.0, NodeId(0), NodeId(9), Msg::Ping(0), "ping");
        let processed = sim.run(100);
        assert_eq!(processed, 0);
        assert_eq!(sim.metrics.dropped, 1);
        assert_eq!(sim.metrics.dropped_by_cause["unroutable"], 1);
        assert_eq!(sim.metrics.messages, 0);
    }

    #[test]
    fn timers_count_separately_from_messages() {
        struct Timed;
        impl Handler<&'static str> for Timed {
            fn on_message(
                &mut self,
                ctx: &mut Ctx<&'static str>,
                _from: NodeId,
                msg: &'static str,
            ) {
                if msg == "start" {
                    ctx.schedule(5.0, "alarm", "alarm");
                }
            }
        }
        let mut sim: Simulator<&'static str, Timed> = Simulator::new(Topology::default());
        sim.add_node(NodeId(0), Timed);
        sim.inject(0.0, NodeId(0), NodeId(0), "start", "start");
        sim.run(10);
        // The injected "start" is a message; the scheduled "alarm" is not.
        assert_eq!(sim.metrics.messages, 1);
        assert_eq!(sim.metrics.timer_events, 1);
        assert_eq!(sim.metrics.kind_count("alarm"), 1);
        assert_eq!(sim.metrics.events, 2);
    }

    #[test]
    fn lease_traffic_counts_separately_but_still_faults() {
        struct Lessee;
        struct Lessor {
            acks: u32,
        }
        #[derive(Clone)]
        enum L {
            Beat,
            Ack,
        }
        enum N {
            Lessee(Lessee),
            Lessor(Lessor),
        }
        impl Handler<L> for N {
            fn on_message(&mut self, ctx: &mut Ctx<L>, from: NodeId, msg: L) {
                match (self, msg) {
                    (N::Lessee(_), L::Beat) => ctx.send_lease(from, L::Ack, "lease-ack"),
                    (N::Lessor(l), L::Ack) => l.acks += 1,
                    _ => {}
                }
            }
        }
        let build = || {
            let mut sim: Simulator<L, N> = Simulator::new(Topology::default());
            sim.add_node(NodeId(0), N::Lessor(Lessor { acks: 0 }));
            sim.add_node(NodeId(1), N::Lessee(Lessee));
            sim
        };
        // Healthy lessee: the heartbeat round-trips, nothing lands in the
        // data-message counters.
        let mut sim = build();
        sim.inject(0.0, NodeId(0), NodeId(1), L::Beat, "lease");
        sim.run(100);
        let N::Lessor(l) = sim.handler(NodeId(0)).unwrap() else {
            panic!()
        };
        assert_eq!(l.acks, 1);
        assert_eq!(sim.metrics.messages, 1, "only the injected beat counts");
        assert_eq!(sim.metrics.lease_events, 1);
        assert_eq!(sim.metrics.kind_count("lease-ack"), 1);
        // Crashed lessee: the heartbeat is lost — leases are not fault-exempt.
        let mut sim = build();
        sim.set_fault_plan(FaultPlan::default().with_crash(NodeId(1), 0.0, 10.0));
        sim.inject(0.0, NodeId(0), NodeId(1), L::Beat, "lease");
        sim.run(100);
        let N::Lessor(l) = sim.handler(NodeId(0)).unwrap() else {
            panic!()
        };
        assert_eq!(l.acks, 0);
        assert_eq!(sim.metrics.dropped_by_cause["crash"], 1);
    }

    #[test]
    fn total_loss_drops_replies_in_transit() {
        let mut sim = build(0);
        sim.set_fault_plan(FaultPlan::lossy(1, 1.0));
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.run(100);
        // The injected ping is delivered (external stimulus, not in-transit),
        // but the echoed pong is lost.
        assert_eq!(sim.metrics.messages, 1);
        assert_eq!(sim.metrics.dropped_by_cause["loss"], 1);
        assert!(sim.handler(NodeId(0)).unwrap().received.is_empty());
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut sim = build(0);
        sim.set_fault_plan(FaultPlan {
            seed: 5,
            duplicate_rate: 1.0,
            ..FaultPlan::default()
        });
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.run(100);
        assert_eq!(sim.metrics.duplicated, 1);
        assert_eq!(sim.handler(NodeId(0)).unwrap().received, vec![0, 0]);
    }

    #[test]
    fn crashed_node_loses_arrivals_until_restart() {
        let mut sim = build(0);
        sim.set_fault_plan(FaultPlan::default().with_crash(NodeId(1), 0.0, 10.0));
        sim.inject(5.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.inject(12.0, NodeId(0), NodeId(1), Msg::Ping(7), "ping");
        sim.run(100);
        assert_eq!(sim.metrics.dropped_by_cause["crash"], 1);
        assert_eq!(sim.handler(NodeId(0)).unwrap().received, vec![7]);
    }

    #[test]
    fn partition_severs_cross_cut_traffic() {
        let mut sim = build(0);
        sim.set_fault_plan(FaultPlan::default().with_partition([NodeId(0)], 0.0, 100.0));
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.run(100);
        assert_eq!(sim.metrics.dropped_by_cause["partition"], 1);
        assert!(sim.handler(NodeId(0)).unwrap().received.is_empty());
    }

    #[test]
    fn jitter_delays_but_still_delivers() {
        let mut sim = build(0);
        sim.set_fault_plan(FaultPlan::default().with_jitter(0.25));
        sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
        sim.run(100);
        assert_eq!(sim.handler(NodeId(0)).unwrap().received, vec![0]);
        // Fault-free pong arrival is t=2.5; jitter adds [0, 0.25).
        assert!(sim.now() >= 2.5 && sim.now() < 2.75, "{}", sim.now());
    }

    #[test]
    fn inert_plan_is_bit_identical_to_no_plan() {
        let run = |plan: Option<FaultPlan>| {
            let mut sim = build(5);
            if let Some(p) = plan {
                sim.set_fault_plan(p);
            }
            sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
            sim.run(1000);
            (
                sim.now().to_bits(),
                sim.metrics.messages,
                sim.metrics.bytes.to_bits(),
                sim.handler(NodeId(0)).unwrap().received.clone(),
            )
        };
        assert_eq!(run(None), run(Some(FaultPlan::default())));
    }

    #[test]
    fn faulty_runs_are_reproducible() {
        let run = || {
            let mut sim = build(10);
            sim.set_fault_plan(
                FaultPlan::lossy(7, 0.3)
                    .with_duplicates(0.2)
                    .with_jitter(0.1),
            );
            sim.inject(0.0, NodeId(0), NodeId(1), Msg::Ping(0), "ping");
            sim.run(10_000);
            (
                sim.now().to_bits(),
                sim.metrics.messages,
                sim.metrics.dropped,
                sim.metrics.duplicated,
                sim.handler(NodeId(0)).unwrap().received.clone(),
            )
        };
        assert_eq!(run(), run());
    }
}
