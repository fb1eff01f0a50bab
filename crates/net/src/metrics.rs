//! Simulation metrics: the raw material of the messages/time figures.

use std::collections::BTreeMap;

/// Counters accumulated over a simulation run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Network messages delivered. Local timers scheduled via
    /// `Ctx::schedule` are *not* messages — they count separately in
    /// `timer_events` so the paper's message figures stay honest.
    pub messages: u64,
    /// Total payload bytes transferred (delivered messages only).
    pub bytes: f64,
    /// Events per protocol kind (the `kind` label passed to `Ctx::send` /
    /// `Ctx::schedule`; timers appear here under their own kinds).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Total virtual compute seconds charged, across all nodes.
    pub compute_seconds: f64,
    /// Events processed (delivered messages, self-sends, and timers).
    pub events: u64,
    /// Timer firings (`Ctx::schedule` self-deliveries) — excluded from
    /// `messages`/`bytes`.
    pub timer_events: u64,
    /// Messages lost to fault injection or to unroutable recipients.
    pub dropped: u64,
    /// Dropped messages per cause (`"loss"`, `"crash"`, `"partition"`,
    /// `"unroutable"`).
    pub dropped_by_cause: BTreeMap<&'static str, u64>,
    /// Messages delivered twice by fault-injected duplication.
    pub duplicated: u64,
    /// Lease heartbeats and their acknowledgments delivered
    /// (`Ctx::send_lease`) — control-plane chatter excluded from
    /// `messages`/`bytes`, mirroring the `timer_events` split.
    pub lease_events: u64,
    /// Actual encoded frame bytes put on the wire by the real transport
    /// (send side, including frame headers). Zero under the simulator, whose
    /// `bytes` are hand-estimated message sizes — the
    /// `wire_bytes_vs_sim_estimate` bench ratio audits the two against each
    /// other.
    pub wire_bytes: u64,
    /// Sends that found a bounded channel full and had to block (real
    /// transport backpressure; zero under the simulator).
    pub send_backpressure: u64,
}

impl Metrics {
    /// Record one delivered message.
    pub fn record_message(&mut self, kind: &'static str, bytes: f64) {
        self.messages += 1;
        self.bytes += bytes;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Record one timer firing (no link, no bytes, not a message).
    pub fn record_timer(&mut self, kind: &'static str) {
        self.timer_events += 1;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Record one delivered lease heartbeat/ack (a real network event, but
    /// control-plane: excluded from `messages`/`bytes`).
    pub fn record_lease(&mut self, kind: &'static str) {
        self.lease_events += 1;
        *self.by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Record one lost message and its cause.
    pub fn record_drop(&mut self, cause: &'static str) {
        self.dropped += 1;
        *self.dropped_by_cause.entry(cause).or_insert(0) += 1;
    }

    /// Messages of one kind.
    pub fn kind_count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Fold another node's counters into this one (the real transport keeps
    /// per-thread metrics and merges them after join).
    pub fn merge(&mut self, other: &Metrics) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        for (k, v) in &other.by_kind {
            *self.by_kind.entry(k).or_insert(0) += v;
        }
        self.compute_seconds += other.compute_seconds;
        self.events += other.events;
        self.timer_events += other.timer_events;
        self.dropped += other.dropped;
        for (k, v) in &other.dropped_by_cause {
            *self.dropped_by_cause.entry(k).or_insert(0) += v;
        }
        self.duplicated += other.duplicated;
        self.lease_events += other.lease_events;
        self.wire_bytes += other.wire_bytes;
        self.send_backpressure += other.send_backpressure;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut m = Metrics::default();
        m.record_message("rfb", 100.0);
        m.record_message("rfb", 50.0);
        m.record_message("offer", 10.0);
        assert_eq!(m.messages, 3);
        assert_eq!(m.bytes, 160.0);
        assert_eq!(m.kind_count("rfb"), 2);
        assert_eq!(m.kind_count("offer"), 1);
        assert_eq!(m.kind_count("nope"), 0);
    }

    #[test]
    fn timers_are_not_messages() {
        let mut m = Metrics::default();
        m.record_message("rfb", 100.0);
        m.record_timer("timeout");
        m.record_timer("timeout");
        assert_eq!(m.messages, 1, "timers must not inflate message counts");
        assert_eq!(m.bytes, 100.0);
        assert_eq!(m.timer_events, 2);
        assert_eq!(m.kind_count("timeout"), 2, "timers still visible by kind");
    }

    #[test]
    fn leases_are_not_messages() {
        let mut m = Metrics::default();
        m.record_message("award", 128.0);
        m.record_lease("lease");
        m.record_lease("lease-ack");
        assert_eq!(m.messages, 1, "leases must not inflate message counts");
        assert_eq!(m.bytes, 128.0);
        assert_eq!(m.lease_events, 2);
        assert_eq!(m.kind_count("lease"), 1, "leases still visible by kind");
    }

    #[test]
    fn merge_folds_all_counters() {
        let mut a = Metrics::default();
        a.record_message("rfb", 100.0);
        a.record_timer("timeout");
        a.wire_bytes = 180;
        let mut b = Metrics::default();
        b.record_message("offers", 50.0);
        b.record_message("rfb", 25.0);
        b.record_drop("loss");
        b.send_backpressure = 2;
        b.wire_bytes = 90;
        a.merge(&b);
        assert_eq!(a.messages, 3);
        assert_eq!(a.bytes, 175.0);
        assert_eq!(a.kind_count("rfb"), 2);
        assert_eq!(a.kind_count("offers"), 1);
        assert_eq!(a.timer_events, 1);
        assert_eq!(a.dropped, 1);
        assert_eq!(a.wire_bytes, 270);
        assert_eq!(a.send_backpressure, 2);
    }

    #[test]
    fn drops_track_causes() {
        let mut m = Metrics::default();
        m.record_drop("loss");
        m.record_drop("loss");
        m.record_drop("crash");
        assert_eq!(m.dropped, 3);
        assert_eq!(m.dropped_by_cause["loss"], 2);
        assert_eq!(m.dropped_by_cause["crash"], 1);
        assert_eq!(m.messages, 0);
    }
}
