//! Contract lifecycle types: the award that ends a trade is itself a small
//! negotiation with acknowledgment, leases, and deterministic failover.
//!
//! The paper's framework ends each iteration with the buyer *awarding
//! contracts* to the winning sellers (§2.4). A one-way award is fragile:
//! under message loss or a crash of the winner the buyer holds a plan that
//! references a dead node. The lifecycle below makes failure recovery one
//! more deterministic step of the trade:
//!
//! ```text
//! Proposed ── award sent ──▶ Awarded ── AwardAck ──▶ Acked ──▶ Leased
//!                              │ │                               │
//!                 AwardDecline │ │ retries exhausted             │ heartbeats
//!                              ▼ ▼                               ▼
//!                       Declined  Expired ◀── lease misses ── Completed
//!                              │ │
//!            runner-up re-award / scoped re-trade (new contract), or
//!                              ▼
//!                          Abandoned
//! ```
//!
//! This module holds only the protocol-level piece — the state machine with
//! its legal transitions. The buyer-side controller that drives
//! the machine (bid book, re-awards, scoped re-trades) lives in `qt-core`,
//! which knows about offers and plans.

/// Where a contract stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractState {
    /// Created, award not yet on the wire.
    Proposed,
    /// Award sent, acknowledgment pending (retransmitted with capped
    /// exponential backoff until acked, declined, or retries run out).
    Awarded,
    /// The seller acknowledged the award.
    Acked,
    /// The seller holds an execution lease the buyer refreshes with
    /// heartbeat timers; consecutive missed renewals expire it.
    Leased,
    /// The lease ran its probation and the contract stands. Terminal.
    Completed,
    /// The winner was lost (ack retries exhausted or lease expired); the
    /// slot moves to a runner-up re-award or a scoped re-trade. Terminal
    /// for *this* contract — the repair is a new one.
    Expired,
    /// The seller refused the award. Terminal; repaired like `Expired`.
    Declined,
    /// No runner-up and the scoped re-trades ran dry. Terminal.
    Abandoned,
}

impl ContractState {
    /// Short lowercase label for reports and the `qtsh \contracts` dump.
    pub fn label(self) -> &'static str {
        match self {
            ContractState::Proposed => "proposed",
            ContractState::Awarded => "awarded",
            ContractState::Acked => "acked",
            ContractState::Leased => "leased",
            ContractState::Completed => "completed",
            ContractState::Expired => "expired",
            ContractState::Declined => "declined",
            ContractState::Abandoned => "abandoned",
        }
    }

    /// Terminal states never transition again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            ContractState::Completed
                | ContractState::Expired
                | ContractState::Declined
                | ContractState::Abandoned
        )
    }

    /// Whether `self → to` is a legal lifecycle step.
    pub fn may_transition(self, to: ContractState) -> bool {
        use ContractState::*;
        match (self, to) {
            (Proposed, Awarded) | (Proposed, Completed) => true,
            (Awarded, Acked) | (Awarded, Declined) | (Awarded, Expired) => true,
            (Acked, Leased) => true,
            (Leased, Completed) | (Leased, Expired) => true,
            // Abandonment may strike any live contract when repairs run dry.
            (s, Abandoned) => !s.is_terminal(),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ContractState::*;

    #[test]
    fn happy_path_is_legal() {
        let path = [Proposed, Awarded, Acked, Leased, Completed];
        for w in path.windows(2) {
            assert!(w[0].may_transition(w[1]), "{:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn failure_paths_are_legal() {
        assert!(Awarded.may_transition(Declined));
        assert!(Awarded.may_transition(Expired));
        assert!(Leased.may_transition(Expired));
        assert!(Awarded.may_transition(Abandoned));
        // A buyer-local purchase completes without ever hitting the wire.
        assert!(Proposed.may_transition(Completed));
    }

    #[test]
    fn terminal_states_stay_terminal() {
        for s in [Completed, Expired, Declined, Abandoned] {
            assert!(s.is_terminal());
            for t in [Proposed, Awarded, Acked, Leased, Completed, Expired] {
                assert!(!s.may_transition(t), "{s:?} must not move to {t:?}");
            }
        }
    }

    #[test]
    fn no_skipping_the_ack() {
        assert!(!Awarded.may_transition(Leased));
        assert!(!Proposed.may_transition(Acked));
        assert!(!Acked.may_transition(Completed));
    }

    #[test]
    fn states_label_compactly() {
        assert_eq!(ContractState::Leased.label(), "leased");
        assert_eq!(Abandoned.label(), "abandoned");
    }
}
