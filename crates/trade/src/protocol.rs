//! Negotiation protocols.
//!
//! Each protocol takes the bid list for one item and produces a
//! [`NegotiationOutcome`] — the winner, the agreed value, and the message /
//! round overhead the protocol would have cost on the wire. The QT layer
//! charges those overheads to the simulated network, which is how experiment
//! E7 measures the paper's claim that "using a nested bargaining within a
//! bargaining will only increase the number of exchanged messages".

use crate::offer::{Bid, NegotiationOutcome};

/// Identifies one negotiation — one buyer query traded end-to-end — within a
/// federation that multiplexes many concurrent negotiations over the same
/// sellers. Sessions are numbered in arrival order by the serving layer, so
/// the id doubles as the deterministic tie-break for same-instant events:
/// batched protocol messages list their per-session entries in ascending
/// `SessionId`, and every piece of per-session state (buyer engines, seller
/// offer-id counters, reply memos) is keyed by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u64);

qt_catalog::impl_wire!(SessionId(id));

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Hard cap on descending-clock auction rounds: a zero or near-zero opening
/// ask used to make `step` collapse to `f64::MIN_POSITIVE` and the round
/// count astronomical (billions of phantom messages charged to the network).
pub const MAX_ENGLISH_ROUNDS: u64 = 10_000;

/// Which negotiation protocol runs the nested winner selection.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ProtocolKind {
    /// Sealed-bid first-price (Contract-Net style bidding): every seller
    /// bids once, the lowest ask wins and is paid its ask. One award message.
    #[default]
    SealedBid,
    /// Sealed-bid second-price (Vickrey): lowest ask wins, paid the
    /// second-lowest ask. Truth-telling is dominant; one award message.
    Vickrey,
    /// Reverse English (descending-price) auction: the price falls by
    /// `decrement` (a fraction of the best ask) per round; sellers drop out
    /// below their reserve; the last seller standing wins at the price where
    /// the runner-up quit. Costs one message per active seller per round.
    English {
        /// Per-round price decrement as a fraction of the opening price.
        decrement: f64,
    },
    /// One-on-one alternating-offers bargaining with the best-ask seller:
    /// the parties split the ask/reserve gap over up to `max_rounds`
    /// concession rounds. Two messages per round.
    Bargaining {
        /// Maximum concession rounds.
        max_rounds: u32,
    },
}

impl ProtocolKind {
    /// Run the protocol over `bids` (lower ask = better). `reserve_value` is
    /// the buyer's walk-away value: bids above it cannot win.
    ///
    /// ```
    /// use qt_catalog::NodeId;
    /// use qt_trade::{Bid, ProtocolKind};
    ///
    /// let bids = vec![
    ///     Bid::new(NodeId(1), 30.0, 25.0),
    ///     Bid::new(NodeId(2), 40.0, 20.0),
    /// ];
    /// let sealed = ProtocolKind::SealedBid.negotiate(&bids, f64::INFINITY);
    /// assert_eq!(sealed.winner, Some(0));          // lowest ask
    /// assert_eq!(sealed.agreed_value, 30.0);       // pays its ask
    /// let vickrey = ProtocolKind::Vickrey.negotiate(&bids, f64::INFINITY);
    /// assert_eq!(vickrey.agreed_value, 40.0);      // pays the second price
    /// ```
    pub fn negotiate(&self, bids: &[Bid], reserve_value: f64) -> NegotiationOutcome {
        let admissible: Vec<usize> = (0..bids.len())
            .filter(|&i| bids[i].ask <= reserve_value && bids[i].ask.is_finite())
            .collect();
        if admissible.is_empty() {
            return NegotiationOutcome::no_deal();
        }
        let best = *admissible
            .iter()
            .min_by(|&&a, &&b| bids[a].ask.total_cmp(&bids[b].ask))
            .expect("nonempty");
        match self {
            ProtocolKind::SealedBid => NegotiationOutcome {
                winner: Some(best),
                agreed_value: bids[best].ask,
                extra_messages: 1, // award notice
                extra_round_trips: 1,
            },
            ProtocolKind::Vickrey => {
                let second = admissible
                    .iter()
                    .filter(|&&i| i != best)
                    .map(|&i| bids[i].ask)
                    .fold(f64::INFINITY, f64::min);
                NegotiationOutcome {
                    winner: Some(best),
                    agreed_value: if second.is_finite() {
                        second
                    } else {
                        bids[best].ask
                    },
                    extra_messages: 1,
                    extra_round_trips: 1,
                }
            }
            ProtocolKind::English { decrement } => {
                // Descending clock: price starts at the worst admissible ask
                // and falls; a seller stays while price >= its reserve. The
                // winner is the seller with the lowest reserve, paying the
                // price at which the runner-up dropped out.
                let opening = admissible
                    .iter()
                    .map(|&i| bids[i].ask)
                    .fold(0.0f64, f64::max)
                    .min(reserve_value);
                // Clamp the clock step away from denormal territory: a zero
                // opening (free asks) or a tiny decrement must not yield an
                // astronomical round count. The floor is relative to the
                // opening price when it is meaningful, absolute otherwise.
                let step = (opening * decrement).max(opening.abs() * 1e-6).max(1e-12);
                let win = *admissible
                    .iter()
                    .min_by(|&&a, &&b| bids[a].reserve.total_cmp(&bids[b].reserve))
                    .expect("nonempty");
                let runner_up_reserve = admissible
                    .iter()
                    .filter(|&&i| i != win)
                    .map(|&i| bids[i].reserve)
                    .fold(f64::INFINITY, f64::min)
                    .min(opening);
                let clearing = if runner_up_reserve.is_finite() {
                    runner_up_reserve.max(bids[win].reserve)
                } else {
                    bids[win].ask
                };
                let rounds = (((opening - clearing) / step).ceil().max(1.0))
                    .min(MAX_ENGLISH_ROUNDS as f64) as u64;
                // Per round every still-active seller receives/acks the clock
                // tick; approximate with the admissible count.
                NegotiationOutcome {
                    winner: Some(win),
                    agreed_value: clearing,
                    extra_messages: rounds * admissible.len() as u64 + 1,
                    extra_round_trips: rounds,
                }
            }
            ProtocolKind::Bargaining { max_rounds } => {
                // Alternate concessions with the best-ask seller: each round
                // the seller concedes half the remaining gap to its reserve.
                let b = &bids[best];
                let mut price = b.ask;
                let mut rounds = 0u64;
                while rounds < *max_rounds as u64 {
                    let next = b.reserve + (price - b.reserve) * 0.5;
                    if (price - next).abs() < 1e-9 {
                        break;
                    }
                    price = next;
                    rounds += 1;
                }
                NegotiationOutcome {
                    winner: Some(best),
                    agreed_value: price.max(b.reserve),
                    extra_messages: rounds * 2 + 1,
                    extra_round_trips: rounds + 1,
                }
            }
        }
    }

    /// Display label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::SealedBid => "sealed-bid",
            ProtocolKind::Vickrey => "vickrey",
            ProtocolKind::English { .. } => "english",
            ProtocolKind::Bargaining { .. } => "bargaining",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::NodeId;

    fn bids() -> Vec<Bid> {
        vec![
            Bid::new(NodeId(1), 30.0, 25.0),
            Bid::new(NodeId(2), 40.0, 20.0),
            Bid::new(NodeId(3), 55.0, 50.0),
        ]
    }

    #[test]
    fn sealed_bid_takes_lowest_ask() {
        let out = ProtocolKind::SealedBid.negotiate(&bids(), f64::INFINITY);
        assert_eq!(out.winner, Some(0));
        assert_eq!(out.agreed_value, 30.0);
        assert_eq!(out.extra_messages, 1);
    }

    #[test]
    fn vickrey_pays_second_price() {
        let out = ProtocolKind::Vickrey.negotiate(&bids(), f64::INFINITY);
        assert_eq!(out.winner, Some(0));
        assert_eq!(out.agreed_value, 40.0);
    }

    #[test]
    fn vickrey_single_bid_pays_own_ask() {
        let one = vec![Bid::new(NodeId(1), 30.0, 25.0)];
        let out = ProtocolKind::Vickrey.negotiate(&one, f64::INFINITY);
        assert_eq!(out.agreed_value, 30.0);
    }

    #[test]
    fn english_winner_has_lowest_reserve() {
        let out = ProtocolKind::English { decrement: 0.05 }.negotiate(&bids(), f64::INFINITY);
        assert_eq!(out.winner, Some(1)); // reserve 20 beats 25
                                         // Clearing price ≈ runner-up reserve (25).
        assert!(
            (out.agreed_value - 25.0).abs() < 1e-9,
            "{}",
            out.agreed_value
        );
        assert!(out.extra_messages > 3, "auction costs rounds of messages");
    }

    #[test]
    fn english_zero_opening_is_bounded() {
        // Free asks used to yield step = f64::MIN_POSITIVE and ~1e308
        // rounds; the clamp keeps the auction finite.
        let free = vec![Bid::new(NodeId(1), 0.0, 0.0), Bid::new(NodeId(2), 0.0, 0.0)];
        let out = ProtocolKind::English { decrement: 0.05 }.negotiate(&free, f64::INFINITY);
        assert!(out.winner.is_some());
        assert!(out.extra_round_trips <= MAX_ENGLISH_ROUNDS);
        assert!(out.extra_messages <= MAX_ENGLISH_ROUNDS * free.len() as u64 + 1);
    }

    #[test]
    fn english_tiny_decrement_is_bounded() {
        let out = ProtocolKind::English { decrement: 1e-300 }.negotiate(&bids(), f64::INFINITY);
        assert!(out.extra_round_trips <= MAX_ENGLISH_ROUNDS);
    }

    #[test]
    fn bargaining_lands_between_reserve_and_ask() {
        let out = ProtocolKind::Bargaining { max_rounds: 4 }.negotiate(&bids(), f64::INFINITY);
        assert_eq!(out.winner, Some(0));
        assert!(out.agreed_value >= 25.0 && out.agreed_value <= 30.0);
        assert!(out.extra_messages >= 2);
        // More rounds → closer to the reserve.
        let long = ProtocolKind::Bargaining { max_rounds: 16 }.negotiate(&bids(), f64::INFINITY);
        assert!(long.agreed_value <= out.agreed_value);
    }

    #[test]
    fn buyer_reserve_filters_bids() {
        let out = ProtocolKind::SealedBid.negotiate(&bids(), 20.0);
        assert_eq!(out.winner, None);
        let out = ProtocolKind::SealedBid.negotiate(&bids(), 35.0);
        assert_eq!(out.winner, Some(0));
    }

    #[test]
    fn empty_bids_no_deal() {
        for p in [
            ProtocolKind::SealedBid,
            ProtocolKind::Vickrey,
            ProtocolKind::English { decrement: 0.1 },
            ProtocolKind::Bargaining { max_rounds: 3 },
        ] {
            assert_eq!(p.negotiate(&[], 100.0).winner, None, "{}", p.label());
        }
    }

    #[test]
    fn truthful_bidding_never_loses_money_under_vickrey() {
        // Property: paying the second price >= winner's reserve when asks
        // equal reserves (truthful).
        let truthful = vec![
            Bid::new(NodeId(1), 25.0, 25.0),
            Bid::new(NodeId(2), 20.0, 20.0),
            Bid::new(NodeId(3), 50.0, 50.0),
        ];
        let out = ProtocolKind::Vickrey.negotiate(&truthful, f64::INFINITY);
        let w = out.winner.unwrap();
        assert!(out.agreed_value >= truthful[w].reserve);
        assert!(out.seller_surplus(&truthful) >= 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProtocolKind::SealedBid.label(), "sealed-bid");
        assert_eq!(ProtocolKind::Vickrey.label(), "vickrey");
        assert_eq!(ProtocolKind::English { decrement: 0.1 }.label(), "english");
        assert_eq!(
            ProtocolKind::Bargaining { max_rounds: 1 }.label(),
            "bargaining"
        );
    }
}
