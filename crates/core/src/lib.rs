//! The query-trading (QT) distributed query optimizer.
//!
//! This crate is the paper's contribution: query optimization as an
//! iterative trading negotiation between a *buyer* (the node that received
//! the user query) and autonomous *seller* nodes (everyone else). Per
//! iteration (Fig. 2 of the paper):
//!
//! | Step | Code |
//! |------|------|
//! | B0: the first RFB, the query at its strategic value | [`BuyerEngine::start`] |
//! | B1: strategic valuation of the working set Q | [`qt_trade::BuyerValueBook`], fed by [`BuyerEngine::receive_offers`] |
//! | B2: Request-For-Bids broadcast | [`run_qt_direct`] (in-process), [`SessionManager`] (networked) |
//! | S2.1–2.2: partial query construction & cost estimation | [`SellerEngine::respond`], [`SellerEngine::respond_with_hints`], [`SellerEngine::respond_batch`] |
//! | S2.3: seller predicates analyser (materialized views) | the same three, one reply path behind them |
//! | B3/S3: nested winner-selection negotiation | [`qt_trade::ProtocolKind::negotiate`] in [`BuyerEngine::close_round`] |
//! | B4: candidate plan generation (answering queries using offers) | [`plangen::PlanGenerator::generate`] |
//! | B5/B6: buyer predicates analyser (new working set) | [`analyser::next_queries`] |
//! | B7/B8: convergence check, best plan | [`BuyerEngine::close_round`] |
//! | scale-out: broker tier, admission control, regional failover | [`BrokerNode`] over [`discovery`] |
//!
//! The engines are transport-independent, and exactly two loops drive them
//! through five runners. [`run_qt_direct`] is the in-process oracle: a
//! synchronous loop with analytic message accounting — fast, used for
//! plan-quality experiments and tests. [`session::SessionManager`] is the
//! one networked buyer: `qt-net` handlers that run unchanged on the
//! discrete-event simulator ([`run_qt_serve`], [`run_qt_serve_with_faults`];
//! virtual time — optimization-time and message-count experiments) and on
//! `qt_net::real` ([`run_qt_serve_real`], [`run_qt_serve_real_with_faults`];
//! thread-per-node on real cores, in-process channels, or TCP with the
//! [`qt_catalog::wire`] codec and the message layouts declared in [`wire`]).
//! A single-query trade is a serving run with one arrival at t = 0, read off
//! its [`SessionReport`] and the run's [`ServeOutcome`]. Each counter lives
//! where it is counted: transport traffic in `qt_net::Metrics`, buyer
//! retries, timeouts and degraded rounds, offer-cache traffic and the
//! contract lifecycle's [`ContractStats`] in [`ServeOutcome`]. Direct and
//! networked runs produce identical plans and message counts by
//! construction; `tests/single_session_golden.rs` and the conformance suite
//! in `tests/real_transport.rs` assert it bit-for-bit.

pub mod analyser;
pub mod broker;
pub mod buyer;
pub mod calib;
pub mod compensate;
pub mod config;
pub mod contract;
pub mod discovery;
pub mod dist_plan;
pub mod driver;
pub mod offer;
pub mod plangen;
pub mod relset;
pub mod seller;
pub mod session;
pub mod wire;

pub use buyer::{remote_awards, winner_set, BuyerEngine};
pub use calib::{load_cost_params, save_cost_params};
pub use compensate::{compensate_assembly, compensate_plan};
pub use config::QtConfig;
pub use contract::{
    is_repair_round, ContractAction, ContractController, ContractReport, ContractStats,
    LEGACY_CONTRACT, REPAIR_ROUND_BASE,
};
pub use discovery::{prune_offers, query_digest, seller_digest, BrokerSpec, BrokerTree, SellerAd};
pub use dist_plan::{DistributedPlan, PlanEstimate, Purchase};
pub use driver::{run_qt_direct, QtOutcome};
pub use offer::{Offer, OfferKind, RfbItem};
pub use relset::RelSet;
pub use seller::{session_req, SellerEngine, SessionRfb};
pub use session::{
    new_result_cache, run_qt_serve, run_qt_serve_real, run_qt_serve_real_with_faults,
    run_qt_serve_with_faults, BrokerNode, HierarchyConfig, ServeConfig, ServeMsg, ServeNode,
    ServeOutcome, SessionManager, SessionReport, SharedResultCache,
};
