#![warn(missing_docs)]
//! # diffusive — the diffusive programming model runtime
//!
//! Implements the programming model of the paper on top of `amcca-sim`: an
//! asynchronous active message (an *action*) "is sent from a memory locality
//! to another memory locality ... can mutate the state of the target locality
//! and can further create new actions (work) at the destination thereby
//! creating a ripple effect or diffusion" (§2).
//!
//! The crate provides:
//!
//! * [`action`] — the reserved action ids (`AMCCA_REGISTER_ACTION`'s ids).
//! * [`future`] — the **future LCO** with the Null → Pending(+queue) → Ready
//!   lifecycle of the paper's Figure 4.
//! * [`continuation`] — `call/cc`-style remote allocation: the `allocate`
//!   system action plus the anonymous return-trigger action of Figure 3.
//! * [`app`] — the [`App`] trait applications implement, and the [`Runtime`]
//!   adapter that intercepts the two system actions.
//! * [`device`] — the host-side [`Device`] façade mirroring Listing 1.
//! * [`terminator`] — the [`RunReport`] a run returns once the chip's
//!   terminator ([`amcca_sim::ChipConfig::termination`]) fires.

pub mod action;
pub mod app;
pub mod continuation;
pub mod device;
pub mod future;
pub mod terminator;

pub use action::{ACT_ALLOCATE, ACT_SET_FUTURE, FIRST_USER_ACTION};
pub use app::{App, Runtime};
pub use continuation::{
    allocate_operon, decode_allocate, decode_set_future, set_future_operon, AllocRequest,
    Continuation,
};
pub use device::Device;
pub use future::{FutureError, FutureLco, PendingOperon};
pub use terminator::RunReport;
