//! Action ids: what the paper's `AMCCA_REGISTER_ACTION` (Listing 1) binds
//! a name to.
//!
//! Actions are identified by small integer ids carried in operons. Ids 0–7
//! are reserved for the runtime: 0 and 1 are its two system actions
//! (`allocate` and `set-future`, which implement continuations), 2–7 are
//! unassigned. Applications compile their own ids in, from
//! [`FIRST_USER_ACTION`] upward, and dispatch on them in `App::on_action`;
//! no run-time table maps names to ids.

use amcca_sim::ActionId;

/// The `allocate` system action: allocate an object on the executing cell and
/// return its address through the registered continuation (paper §3.1).
pub const ACT_ALLOCATE: ActionId = 0;
/// The continuation's return trigger: set a future LCO to a produced address
/// and schedule the tasks that were waiting on it (paper Fig. 3 step 3).
pub const ACT_SET_FUTURE: ActionId = 1;
/// First id available to applications.
pub const FIRST_USER_ACTION: ActionId = 8;
