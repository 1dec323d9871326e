//! Action registration: the paper's `AMCCA_REGISTER_ACTION` (Listing 1).
//!
//! Actions are identified by small integer ids carried in operons. Ids 0–7
//! are reserved for the runtime: 0 and 1 are its two system actions
//! (`allocate` and `set-future`, which implement continuations), 2–7 are
//! unassigned. User actions are handed out from [`FIRST_USER_ACTION`]
//! upward.

use amcca_sim::ActionId;

/// The `allocate` system action: allocate an object on the executing cell and
/// return its address through the registered continuation (paper §3.1).
pub const ACT_ALLOCATE: ActionId = 0;
/// The continuation's return trigger: set a future LCO to a produced address
/// and schedule the tasks that were waiting on it (paper Fig. 3 step 3).
pub const ACT_SET_FUTURE: ActionId = 1;
/// First id available to applications.
pub const FIRST_USER_ACTION: ActionId = 8;

/// Name ⇄ id table of registered actions.
#[derive(Debug)]
pub struct ActionRegistry {
    names: Vec<(ActionId, String)>,
    next: ActionId,
}

impl Default for ActionRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ActionRegistry {
    /// Fresh registry with the system actions pre-registered.
    pub fn new() -> Self {
        ActionRegistry {
            names: vec![
                (ACT_ALLOCATE, "allocate".to_string()),
                (ACT_SET_FUTURE, "set-future".to_string()),
            ],
            next: FIRST_USER_ACTION,
        }
    }

    /// Register a new action under `name`, returning its id. Registering the
    /// same name twice returns the existing id.
    pub fn register(&mut self, name: &str) -> ActionId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = self.next;
        self.next = self.next.checked_add(1).expect("action id space exhausted");
        self.names.push((id, name.to_string()));
        id
    }

    /// Register `name` at a fixed id (used by apps with compiled-in ids).
    /// Panics if the id is already taken by a different name.
    pub fn register_at(&mut self, id: ActionId, name: &str) -> ActionId {
        if let Some(existing) = self.name_of(id) {
            assert_eq!(existing, name, "action id {id} already registered as {existing}");
            return id;
        }
        assert!(self.lookup(name).is_none(), "action name {name} already has another id");
        self.names.push((id, name.to_string()));
        self.next = self.next.max(id + 1);
        id
    }

    /// Id registered under `name`, if any.
    pub fn lookup(&self, name: &str) -> Option<ActionId> {
        self.names.iter().find(|(_, n)| n == name).map(|&(id, _)| id)
    }

    /// Name registered for `id`, if any.
    pub fn name_of(&self, id: ActionId) -> Option<&str> {
        self.names.iter().find(|&&(i, _)| i == id).map(|(_, n)| n.as_str())
    }

    /// Number of registered actions (including system actions).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if nothing is registered (never: system actions exist).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_actions_preregistered() {
        let r = ActionRegistry::new();
        assert_eq!(r.lookup("allocate"), Some(ACT_ALLOCATE));
        assert_eq!(r.lookup("set-future"), Some(ACT_SET_FUTURE));
        assert_eq!(r.len(), 2, "the runtime has exactly two system actions");
    }

    #[test]
    fn user_ids_start_after_reserved_range() {
        let mut r = ActionRegistry::new();
        let id = r.register("insert-edge-action");
        assert!(id >= FIRST_USER_ACTION);
        assert_eq!(r.name_of(id), Some("insert-edge-action"));
    }

    #[test]
    fn duplicate_registration_is_idempotent() {
        let mut r = ActionRegistry::new();
        let a = r.register("bfs-action");
        let b = r.register("bfs-action");
        assert_eq!(a, b);
        assert_eq!(r.len(), 3, "two system actions plus the one registered");
    }

    #[test]
    fn register_at_fixed_id() {
        let mut r = ActionRegistry::new();
        let id = r.register_at(42, "custom");
        assert_eq!(id, 42);
        assert_eq!(r.name_of(42), Some("custom"));
        // Next dynamic registration skips past it.
        assert!(r.register("another") > 42);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn register_at_conflict_panics() {
        let mut r = ActionRegistry::new();
        r.register_at(9, "one");
        r.register_at(9, "two");
    }
}
