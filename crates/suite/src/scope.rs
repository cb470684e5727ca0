//! Per-execution shared state.
//!
//! [`crate::execute`] creates one fresh [`ExecScope`] per call and hands it
//! to every job it runs; the scope is dropped when the call returns. Jobs
//! use it to share in-memory work *within* one execution — e.g. a memo of
//! simulated campaigns several report jobs read — without that state
//! outliving the execution. Anything that must persist across executions
//! belongs in the [`crate::ArtifactStore`] instead; anything that lives in
//! a [`crate::Dag`] would be shared by every execution of it.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// One value per type, created on first use and shared by every job of
/// one execution.
#[derive(Default)]
pub struct ExecScope {
    values: Mutex<HashMap<TypeId, Arc<dyn Any + Send + Sync>>>,
}

impl std::fmt::Debug for ExecScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let values = self.values.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("ExecScope")
            .field("values", &values.len())
            .finish()
    }
}

impl ExecScope {
    /// An empty scope.
    pub fn new() -> ExecScope {
        ExecScope::default()
    }

    /// The scope's value of type `T`, created with `T::default()` by the
    /// first caller. The scope's lock is held only for the lookup, never
    /// while the caller uses the value.
    pub fn get<T: Any + Send + Sync + Default>(&self) -> Arc<T> {
        let value = self
            .values
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(TypeId::of::<T>())
            .or_insert_with(|| Arc::new(T::default()))
            .clone();
        value
            .downcast()
            .unwrap_or_else(|_| unreachable!("values are keyed by their own TypeId"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn one_value_per_type_per_scope() {
        let scope = ExecScope::new();
        scope.get::<AtomicU64>().fetch_add(3, Ordering::Relaxed);
        assert_eq!(scope.get::<AtomicU64>().load(Ordering::Relaxed), 3);
        assert!(scope.get::<Mutex<Vec<u8>>>().lock().unwrap().is_empty());
        assert_eq!(
            ExecScope::new().get::<AtomicU64>().load(Ordering::Relaxed),
            0,
            "a fresh scope starts empty"
        );
    }
}
