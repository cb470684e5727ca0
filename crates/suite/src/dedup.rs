//! Cross-request in-flight deduplication of artifact computations.
//!
//! The artifact store makes *completed* work shareable; this registry makes
//! *running* work shareable. When two evaluation requests both need the
//! oracle for the same 〈scenario, vector, sweep〉 key, the first caller to
//! [`InFlight::claim`] the key becomes the **leader** and computes; every
//! later caller becomes a **follower** and blocks until the leader releases
//! its [`ClaimToken`], then re-reads the store — so the expensive training
//! job runs exactly once per store no matter how many concurrent requests
//! ask for it.
//!
//! The registry tracks only liveness, never results: results travel through
//! the [`crate::store::ArtifactStore`], which is what keeps this module a
//! std-only `Mutex`/`Condvar` table with no knowledge of payload types.
//! Leadership is released on token drop, so a panicking leader can never
//! strand its followers — they wake, miss the store, and compute locally.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight computation: `done` flips exactly once, at release.
#[derive(Debug, Default)]
struct Slot {
    done: Mutex<bool>,
    released: Condvar,
}

/// The in-flight claim registry. One instance is shared per
/// [`crate::store::ArtifactStore`]; keys are ⟨namespace, content digest⟩,
/// exactly the store's addressing scheme.
#[derive(Debug, Default)]
pub struct InFlight {
    slots: Mutex<HashMap<(&'static str, u64), Arc<Slot>>>,
    led: AtomicU64,
    coalesced: AtomicU64,
}

/// What [`InFlight::claim`] decided for this caller.
#[derive(Debug)]
pub enum Claim<'a> {
    /// This caller computes. Keep the token alive until the result is in
    /// the store; dropping it wakes every follower.
    Leader(ClaimToken<'a>),
    /// Another caller computed the same key while we blocked. The store
    /// should now have the result — re-read it (and fall back to computing
    /// locally if the leader failed to persist).
    Coalesced,
    /// The registry is not coordinating this key (disabled store): compute
    /// locally, nothing to release.
    Uncoordinated,
}

/// Leadership over one in-flight key; released (followers woken, slot
/// retired) on drop.
#[derive(Debug)]
pub struct ClaimToken<'a> {
    registry: &'a InFlight,
    ns: &'static str,
    key: u64,
    slot: Arc<Slot>,
}

impl ClaimToken<'_> {
    /// Releases leadership *without* counting a led computation. For the
    /// leader that, on its post-claim store re-check, finds the result
    /// already present — it lost a race with a finishing leader between its
    /// store miss and its claim, and computes nothing. Keeps [`InFlight::led`]
    /// equal to the number of computations that actually ran, which is the
    /// equality the dedup tests assert exactly.
    pub fn disavow(self) {
        self.registry.led.fetch_sub(1, Ordering::Relaxed);
        // The Drop impl runs next: retires the slot and wakes followers.
    }
}

impl Drop for ClaimToken<'_> {
    fn drop(&mut self) {
        // Retire the slot first so a late claimant starts a fresh claim
        // (it will check the store before claiming and normally hit).
        self.registry
            .slots
            .lock()
            .expect("in-flight registry lock")
            .remove(&(self.ns, self.key));
        *self.slot.done.lock().expect("in-flight slot lock") = true;
        self.slot.released.notify_all();
    }
}

impl InFlight {
    /// An empty registry.
    pub fn new() -> InFlight {
        InFlight::default()
    }

    /// Claims ⟨`ns`, `key`⟩. The first claimant becomes the leader and
    /// returns immediately; later claimants **block** until the leader
    /// releases, then return [`Claim::Coalesced`]. Callers must check the
    /// store *before* claiming — a claim means "I am about to compute".
    pub fn claim(&self, ns: &'static str, key: u64) -> Claim<'_> {
        let slot = {
            let mut slots = self.slots.lock().expect("in-flight registry lock");
            match slots.get(&(ns, key)) {
                Some(slot) => slot.clone(),
                None => {
                    let slot = Arc::new(Slot::default());
                    slots.insert((ns, key), slot.clone());
                    self.led.fetch_add(1, Ordering::Relaxed);
                    return Claim::Leader(ClaimToken {
                        registry: self,
                        ns,
                        key,
                        slot,
                    });
                }
            }
        };
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        let mut done = slot.done.lock().expect("in-flight slot lock");
        while !*done {
            done = slot.released.wait(done).expect("in-flight slot lock");
        }
        Claim::Coalesced
    }

    /// How many claims became leaders — i.e. how many computations actually
    /// ran. Two identical concurrent requests over one store keep this at
    /// the single-request value; that equality is the dedup proof CI
    /// asserts.
    pub fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// How many claims blocked on another caller's in-flight computation
    /// instead of redundantly computing.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Keys currently being computed (leaders not yet released).
    pub fn in_flight(&self) -> usize {
        self.slots.lock().expect("in-flight registry lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn first_claim_leads_second_coalesces_after_release() {
        let reg = InFlight::new();
        let token = match reg.claim("oracle", 7) {
            Claim::Leader(t) => t,
            other => panic!("expected leader, got {other:?}"),
        };
        assert_eq!((reg.led(), reg.coalesced()), (1, 0));
        assert_eq!(reg.in_flight(), 1);

        // A different key is independent.
        match reg.claim("oracle", 8) {
            Claim::Leader(_) => {}
            other => panic!("expected leader for fresh key, got {other:?}"),
        }

        drop(token);
        assert_eq!(reg.in_flight(), 0, "released slot is retired");
        // After release the key is claimable again (fresh leader).
        assert!(matches!(reg.claim("oracle", 7), Claim::Leader(_)));
    }

    #[test]
    fn disavowed_leadership_releases_without_counting() {
        let reg = InFlight::new();
        match reg.claim("oracle", 3) {
            Claim::Leader(token) => token.disavow(),
            other => panic!("expected leader, got {other:?}"),
        }
        assert_eq!((reg.led(), reg.coalesced()), (0, 0), "nothing computed");
        assert_eq!(reg.in_flight(), 0, "slot still retired");
        assert!(matches!(reg.claim("oracle", 3), Claim::Leader(_)));
    }

    #[test]
    fn followers_block_until_the_leader_releases() {
        let reg = Arc::new(InFlight::new());
        let computed = Arc::new(AtomicU32::new(0));

        std::thread::scope(|scope| {
            // One leader holds the key for a while; N followers must all
            // observe the store-after-release world, i.e. coalesce.
            let leader_reg = reg.clone();
            let leader_computed = computed.clone();
            scope.spawn(move || {
                let token = match leader_reg.claim("dataset", 42) {
                    Claim::Leader(t) => t,
                    other => panic!("leader expected, got {other:?}"),
                };
                std::thread::sleep(std::time::Duration::from_millis(50));
                leader_computed.fetch_add(1, Ordering::SeqCst);
                drop(token);
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
            for _ in 0..4 {
                let reg = reg.clone();
                let computed = computed.clone();
                scope.spawn(move || match reg.claim("dataset", 42) {
                    Claim::Coalesced => {
                        assert_eq!(
                            computed.load(Ordering::SeqCst),
                            1,
                            "woke before the leader finished computing"
                        );
                    }
                    // A late follower can arrive after the leader released
                    // and legitimately become a fresh leader; that path
                    // re-checks the store in real callers.
                    Claim::Leader(_) => {}
                    Claim::Uncoordinated => panic!("registry never uncoordinates"),
                });
            }
        });

        assert_eq!(computed.load(Ordering::SeqCst), 1, "one computation");
        assert!(reg.coalesced() >= 1, "followers coalesced");
    }

    #[test]
    fn panicking_leader_does_not_strand_followers() {
        let reg = Arc::new(InFlight::new());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reg_leader = reg.clone();
        let result = std::thread::spawn(move || {
            let _token = match reg_leader.claim("oracle", 1) {
                Claim::Leader(t) => t,
                other => panic!("leader expected, got {other:?}"),
            };
            panic!("leader exploded");
        })
        .join();
        std::panic::set_hook(prev);
        assert!(result.is_err(), "leader panicked");
        // The token was dropped during unwind: the key is free again and
        // nobody blocks forever.
        assert_eq!(reg.in_flight(), 0);
        assert!(matches!(reg.claim("oracle", 1), Claim::Leader(_)));
    }
}
