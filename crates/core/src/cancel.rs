//! Cooperative query cancellation.
//!
//! A [`CancellationToken`] is a shared atomic flag: the scheduler checks it
//! at every dispatch decision and block-loop operators check it between
//! blocks, so a tripped token stops the query at the next safe point — no
//! thread is ever interrupted mid-block. Deadlines
//! ([`ExecContext::deadline`](crate::state::ExecContext::deadline)) are
//! implemented on top of the same flag: the first of those checks made past
//! the deadline trips the token.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared flag requesting that a running query stop at the next safe point.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same flag.
/// Tripping the token is sticky — there is deliberately no `reset`, a token
/// belongs to one query execution.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_untripped_and_trips_sticky() {
        let t = CancellationToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        t.cancel(); // idempotent
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancellationToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn visible_across_threads() {
        let t = CancellationToken::new();
        let c = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || c.cancel());
        });
        assert!(t.is_cancelled());
    }
}
