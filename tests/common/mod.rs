//! Helpers shared by the integration tests.

use scalla::client::ClientNode;
use scalla::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Wraps a [`ClientNode`] and raises a flag once its script is done, so a
/// test can wait for completion instead of sleeping a fixed time. Downcasts
/// reach the inner client, so results are read exactly as without it.
pub struct Watched {
    inner: ClientNode,
    done: Arc<AtomicBool>,
}

impl Watched {
    /// The wrapper and the flag it raises.
    pub fn new(inner: ClientNode) -> (Watched, Arc<AtomicBool>) {
        let done = Arc::new(AtomicBool::new(false));
        (Watched { inner, done: done.clone() }, done)
    }

    fn check(&self) {
        if self.inner.is_done() {
            self.done.store(true, Ordering::SeqCst);
        }
    }
}

impl Node for Watched {
    fn on_start(&mut self, ctx: &mut dyn NetCtx) {
        self.inner.on_start(ctx);
        self.check();
    }
    fn on_message(&mut self, ctx: &mut dyn NetCtx, from: Addr, msg: Msg) {
        self.inner.on_message(ctx, from, msg);
        self.check();
    }
    fn on_timer(&mut self, ctx: &mut dyn NetCtx, token: u64) {
        self.inner.on_timer(ctx, token);
        self.check();
    }
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any_mut()
    }
}
