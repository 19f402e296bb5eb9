//! The thread-local emission runtime.
//!
//! Instrumented crates call [`emit`] unconditionally; it costs one
//! thread-local flag read and a predictable branch when no collector is
//! installed. Installing a [`Collector`] arms the current thread only —
//! the `TrialRunner` integration installs one per trial on whichever
//! worker runs it, so parallel trials never share a collector and no
//! locking is involved.

use std::cell::{Cell, RefCell};

use crate::collector::Collector;
use crate::event::ObsEvent;

thread_local! {
    /// Fast-path flag mirroring `CURRENT.is_some()`.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// The collector of the trial currently running on this thread.
    static CURRENT: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// True when a collector is installed on this thread.
#[must_use]
pub fn is_enabled() -> bool {
    ARMED.with(Cell::get)
}

/// Emits one event into the current thread's collector, if any.
///
/// With no collector installed this is a single branch on a thread-local
/// flag — cheap enough to leave in every flash-operation hot path.
#[inline]
pub fn emit(event: ObsEvent) {
    if ARMED.with(Cell::get) {
        emit_armed(event);
    }
}

#[cold]
fn emit_armed(event: ObsEvent) {
    CURRENT.with(|c| {
        if let Some(collector) = c.borrow_mut().as_mut() {
            collector.record(event);
        }
    });
}

/// Installs `collector` on this thread, returning the previously
/// installed one (so nested instrumented scopes can restore it).
pub fn install(collector: Collector) -> Option<Collector> {
    let prev = CURRENT.with(|c| c.borrow_mut().replace(collector));
    ARMED.with(|a| a.set(true));
    prev
}

/// Removes and returns this thread's collector, disarming emission.
pub fn take() -> Option<Collector> {
    let taken = CURRENT.with(|c| c.borrow_mut().take());
    ARMED.with(|a| a.set(false));
    taken
}

/// Runs `f` with `collector` installed on this thread and returns its
/// result with the collector. Whatever collector was installed before is
/// restored afterwards, so collected scopes nest. A body that takes the
/// collector itself yields an empty, ring-less one with the same index.
pub fn collect<T>(collector: Collector, f: impl FnOnce() -> T) -> (T, Collector) {
    let index = collector.trial_index();
    let prev = install(collector);
    let out = f();
    let collector = take().unwrap_or_else(|| Collector::with_capacity(index, 0));
    if let Some(p) = prev {
        install(p);
    }
    (out, collector)
}

/// An RAII phase marker: emits [`ObsEvent::SpanEnter`] on creation and
/// [`ObsEvent::SpanExit`] when dropped.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        emit(ObsEvent::SpanExit { name: self.name });
    }
}

/// Opens a named phase span: `let _span = obs::span("extract");`.
///
/// Both edges are ordinary events, so they are no-ops when no collector
/// is installed and land in the per-trial timeline when one is.
#[must_use = "a span closes when dropped; bind it to a variable for the phase's duration"]
pub fn span(name: &'static str) -> Span {
    emit(ObsEvent::SpanEnter { name });
    Span { name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlashOpKind;

    fn erase() -> ObsEvent {
        ObsEvent::FlashOp {
            kind: FlashOpKind::EraseSegment,
            seg: 0,
        }
    }

    #[test]
    fn emit_without_collector_is_a_no_op() {
        assert!(!is_enabled());
        emit(erase());
        assert!(take().is_none());
    }

    #[test]
    fn install_emit_take_roundtrip() {
        assert!(install(Collector::new(3)).is_none());
        assert!(is_enabled());
        emit(erase());
        {
            let _span = span("phase");
            emit(erase());
        }
        let c = take().expect("collector was installed");
        assert!(!is_enabled());
        assert_eq!(c.trial_index(), 3);
        assert_eq!(c.metrics().counter("flash", "erase_segment"), 2);
        assert_eq!(c.metrics().counter("span", "phase"), 1);
        let kinds: Vec<&str> = c.events().map(|(_, e)| e.kind_name()).collect();
        assert_eq!(
            kinds,
            vec!["flash_op", "span_enter", "flash_op", "span_exit"]
        );
    }

    #[test]
    fn collect_restores_the_outer_collector() {
        install(Collector::new(1));
        let (out, inner) = collect(Collector::new(2), || {
            emit(erase());
            7
        });
        assert_eq!(out, 7);
        assert_eq!(inner.trial_index(), 2);
        assert_eq!(inner.metrics().counter("flash", "erase_segment"), 1);
        let outer = take().expect("outer collector restored");
        assert_eq!(outer.trial_index(), 1);
        assert_eq!(outer.ops(), 0);
        let ((), stolen) = collect(Collector::new(5), || drop(take()));
        assert_eq!(stolen.trial_index(), 5);
        assert!(!is_enabled());
    }

    #[test]
    fn install_returns_the_previous_collector() {
        assert!(install(Collector::new(1)).is_none());
        emit(erase());
        let prev = install(Collector::new(2)).expect("first collector returned");
        assert_eq!(prev.trial_index(), 1);
        assert_eq!(prev.metrics().counter("flash", "erase_segment"), 1);
        let c = take().expect("second collector present");
        assert_eq!(c.trial_index(), 2);
    }
}
