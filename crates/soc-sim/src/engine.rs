//! The discrete-event execution engine — one loop, `engine::run`.
//!
//! ## Architecture
//!
//! A single scheduler loop owns a min-heap of `(virtual_time, tile)`
//! events and drives global virtual time deterministically: pop the
//! earliest entry, resume that tile, push the time it announces for its
//! next action. *What* happens lives in the tile program, *when* lives
//! in the loop; heap membership is the whole scheduling state of a tile
//! (in it: parked, its next action announced; else running or finished).
//!
//! * **Tiles are the only active parts.** Each tile program runs as a
//!   *stackful coroutine* (a `coro` task) with a stack of its own, so
//!   the blocking `Cpu` API (and the whole annotation runtime above it)
//!   runs unchanged. A handoff is a user-space stack switch: the loop
//!   and every tile program run on the thread that called `Soc::run`,
//!   one at a time, so the run is single-threaded and deterministic by
//!   construction — and the simulated state needs no lock:
//!   [`crate::soc::Soc`] is `!Sync`, checked by the compiler.
//! * **NoC links, per-tile DMA engines and the SDRAM controller** are
//!   *passive* busy-until resources: their schedules are computed at
//!   issue time (`Noc::reserve_path`, `DmaEngine::issue`,
//!   `reserve_sdram`) and their in-flight effects are timestamped
//!   packets applied in arrival order at commit points. They need no
//!   heap entries of their own — every instant at which they could
//!   change observable state is already a tile's commit point.
//! * **Results travel with the handoff.** A task's last yield carries
//!   what its tile produced — counters, final clock and telemetry, or
//!   the panic payload — and the loop returns them all: nothing about a
//!   run is left in a side slot for the caller to collect.
//!
//! ## The horizon optimisation
//!
//! A resumed task does not yield back after a single action: the loop
//! hands it the current *horizon* — the earliest `(time, tile)` event of
//! any other tile — and the task keeps committing actions while its own
//! `(clock, tile)` stays strictly below that horizon. Parked tiles
//! cannot change their announced times while the task runs, so the
//! horizon is stable and the global `(virtual_time, tile)` commit order
//! is preserved exactly. Consecutive actions by the same tile — the
//! common case — cost zero handoffs.
//!
//! ## Abort
//!
//! A tile program that panics finishes its task with the payload. The
//! loop keeps the *first* it sees — in `(virtual_time, tile)` order, not
//! the lowest tile — and from then on answers every event with an abort:
//! the parked task panics out of its yield point, its destructors run,
//! and its own (secondary) payload is dropped.
//!
//! ## The contract
//!
//! The engine owes the simulator one property: globally visible actions
//! commit in non-decreasing `(virtual_time, tile)` order. `Cpu::turn`
//! asserts it on every action of every run (see the *Scheduling model*
//! section of [`crate::soc`]). The thread-per-tile turnstile this
//! engine replaced survives as numbers only: `tests/engine.rs` and
//! `tests/serve.rs` pin digests of its outcomes, traces, counters and
//! latencies, captured while it still ran and was asserted equal.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::coro::{Suspender, Task};
use crate::counters::Counters;
use crate::telemetry::TelemetryEvent;

/// A `(virtual_time, tile)` scheduling bound: a task may commit actions
/// while its own `(clock, tile)` is strictly below the horizon.
pub(crate) type Horizon = (u64, usize);

/// The horizon when no other tile has a pending event: run to
/// completion without yielding.
pub(crate) const HORIZON_NONE: Horizon = (u64::MAX, usize::MAX);

/// Engine → task resume message.
pub(crate) enum Go {
    /// Run until `(clock, tile)` reaches `horizon`, then yield.
    Run { horizon: Horizon },
    /// The run is aborting (another tile panicked): unwind.
    Abort,
}

/// What a tile program that returned leaves behind (`Cpu::finish`).
#[derive(Default)]
pub(crate) struct TileResult {
    pub(crate) counters: Counters,
    /// The tile's final local clock.
    pub(crate) clock: u64,
    /// The core-side telemetry stream and its ring-drop count.
    pub(crate) telemetry: (Vec<TelemetryEvent>, u64),
}

/// Task → engine yield message.
pub(crate) enum TaskYield {
    /// The task's next globally visible action is at virtual time `at`.
    Ready { at: u64 },
    /// The task's last yield: what the tile program produced, or the
    /// payload it panicked with.
    Finished(Box<std::thread::Result<TileResult>>),
}

// `TaskYield` crosses the task boundary on every handoff: carrying the
// ~200-byte `TileResult` inline measurably slowed whole runs, so the
// once-per-task result stays behind a pointer.
const _: () = assert!(std::mem::size_of::<TaskYield>() <= 16);

/// The task-side half of the engine⇄task handoff, owned by the tile's
/// `Cpu`. `ensure_turn` is the coroutine yield point: it suspends the
/// task until the engine schedules this tile. Borrowing the task's
/// [`Suspender`] makes it (hence `Cpu`) `!Send`: a tile program stays on
/// the stack it was started on.
pub(crate) struct TaskPort<'t> {
    suspender: &'t Suspender<Go, TaskYield>,
    horizon: Horizon,
}

impl<'t> TaskPort<'t> {
    /// `first` is the message the task was started with (the start-up
    /// round of [`run`]).
    pub(crate) fn new(suspender: &'t Suspender<Go, TaskYield>, first: Go, tile: usize) -> Self {
        let mut port = TaskPort { suspender, horizon: (0, 0) };
        port.accept(first, tile);
        port
    }

    /// Suspend until the engine hands this tile the turn for an action
    /// at `(clock, tile)` — or return immediately if the task is still
    /// strictly below its horizon (no other component acts earlier).
    ///
    /// Panics with the abort message when the engine resumes the task
    /// only to unwind it.
    pub(crate) fn ensure_turn(&mut self, clock: u64, tile: usize) {
        if (clock, tile) < self.horizon {
            return;
        }
        let go = self.suspender.suspend(TaskYield::Ready { at: clock });
        self.accept(go, tile);
    }

    fn accept(&mut self, go: Go, tile: usize) {
        match go {
            Go::Run { horizon } => self.horizon = horizon,
            Go::Abort => {
                panic!("tile {tile}: simulation aborted by a panic on another tile")
            }
        }
    }
}

/// Aggregate statistics of one discrete-event run — the "state counts"
/// `pmcbench` reports as `soc-sim.engine.*` (workload `scale_1024t`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Heap events processed (scheduler loop iterations).
    pub events: u64,
    /// Engine⇄task handoffs (resume + yield pairs). Always
    /// ≤ `events`; the gap is the events answered with an abort.
    pub handoffs: u64,
    /// Peak event-heap depth (bounded by the number of tiles).
    pub peak_queue: usize,
}

/// Everything one [`run`] produced.
pub(crate) struct RunOutcome {
    pub(crate) stats: EngineStats,
    /// Per task, in task order: `Some` iff its program returned.
    pub(crate) results: Vec<Option<TileResult>>,
    /// The first panic in `(virtual_time, tile)` order, with its tile.
    pub(crate) panic: Option<(usize, Box<dyn Any + Send>)>,
}

impl RunOutcome {
    /// A task's yield either re-enters the heap or closes its tile.
    fn settle(&mut self, heap: &mut BinaryHeap<Reverse<Horizon>>, tile: usize, y: TaskYield) {
        match y {
            TaskYield::Ready { at } => heap.push(Reverse((at, tile))),
            TaskYield::Finished(result) => match *result {
                Ok(result) => self.results[tile] = Some(result),
                Err(payload) => {
                    // Keep the original panic; a peer's abort unwind is noise.
                    self.panic.get_or_insert((tile, payload));
                }
            },
        }
        self.stats.peak_queue = self.stats.peak_queue.max(heap.len());
    }
}

/// Drive `tasks` — task `i` is tile `i`, which makes the heap's
/// tie-break the contract's `(clock, tile)` — until all have finished.
///
/// In-flight packets (posted writes racing a finished program) may
/// still be queued when the loop ends; `Soc::run` drains them after
/// this returns, so host-side readback sees the completed run.
pub(crate) fn run(tasks: &mut [Task<'_, Go, TaskYield>]) -> RunOutcome {
    let mut out = RunOutcome {
        stats: EngineStats::default(),
        results: tasks.iter().map(|_| None).collect(),
        panic: None,
    };
    let mut heap = BinaryHeap::with_capacity(tasks.len());
    // The `(0, 0)` horizon is below every `(clock, tile)`, so the first
    // action always yields: every task announces its first event (or
    // finishes) before the loop starts.
    for (tile, task) in tasks.iter_mut().enumerate() {
        let first = task.resume(Go::Run { horizon: (0, 0) });
        out.settle(&mut heap, tile, first);
    }
    while let Some(Reverse((at, tile))) = heap.pop() {
        out.stats.events += 1;
        let go = if out.panic.is_some() {
            // The parked task panics out of its yield point.
            Go::Abort
        } else {
            out.stats.handoffs += 1;
            Go::Run { horizon: heap.peek().map_or(HORIZON_NONE, |&Reverse(e)| e) }
        };
        let next = tasks[tile].resume(go);
        if let TaskYield::Ready { at: next } = next {
            debug_assert!(next >= at, "tile {tile} scheduled backwards: {next} < {at}");
        }
        out.settle(&mut heap, tile, next);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coro;
    use std::cell::RefCell;

    type Log = RefCell<Vec<(u64, usize)>>;

    /// Tile `tile` acting `n` times, `period` cycles apart from `start`,
    /// logging each action as it is granted.
    fn metronome(
        log: &Log,
        tile: usize,
        (start, period, n): (u64, u64, u64),
    ) -> Task<'_, Go, TaskYield> {
        coro::spawn(move |suspender, first| {
            let mut port = TaskPort::new(suspender, first, tile);
            for at in (0..n).map(|k| start + k * period) {
                port.ensure_turn(at, tile);
                log.borrow_mut().push((at, tile));
            }
            TaskYield::Finished(Box::new(Ok(TileResult { clock: start, ..Default::default() })))
        })
    }

    /// Actions are granted in global `(time, tile)` order, ties to the
    /// lower tile, and every task hands its result back.
    #[test]
    fn heap_orders_events_by_time_then_id() {
        let log = Log::default();
        let mut tasks: Vec<_> = [(0, 7, 4), (3, 5, 4), (0, 7, 4)]
            .into_iter()
            .enumerate()
            .map(|(tile, beat)| metronome(&log, tile, beat))
            .collect();
        let out = run(&mut tasks);
        let granted = log.take();
        assert_eq!(granted.len(), 12);
        // Tiles 0 and 2 are identical metronomes: the tile breaks ties,
        // so the order is strict.
        assert!(granted.windows(2).all(|w| w[0] < w[1]), "not in (time, tile) order: {granted:?}");
        // A resume grants at least one action; the horizon elides the rest.
        assert!(out.stats.events <= 12 && out.stats.handoffs == out.stats.events);
        assert_eq!(out.stats.peak_queue, 3);
        let clocks: Vec<u64> = out.results.iter().map(|r| r.as_ref().unwrap().clock).collect();
        assert_eq!(clocks, [0, 3, 0]);
        assert!(out.panic.is_none());
    }

    /// A task with nothing to do finishes in the start-up round: it
    /// never enters the heap, and the other runs under no horizon.
    #[test]
    fn retired_components_leave_the_schedule() {
        let log = Log::default();
        let mut tasks = vec![metronome(&log, 0, (0, 1, 2)), metronome(&log, 1, (10, 1, 0))];
        let out = run(&mut tasks);
        assert_eq!(log.take(), [(0, 0), (1, 0)]);
        assert_eq!(out.stats, EngineStats { events: 1, handoffs: 1, peak_queue: 1 });
        assert!(out.results.iter().all(Option::is_some));
    }
}
