//! Tile programs as resumable tasks: the control-transfer primitive under
//! the discrete-event engine, and the only `unsafe` code of the library
//! crates.
//!
//! A *task* is a closure that runs until it [`Suspender::suspend`]s,
//! handing a value to whoever [`Task::resume`]d it, and continues from
//! that point at the next `resume`. The whole API is three calls:
//!
//! * [`spawn`] creates a task (it does not run yet);
//! * [`Task::resume`] passes a message in and runs the task until it
//!   suspends or returns, and hands back the value it yielded;
//! * [`Suspender::suspend`] (task side) yields a value and parks until
//!   the next `resume`, whose message it returns.
//!
//! The message of the *first* `resume` arrives as the closure's second
//! argument; the closure's return value is the task's last yield.
//!
//! Each task runs on a stack of its own, and `resume`/`suspend` swap the
//! stack pointer in user space — about fifteen instructions, no kernel,
//! no other OS thread. Every task runs on the thread that calls
//! `resume`, and [`Task`] and [`Suspender`] are `!Send`/`!Sync`, so
//! nothing a task touches needs to be `Send` either.
//!
//! [`spawn`] takes the task's stack from the thread's pool of free
//! stacks, and dropping a task that never ran or has returned gives its
//! stack back, guard page and touched pages included. A new stack is
//! `mmap`'d only when the pool is empty, and the pool is unmapped when
//! the thread exits. A task dropped while parked mid-run keeps its stack
//! for good (see [`Task`]); that stack never enters the pool.
//!
//! The pool needs no size limit. Tasks are `!Send`, so a stack goes
//! back to the thread that took it. On one thread, let *live* be the
//! tasks spawned and not yet dropped, and *pooled* the stacks in the
//! pool. A spawn that pops and a drop that pushes each leave
//! live + pooled unchanged, and a leaking drop lowers it. A spawn that
//! maps happens only with an empty pool, so afterwards live + pooled =
//! live. Hence the stacks a thread holds, live plus pooled, never exceed
//! the largest number of its tasks that were live at once. What stays
//! resident until the thread exits is the pages tasks touched on those
//! stacks, not the 1 MiB each reserves.
//!
//! The stack switch is written for x86-64 Unix (System V ABI) and there
//! is no other implementation; the `compile_error!` below says what a
//! port supplies.

#[cfg(not(all(target_arch = "x86_64", unix)))]
compile_error!(
    "pmc-soc-sim runs tile programs as stackful coroutines and has a context switch for \
     x86-64 Unix only. A port supplies, in coro.rs: (1) `switch`, saving and restoring the \
     target ABI's callee-saved set (rbx rbp r12-r15 + rsp here; x19-x30 sp d8-d15 on \
     aarch64); (2) the initial frame `spawn` builds so that the first `switch` into a task \
     lands in `trampoline` with the entry function and its argument in callee-saved registers."
);

use std::cell::{Cell, RefCell};
use std::ffi::c_void;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// Stack size of one task. Tile programs are shallow closures over
/// heap-allocated state; stack pages are committed only when touched, so
/// a pooled stack costs its touched pages, not this size.
const TASK_STACK: usize = 1 << 20;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
#[cfg(any(target_os = "linux", target_os = "android"))]
const MAP_ANONYMOUS: i32 = 0x20;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
const MAP_ANONYMOUS: i32 = 0x1000;
/// `MAP_FAILED` is `(void *)-1`.
const MAP_FAILED: usize = usize::MAX;
/// x86-64 has one base page size.
const PAGE: usize = 4096;

/// Save the callee-saved registers and the stack pointer of the
/// running context in `*save`, then continue the context whose stack
/// pointer is `to`: pop its callee-saved registers and return into it.
/// (MXCSR and the x87 control word are callee-saved too; nothing here
/// changes them, so they are shared rather than switched.)
///
/// # Safety
///
/// `save` must be valid for a write. `to` must be a stack pointer
/// stored by an earlier `switch` whose context has not been continued
/// since, or the initial frame built by [`spawn`]; its stack must
/// still be mapped, and nothing else may be running on it.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where the first `switch` into a task "returns" to: call the entry
/// function held in `rbx` with the argument held in `r12` (both
/// popped from the initial frame). The return address is declared
/// undefined so that backtraces and unwinders stop here.
///
/// # Safety
///
/// Only reachable through the initial frame built by [`spawn`].
#[unsafe(naked)]
unsafe extern "C" fn trampoline() {
    std::arch::naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".cfi_endproc",
    )
}

/// An `mmap`'d task stack: one `PROT_NONE` guard page, then
/// [`TASK_STACK`] usable bytes growing down towards it. The guard page
/// is protected once, when the stack is mapped, and stays so until it is
/// unmapped.
struct Stack {
    base: *mut u8,
}

thread_local! {
    /// This thread's free task stacks; see the module doc for its bound.
    static POOL: Pool = const { Pool(RefCell::new(Vec::new())) };
}

/// Stacks on which no frame runs again, ready for the next [`spawn`].
struct Pool(RefCell<Vec<Stack>>);

impl Drop for Pool {
    /// Runs at thread exit, as the thread-local's destructor.
    fn drop(&mut self) {
        for stack in self.0.get_mut().iter() {
            // SAFETY: only `release` puts a stack here, and its caller
            // promised that no frame on it runs again and nothing points
            // into it; the pool is going away, so no `spawn` takes it out
            // again, and each stack is in the pool once.
            unsafe { stack.unmap() };
        }
    }
}

impl Stack {
    const LEN: usize = PAGE + TASK_STACK;

    /// A stack from this thread's pool, or a new mapping when the pool is
    /// empty (or already destroyed, at thread exit).
    fn new() -> Stack {
        let pooled = POOL.try_with(|pool| pool.0.borrow_mut().pop());
        pooled.ok().flatten().unwrap_or_else(Stack::map)
    }

    fn map() -> Stack {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing this program owns.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                Self::LEN,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base as usize != MAP_FAILED,
            "mmap of a task stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the first page of the mapping just created; nothing
        // has a reference into it.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert!(
            rc == 0,
            "mprotect of a stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        #[cfg(test)]
        tests::MAPS.with(|maps| maps.set(maps.get() + 1));
        Stack { base: base.cast() }
    }

    /// One past the highest usable byte (page- hence 16-aligned).
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(Self::LEN)
    }

    /// Give the stack to this thread's pool, or unmap it when the pool is
    /// already destroyed (a task dropped by another thread-local's
    /// destructor at thread exit).
    ///
    /// # Safety
    ///
    /// No frame on this stack may ever run again, nothing may point
    /// into it, and it must not be released twice.
    unsafe fn release(&self) {
        let stack = Stack { base: self.base };
        if POOL.try_with(move |pool| pool.0.borrow_mut().push(stack)).is_err() {
            // SAFETY: the caller's obligation; the pool did not take the
            // stack, so this is its only release.
            unsafe { self.unmap() };
        }
    }

    /// # Safety
    ///
    /// No frame on this stack may ever run again, nothing may point
    /// into it, and it must not be unmapped twice.
    unsafe fn unmap(&self) {
        // SAFETY: exactly the mapping made in `map`; the rest is the
        // caller's obligation.
        let rc = unsafe { munmap(self.base.cast(), Self::LEN) };
        debug_assert_eq!(rc, 0, "munmap of a task stack failed");
        #[cfg(test)]
        tests::UNMAPS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Spawned, never resumed: the stack holds only the initial frame.
    Fresh,
    /// Between a `resume` and the matching `suspend`/return.
    Running,
    /// Parked in `suspend`: the stack holds live frames.
    Suspended,
    /// The closure returned; the stack holds nothing that runs again.
    Finished,
}

/// The task-side handle: yields to the resumer. It is the shared half
/// of the task's control block — mailboxes, the two saved stack
/// pointers and the state — and exists only behind the reference the
/// task's closure is called with.
pub(crate) struct Suspender<R, Y> {
    /// Resumer → task message of the current `resume`.
    go: Cell<Option<R>>,
    /// Task → resumer value of the current `suspend`/return.
    yielded: Cell<Option<Y>>,
    /// Where the task continues (valid while `Fresh`/`Suspended`).
    task_sp: Cell<*mut u8>,
    /// Where the resumer continues (valid while `Running`).
    resumer_sp: Cell<*mut u8>,
    state: Cell<State>,
}

type Body<'f, R, Y> = Box<dyn FnOnce(&Suspender<R, Y>, R) -> Y + 'f>;

struct Control<'f, R, Y> {
    port: Suspender<R, Y>,
    /// The task's closure until the first `resume` takes it.
    body: Cell<Option<Body<'f, R, Y>>>,
}

/// The resumer-side handle of a task. Dropping it while the task is
/// parked mid-run leaks the task's stack and never pools it (and leaks
/// whatever its frames own): a stack with live frames is never freed or
/// reused, and there is no thread to unwind it on.
pub(crate) struct Task<'f, R, Y> {
    ctl: Rc<Control<'f, R, Y>>,
    stack: Stack,
}

/// Create a task that will run `f` on its own stack, on the thread
/// that resumes it.
pub(crate) fn spawn<'f, R, Y, F>(f: F) -> Task<'f, R, Y>
where
    F: FnOnce(&Suspender<R, Y>, R) -> Y + 'f,
{
    let stack = Stack::new();
    let ctl = Rc::new(Control {
        port: Suspender {
            go: Cell::new(None),
            yielded: Cell::new(None),
            task_sp: Cell::new(std::ptr::null_mut()),
            resumer_sp: Cell::new(std::ptr::null_mut()),
            state: Cell::new(State::Fresh),
        },
        body: Cell::new(Some(Box::new(f))),
    });
    // The frame `switch` pops on the first resume, low to high: r15,
    // r14, r13, r12 = entry argument, rbx = entry function, rbp, and
    // the return address = trampoline. It ends 16 bytes below the top
    // so the trampoline starts with a 16-aligned stack pointer (as the
    // ABI wants before its `call`) and zeroed words above it.
    let entry: extern "C" fn(*const Control<'f, R, Y>) -> ! = entry::<R, Y>;
    let frame: [usize; 7] = [
        0,
        0,
        0,
        Rc::as_ptr(&ctl) as usize,
        entry as *const () as usize,
        0,
        trampoline as *const () as usize,
    ];
    let sp = stack.top().wrapping_sub(16 + std::mem::size_of_val(&frame));
    // SAFETY: `top - 16 - 56` is 8-aligned and the 56 bytes from there
    // lie inside the stack's read-write part, which nothing else
    // references: the stack is freshly mapped, or pooled by `release`,
    // whose caller guaranteed that no frame on it runs again.
    unsafe { sp.cast::<[usize; 7]>().write(frame) };
    ctl.port.task_sp.set(sp);
    Task { ctl, stack }
}

/// First function on a task's stack.
extern "C" fn entry<R, Y>(ctl: *const Control<'_, R, Y>) -> ! {
    // SAFETY: `ctl` is the `Rc::as_ptr` that `spawn` put in the
    // initial frame. This function runs only inside `Task::resume`,
    // which borrows the `Task` and with it a strong reference, and
    // all access to the control block is through shared references to
    // `Cell`s on one thread.
    let ctl = unsafe { &*ctl };
    let port = &ctl.port;
    let body = ctl.body.take().expect("a task starts once");
    let first = port.go.take().expect("resume posts a message before switching");
    // Nothing may unwind into the trampoline. Tile programs run under
    // their own `catch_unwind`; a panic that still gets here has no
    // frame to go to.
    match catch_unwind(AssertUnwindSafe(|| body(port, first))) {
        Ok(last) => port.yielded.set(Some(last)),
        Err(_) => std::process::abort(),
    }
    port.state.set(State::Finished);
    // SAFETY: the state was `Running`, so `resumer_sp` is the context
    // `resume` saved when it switched here and is parked on. Every
    // local that owns anything has been consumed above, so it is sound
    // for this frame never to continue.
    unsafe { switch(port.task_sp.as_ptr(), port.resumer_sp.get()) };
    // A finished task is never resumed (`resume` checks the state).
    std::process::abort()
}

impl<R, Y> Task<'_, R, Y> {
    /// Run the task until it suspends or returns, delivering `msg` to
    /// it; returns the value it yielded (its return value, for the
    /// last time). Panics when the task has already returned.
    pub(crate) fn resume(&mut self, msg: R) -> Y {
        let port = &self.ctl.port;
        assert!(
            matches!(port.state.get(), State::Fresh | State::Suspended),
            "resume of a {:?} task",
            port.state.get()
        );
        port.go.set(Some(msg));
        port.state.set(State::Running);
        // SAFETY: in the states checked above `task_sp` is the initial
        // frame or the context saved by the task's last `suspend`, on
        // a stack that stays mapped for as long as `self` lives, and
        // the task is not running. `resumer_sp` is a live `Cell`.
        unsafe { switch(port.resumer_sp.as_ptr(), port.task_sp.get()) };
        port.yielded.take().expect("a task posts a value before switching back")
    }
}

impl<R, Y> Suspender<R, Y> {
    /// Yield `value` to the resumer and park until the next `resume`;
    /// returns that resume's message.
    ///
    /// Must not be called while the thread is panicking: all tasks
    /// share the thread's panic count, so a task that yields
    /// mid-unwind would make every other task look like it is
    /// unwinding (scope guards skip their exit while panicking).
    pub(crate) fn suspend(&self, value: Y) -> R {
        assert!(!std::thread::panicking(), "a task must not suspend while it unwinds");
        assert_eq!(self.state.get(), State::Running, "suspend outside the running task");
        self.yielded.set(Some(value));
        self.state.set(State::Suspended);
        // SAFETY: the state is `Running`, so `resumer_sp` is the context
        // the matching `resume` saved and is still parked on — on this
        // thread: neither handle is `Send` or `Sync`. `task_sp` is a
        // live `Cell`.
        unsafe { switch(self.task_sp.as_ptr(), self.resumer_sp.get()) };
        self.go.take().expect("resume posts a message before switching")
    }
}

impl<R, Y> Drop for Task<'_, R, Y> {
    fn drop(&mut self) {
        match self.ctl.port.state.get() {
            // SAFETY: never started or returned — no frame on the
            // stack runs again, the only pointers into it were the
            // saved stack pointers, and `drop` runs once.
            State::Fresh | State::Finished => unsafe { self.stack.release() },
            // Live frames: leak the stack, unpooled, and the control
            // block those frames point to with it.
            State::Suspended | State::Running => std::mem::forget(Rc::clone(&self.ctl)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    thread_local! {
        /// Stacks this thread has mapped.
        pub(super) static MAPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Stacks unmapped by any thread. It only grows, so tests running in
    /// parallel can raise it but never make it miss a count.
    pub(super) static UNMAPS: AtomicUsize = AtomicUsize::new(0);

    /// Sets its flag when dropped: tells whether the frames of a task
    /// were unwound.
    struct Flag<'a>(&'a Cell<bool>);
    impl Drop for Flag<'_> {
        fn drop(&mut self) {
            self.0.set(true);
        }
    }

    /// The three-call API.
    mod stackful {
        use super::super::{spawn, PAGE};
        use super::{Flag, MAPS};
        use crate::engine::{Go, TaskYield};
        use std::cell::Cell;
        use std::hint::black_box;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Locals of the task — on its stack and on the heap — survive
        /// 10⁵ suspend/resume round-trips, and messages travel both ways
        /// each time.
        #[test]
        fn locals_survive_round_trips() {
            const ROUNDS: u64 = 100_000;
            let mut task = spawn(|port, first: u64| {
                let mut sum = first;
                let mut log = vec![first];
                for i in 0..ROUNDS {
                    let msg = port.suspend(sum);
                    assert_eq!(msg, i + 1);
                    sum += msg;
                    log.push(msg);
                }
                assert_eq!(log.len() as u64, ROUNDS + 1);
                sum + 1
            });
            let mut expect = 7;
            assert_eq!(task.resume(7), expect);
            for i in 1..ROUNDS {
                expect += i;
                assert_eq!(task.resume(i), expect);
            }
            assert_eq!(task.resume(ROUNDS), expect + ROUNDS + 1);
        }

        /// A panic the body catches (as every tile body does) ends the
        /// task normally: its return value is the last yield, and
        /// resuming it again is an error.
        #[test]
        fn a_caught_panic_finishes_the_task() {
            let mut task = spawn(|port, first: u32| {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let again = port.suspend(first + 1);
                    panic!("boom {again}");
                }));
                if caught.is_err() {
                    99
                } else {
                    0
                }
            });
            assert_eq!(task.resume(1), 2);
            assert_eq!(task.resume(5), 99);
            let again = catch_unwind(AssertUnwindSafe(|| task.resume(0)));
            assert!(again.is_err(), "a finished task cannot be resumed");
        }

        /// 64 KiB of frames fit the task stack, and the task can park at
        /// the bottom of them.
        #[test]
        fn deep_recursion_fits_the_stack() {
            fn descend(depth: u32, park: &dyn Fn(u64) -> u64) -> u64 {
                let mut frame = [0u8; 1024];
                frame[depth as usize] = depth as u8;
                let frame = black_box(frame);
                let below = if depth == 0 { park(1) } else { descend(depth - 1, park) };
                below + frame[depth as usize] as u64
            }
            let mut task = spawn(|port, _first: u64| descend(64, &|v| port.suspend(v)));
            assert_eq!(task.resume(0), 1);
            assert_eq!(task.resume(1000), 1000 + (0..=64).sum::<u64>());
        }

        /// Selects the case [`overflow_child`] runs; unset, it does nothing.
        const OVERFLOW_CASE: &str = "PMC_CORO_OVERFLOW_CASE";

        /// Recursion on a task stack that reaches into the guard page dies
        /// of `SIGSEGV` there, on the thread's first, freshly mapped stack
        /// and on a pooled one. The recursion has no depth bound; it stops
        /// only half-way into the guard page, so a stack whose guard page
        /// were writable would return instead of faulting. Each case
        /// re-runs this test binary, filtered to [`overflow_child`].
        #[test]
        fn an_overflow_faults_on_the_guard_page() {
            use std::os::unix::process::ExitStatusExt;
            let (_crate, module) = module_path!().split_once("::").expect("a path inside a crate");
            for case in ["fresh", "pooled"] {
                let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
                    .args(["--exact", &format!("{module}::overflow_child")])
                    .env(OVERFLOW_CASE, case)
                    .output()
                    .expect("re-run the test binary");
                assert_eq!(
                    out.status.signal(),
                    Some(11),
                    "{case} stack: the child ended with {}\nstdout:\n{}\nstderr:\n{}",
                    out.status,
                    String::from_utf8_lossy(&out.stdout),
                    String::from_utf8_lossy(&out.stderr)
                );
            }
        }

        /// The child side of [`an_overflow_faults_on_the_guard_page`].
        #[test]
        fn overflow_child() {
            /// Recurse until a frame lies at or below `floor`.
            fn descend(floor: usize) -> usize {
                let frame = black_box([0u8; 256]);
                if frame.as_ptr() as usize <= floor {
                    return 0;
                }
                descend(floor) + frame[0] as usize
            }
            let Ok(case) = std::env::var(OVERFLOW_CASE) else { return };
            let maps = MAPS.with(Cell::get);
            let mut task = match case.as_str() {
                "fresh" => {
                    let task = spawn(|_port, floor: usize| descend(floor));
                    assert_eq!(MAPS.with(Cell::get), maps + 1, "the first task maps its stack");
                    task
                }
                "pooled" => {
                    let mut done = spawn(|_port, first: usize| first);
                    let base = done.stack.base;
                    assert_eq!(done.resume(7), 7);
                    drop(done);
                    let task = spawn(|_port, floor: usize| descend(floor));
                    assert_eq!(task.stack.base, base, "a finished task's stack is reused");
                    assert_eq!(MAPS.with(Cell::get), maps + 1, "only the first task maps");
                    task
                }
                other => panic!("unknown {OVERFLOW_CASE} {other:?}"),
            };
            task.resume(task.stack.base as usize + PAGE / 2);
            panic!("the recursion wrote into the guard page");
        }

        /// Dropping the handle of a parked task does not crash, and a
        /// task that was never resumed never runs.
        #[test]
        fn dropping_an_unfinished_task_is_harmless() {
            let ran = Cell::new(false);
            let mut parked = spawn(|port, first: u32| {
                port.suspend(first);
                0
            });
            assert_eq!(parked.resume(3), 3);
            drop(parked);
            let fresh = spawn(|_port, first: u32| {
                ran.set(true);
                first
            });
            drop(fresh);
            assert!(!ran.get());
        }

        /// The engine's abort protocol: `Go::Abort` delivered to a parked
        /// task makes it panic out of its yield point, and the unwind
        /// runs the destructors on the task's stack.
        #[test]
        fn abort_unwinds_a_parked_task() {
            let unwound = Cell::new(false);
            let mut task = spawn(|port, _first: Go| {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    let _on_stack = Flag(&unwound);
                    match port.suspend(TaskYield::Ready { at: 5 }) {
                        Go::Run { .. } => {}
                        Go::Abort => panic!("aborted"),
                    }
                }));
                TaskYield::Finished(Box::new(caught.map(|()| Default::default())))
            });
            let first = task.resume(Go::Run { horizon: (0, 0) });
            assert!(matches!(first, TaskYield::Ready { at: 5 }));
            assert!(!unwound.get());
            let last = task.resume(Go::Abort);
            assert!(matches!(last, TaskYield::Finished(result) if result.is_err()));
            assert!(unwound.get());
        }
    }

    /// What a stack switch implies that the API does not say: a task
    /// dropped while parked keeps its stack — frames intact, destructors
    /// not run, and the stack never handed to a later task. (That tasks
    /// run on the resumer's thread is asserted end to end by
    /// `tests/engine.rs`.)
    mod stackful_only {
        use super::super::spawn;
        use super::Flag;
        use std::cell::Cell;

        #[test]
        fn a_dropped_parked_task_keeps_its_stack() {
            const PATTERN: [u64; 4] = [0xA5A5_A5A5, 1, 2, 0x5A5A_5A5A];
            let unwound = Cell::new(false);
            let mut task = spawn(|port, _first: ()| {
                let _on_stack = Flag(&unwound);
                let local = std::hint::black_box(PATTERN);
                port.suspend(local.as_ptr() as usize);
                local.len()
            });
            let leaked = task.stack.base;
            let addr = task.resume(());
            drop(task);
            for i in 0..16 {
                let mut later = spawn(|_port, first: usize| first);
                assert_ne!(later.stack.base, leaked, "task {i} got the leaked stack");
                assert_eq!(later.resume(i), i);
            }
            // SAFETY: the task was parked when its handle was dropped, so
            // its stack was leaked, not unmapped, and the frame holding
            // `local` can never run again to change it.
            let seen = unsafe { std::ptr::read_volatile(addr as *const [u64; 4]) };
            assert_eq!(seen, PATTERN);
            assert!(!unwound.get(), "a leaked task's frames are not unwound");
        }
    }

    /// The thread's stack pool: bounded by the peak number of live tasks,
    /// and unmapped at thread exit.
    mod pool {
        use super::super::{spawn, POOL};
        use super::{MAPS, UNMAPS};
        use std::cell::Cell;
        use std::sync::atomic::Ordering::Relaxed;

        /// Batches of 8, 3, 8 and 1 tasks, each batch live at once and
        /// parked mid-run before it finishes: the first batch maps at most
        /// 8 stacks and the later ones map none.
        #[test]
        fn mappings_stay_within_the_live_peak() {
            let before = MAPS.with(Cell::get);
            let mut after_first = None;
            for batch in [8, 3, 8, 1] {
                let mut tasks: Vec<_> = (0..batch)
                    .map(|_| spawn(|port, first: usize| port.suspend(first) + 1))
                    .collect();
                for (i, task) in tasks.iter_mut().enumerate() {
                    assert_eq!(task.resume(i), i);
                }
                for (i, task) in tasks.iter_mut().enumerate() {
                    assert_eq!(task.resume(i), i + 1);
                }
                drop(tasks);
                let maps = MAPS.with(Cell::get);
                match after_first {
                    None => {
                        assert!(maps - before <= batch, "{} maps for {batch} tasks", maps - before);
                        after_first = Some(maps);
                    }
                    Some(peak) => assert_eq!(maps, peak, "a batch of {batch} mapped a stack"),
                }
            }
        }

        /// A thread that finishes N tasks holds N pooled stacks, and
        /// unmaps them when it exits.
        #[test]
        fn thread_exit_unmaps_the_pool() {
            const N: usize = 6;
            let before = UNMAPS.load(Relaxed);
            std::thread::spawn(|| {
                let mut tasks: Vec<_> =
                    (0..N).map(|_| spawn(|_port, first: usize| first)).collect();
                for (i, task) in tasks.iter_mut().enumerate() {
                    assert_eq!(task.resume(i), i);
                }
                drop(tasks);
                assert_eq!(POOL.with(|pool| pool.0.borrow().len()), N);
            })
            .join()
            .expect("the thread runs its tasks");
            let unmapped = UNMAPS.load(Relaxed) - before;
            assert!(
                unmapped >= N,
                "{unmapped} stacks unmapped at the exit of a thread pooling {N}"
            );
        }
    }
}
