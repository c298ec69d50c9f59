//! Operations of the PMC memory model (paper Section IV-B).
//!
//! The model defines five operations a process can issue on a shared
//! location: `read`, `write`, `acquire`, `release` and `fence`. In addition,
//! every location carries an *initial* operation that behaves like both a
//! write and a release (paper Definition 3), so that reads and acquires
//! always have a predecessor.

use std::fmt;

/// Identifier of a process (paper: element of `P`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u16);

/// Identifier of a shared location (paper: element of `V`).
///
/// The model treats locations as indivisible (byte-sized) cells; the
/// runtime layer maps multi-byte objects onto spans of locations and takes
/// care of locking (paper Section V-A, last paragraphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

/// Identifier of an issued operation (index into [`Execution`] storage).
///
/// [`Execution`]: crate::execution::Execution
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl OpId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Value written by a write (or returned by a read). The model itself is
/// value-agnostic; `u32` is convenient for litmus tests.
pub type Value = u32;

/// The five operation kinds of the PMC model, plus the per-location
/// initial operation of Definition 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Retrieves the value of a previously executed write (paper `r`).
    Read,
    /// Replaces the value of a location; not necessarily immediately
    /// visible to all processes (paper `w`).
    Write,
    /// Obtains an exclusive lock on a location (paper `A`). Must be
    /// followed by a release of the same process; mutual exclusion between
    /// acquire and release is guaranteed by the platform.
    Acquire,
    /// Gives up the exclusive lock on a location (paper `R`).
    Release,
    /// Adds ordering dependencies to locally executed operations on *all*
    /// locations of the issuing process (paper `F`).
    Fence,
    /// The initial operation every location carries; behaves like a write
    /// *and* a release (paper Definition 3), issued by the pseudo-process
    /// "all" (paper ♦).
    Init,
    /// Extension beyond the paper's five operations: marks the *program
    /// point* at which a process hands an asynchronous bulk (DMA)
    /// transfer of a location to the platform. The data movement itself
    /// is modelled by ordinary `Read`/`Write` operations floating between
    /// the issue and the matching [`OpKind::DmaComplete`]; the markers
    /// carry only *local* ordering (they pin the transfer window for the
    /// issuing process and are invisible to every other process).
    DmaIssue,
    /// The point at which the issuing process *observes* completion of
    /// outstanding DMA transfers on a location (`dma_wait` in the
    /// runtime). Like [`OpKind::DmaIssue`], purely locally ordered.
    DmaComplete,
}

impl OpKind {
    /// Whether this kind matches the write pattern `(w, ·, ·, ·)`.
    /// `Init` behaves like a write (Definition 3).
    #[inline]
    pub fn is_write_like(self) -> bool {
        matches!(self, OpKind::Write | OpKind::Init)
    }

    /// Short symbol used in the paper's Table I.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            OpKind::Read => "r",
            OpKind::Write => "w",
            OpKind::Acquire => "A",
            OpKind::Release => "R",
            OpKind::Fence => "F",
            OpKind::Init => "init",
            OpKind::DmaIssue => "dI",
            OpKind::DmaComplete => "dC",
        }
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An issued operation (paper: element of `O`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    /// Issuing process. For `Init` this is a pseudo-process equivalent to
    /// all processes; see `Op::issued_by`.
    pub proc: ProcId,
    /// Location operated on. `Fence` operations apply to all locations of
    /// the process; by convention their `loc` is `LocId(u32::MAX)` and must
    /// not be interpreted.
    pub loc: LocId,
    /// Value written (writes / init) or read (reads). Unused for
    /// acquire/release/fence.
    pub value: Value,
}

/// Pseudo process-id for the initial operations: behaves as if issued by
/// every process at once (paper's ♦ in Definition 3).
pub(crate) const PROC_ALL: ProcId = ProcId(u16::MAX);

/// Pseudo location-id for fences, which span all locations of a process.
pub(crate) const LOC_ALL: LocId = LocId(u32::MAX);

impl Op {
    pub(crate) fn read(p: ProcId, v: LocId) -> Self {
        Op { kind: OpKind::Read, proc: p, loc: v, value: 0 }
    }
    pub(crate) fn write(p: ProcId, v: LocId, value: Value) -> Self {
        Op { kind: OpKind::Write, proc: p, loc: v, value }
    }
    pub(crate) fn acquire(p: ProcId, v: LocId) -> Self {
        Op { kind: OpKind::Acquire, proc: p, loc: v, value: 0 }
    }
    pub(crate) fn release(p: ProcId, v: LocId) -> Self {
        Op { kind: OpKind::Release, proc: p, loc: v, value: 0 }
    }
    pub(crate) fn fence(p: ProcId) -> Self {
        Op { kind: OpKind::Fence, proc: p, loc: LOC_ALL, value: 0 }
    }
    pub(crate) fn init(v: LocId, value: Value) -> Self {
        Op { kind: OpKind::Init, proc: PROC_ALL, loc: v, value }
    }
    pub(crate) fn dma_issue(p: ProcId, v: LocId) -> Self {
        Op { kind: OpKind::DmaIssue, proc: p, loc: v, value: 0 }
    }
    pub(crate) fn dma_complete(p: ProcId, v: LocId) -> Self {
        Op { kind: OpKind::DmaComplete, proc: p, loc: v, value: 0 }
    }

    /// Whether this operation counts as issued by process `p`.
    /// Initial operations are issued by every process (Definition 3).
    #[inline]
    pub(crate) fn issued_by(&self, p: ProcId) -> bool {
        self.proc == p || self.proc == PROC_ALL
    }

    /// Whether this operation targets location `v`. Fences span all
    /// locations of their process.
    #[inline]
    pub(crate) fn on_loc(&self, v: LocId) -> bool {
        self.loc == v
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            OpKind::Read => write!(f, "r(p{}, v{})={}", self.proc.0, self.loc.0, self.value),
            OpKind::Write => write!(f, "w(p{}, v{})={}", self.proc.0, self.loc.0, self.value),
            OpKind::Acquire => write!(f, "A(p{}, v{})", self.proc.0, self.loc.0),
            OpKind::Release => write!(f, "R(p{}, v{})", self.proc.0, self.loc.0),
            OpKind::Fence => write!(f, "F(p{})", self.proc.0),
            OpKind::Init => write!(f, "init(v{})={}", self.loc.0, self.value),
            OpKind::DmaIssue => write!(f, "dI(p{}, v{})", self.proc.0, self.loc.0),
            OpKind::DmaComplete => write!(f, "dC(p{}, v{})", self.proc.0, self.loc.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_issued_by_every_process() {
        let init = Op::init(LocId(0), 7);
        assert!(init.issued_by(ProcId(0)));
        assert!(init.issued_by(ProcId(31)));
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(Op::write(ProcId(1), LocId(2), 42).to_string(), "w(p1, v2)=42");
        assert_eq!(Op::fence(ProcId(3)).to_string(), "F(p3)");
        assert_eq!(Op::acquire(ProcId(0), LocId(9)).to_string(), "A(p0, v9)");
    }
}
