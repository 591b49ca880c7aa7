//! # chimera-kernel
//!
//! The simulated operating-system runtime of the Chimera reproduction:
//! trap routing and passive fault handling ([`KernelRunner`]), the
//! multi-view process model ([`Process`], MMViews), signal delivery with
//! `gp` restoration, ISAX-aware work-stealing scheduling with task
//! migration ([`run_work_stealing`]: a deterministic event loop in cycle
//! time whose every dispatch runs the guest), and the
//! many-hart event kernel ([`ManyHartKernel`]): N guest harts as
//! cooperative fibers over M logical host workers, scheduled in
//! deterministic logical time so results are bit-identical at every
//! worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod many;
mod pool;
mod process;
mod runtime;
mod sched;

pub use event::{EventQueue, HartEvent, HartEventKind};
pub use many::{HartReport, ManyHartConfig, ManyHartKernel, ManyHartResult};
pub use pool::ProcessPool;
pub use process::{Process, Variant, LAZY_SLACK};
pub use runtime::{
    FaultCounters, HartCall, KernelRunner, RunOutcome, RuntimeTables, TrapDisposition,
    SIGRETURN_ADDR,
};
pub use sched::{
    run_work_stealing, CoreClass, FiberPool, Machine, SchedError, SchedResult, Task, TaskReport,
};
// Re-exported so kernel users can construct tracers without a separate
// chimera-trace dependency line.
pub use chimera_trace::{TraceEvent, Tracer};
