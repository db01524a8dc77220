//! Processes: the active objects of a simulation.
//!
//! A [`Process`] is resumed by the kernel and runs until it yields an
//! [`Activation`] describing what it wants to wait for. This small-step style
//! (rather than coroutines) is what lets instruction-level CPU models and
//! statement-level derived software models plug in directly: each `resume`
//! executes one instruction or one statement and then waits.

use std::fmt;

use crate::event::Event;
use crate::time::Duration;

/// A handle to a spawned process.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// Returns the raw index of this process in the kernel's process table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process#{}", self.0)
    }
}

/// What a process wants to do after a resume step.
#[derive(Clone, Debug)]
pub enum Activation {
    /// Suspend until the given event fires.
    WaitEvent(Event),
    /// Suspend until any of the given events fires.
    WaitAny(Vec<Event>),
    /// Suspend for a simulation-time span. A zero duration suspends until the
    /// next timed phase at the current time (after all pending delta cycles).
    WaitTime(Duration),
    /// Suspend until any event in the process's static sensitivity list
    /// fires (SystemC plain `wait()`).
    WaitStatic,
    /// The process is done and will never be resumed again.
    Terminate,
}

/// An active simulation object, resumed by the kernel.
///
/// Implementors run a bounded amount of work per [`resume`](Process::resume)
/// call and then return an [`Activation`]. All interaction with the kernel
/// (event notification, time queries, stop requests) goes through the
/// [`ProcessContext`].
///
/// # Examples
///
/// A process that fires an event three times, once per tick:
///
/// ```
/// use sctc_sim::{Activation, Duration, Event, Process, ProcessContext, Simulation};
///
/// struct Pulser {
///     event: Event,
///     remaining: u32,
/// }
///
/// impl Process for Pulser {
///     fn resume(&mut self, ctx: &mut ProcessContext<'_>) -> Activation {
///         if self.remaining == 0 {
///             return Activation::Terminate;
///         }
///         self.remaining -= 1;
///         ctx.notify(self.event, sctc_sim::Notify::Delta);
///         Activation::WaitTime(Duration::from_ticks(1))
///     }
/// }
///
/// let mut sim = Simulation::new();
/// let e = sim.create_event("pulse");
/// sim.spawn("pulser", Box::new(Pulser { event: e, remaining: 3 }));
/// sim.run_to_completion().unwrap();
/// assert_eq!(sim.event_fire_count(e), 3);
/// ```
///
/// [`ProcessContext`]: crate::ProcessContext
pub trait Process {
    /// Runs one step of this process and reports what to wait for next.
    fn resume(&mut self, ctx: &mut crate::kernel::ProcessContext<'_>) -> Activation;
}

impl<F> Process for F
where
    F: FnMut(&mut crate::kernel::ProcessContext<'_>) -> Activation,
{
    fn resume(&mut self, ctx: &mut crate::kernel::ProcessContext<'_>) -> Activation {
        self(ctx)
    }
}

/// Scheduling state of a process, kernel-internal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum ProcState {
    /// In the runnable queue (or about to be resumed).
    Runnable,
    /// Waiting on one or more dynamic events.
    WaitingEvents,
    /// Waiting for a timed wake-up.
    WaitingTime,
    /// Waiting on static sensitivity.
    WaitingStatic,
    /// Finished; never resumed again.
    Terminated,
}

pub(crate) struct ProcSlot {
    pub(crate) name: String,
    pub(crate) body: Option<Box<dyn Process>>,
    pub(crate) state: ProcState,
    /// Events this process is statically sensitive to.
    pub(crate) static_sensitivity: Vec<Event>,
    /// Events this process is currently dynamically registered with, so the
    /// kernel can deregister after a `WaitAny` wake-up.
    pub(crate) dynamic_waits: Vec<Event>,
    pub(crate) resumes: u64,
}

impl fmt::Debug for ProcSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcSlot")
            .field("name", &self.name)
            .field("state", &self.state)
            .field("resumes", &self.resumes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_exposes_index() {
        assert_eq!(ProcessId(9).index(), 9);
        assert_eq!(ProcessId(9).to_string(), "process#9");
    }

    #[test]
    fn activation_is_cloneable() {
        let a = Activation::WaitAny(vec![Event(0), Event(1)]);
        match a.clone() {
            Activation::WaitAny(v) => assert_eq!(v.len(), 2),
            other => panic!("unexpected activation {other:?}"),
        }
    }
}
