//! The discrete-event simulation kernel.
//!
//! The scheduler follows SystemC's evaluate/notify structure:
//!
//! 1. **Evaluate** — resume every runnable process. Immediate notifications
//!    wake processes within the same phase.
//! 2. **Delta notify** — fire delta-notified events; woken processes run in
//!    the next delta cycle at the same simulation time.
//! 3. When no delta work remains, advance to the earliest timed notification.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::event::{Event, EventRecord, Notify};
use crate::process::{Activation, ProcSlot, ProcState, Process, ProcessId};
use crate::time::{Duration, SimTime};

/// Why a [`Simulation::run`] call returned.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunOutcome {
    /// No runnable processes and no pending notifications remain.
    Quiescent,
    /// The time limit passed to `run` was reached.
    TimeLimit,
    /// A process requested a simulation stop via [`ProcessContext::stop`].
    Stopped,
}

/// An error raised by the kernel while running.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RunError {
    /// More delta cycles elapsed at one time point than the configured limit;
    /// almost always a zero-delay feedback loop in the model.
    DeltaLimitExceeded {
        /// Time point at which the loop was detected.
        at: SimTime,
        /// The configured limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::DeltaLimitExceeded { at, limit } => write!(
                f,
                "delta-cycle limit of {limit} exceeded at {at}; model likely has a zero-delay loop"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Aggregate kernel statistics, available via [`Simulation::stats`].
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct KernelStats {
    /// Total process resumes performed.
    pub resumes: u64,
    /// Total delta cycles executed.
    pub delta_cycles: u64,
    /// Total events fired.
    pub events_fired: u64,
    /// Total timed-wheel advances.
    pub time_advances: u64,
}

impl KernelStats {
    /// Sums another kernel's statistics into this one. Campaign runners use
    /// this to aggregate the independent per-shard kernels into one set of
    /// campaign-wide scheduler counters.
    pub fn merge(&mut self, other: &KernelStats) {
        self.resumes += other.resumes;
        self.delta_cycles += other.delta_cycles;
        self.events_fired += other.events_fired;
        self.time_advances += other.time_advances;
    }
}

/// The simulation kernel: owns events, processes and the scheduler.
///
/// # Examples
///
/// ```
/// use sctc_sim::{Duration, Simulation};
///
/// let mut sim = Simulation::new();
/// let clk = sim.create_clock("clk", Duration::from_ticks(10));
/// sim.run_for(Duration::from_ticks(95)).unwrap();
/// // Posedges at t = 0, 10, ..., 90.
/// assert_eq!(sim.event_fire_count(clk.posedge()), 10);
/// ```
pub struct Simulation {
    now: SimTime,
    events: Vec<EventRecord>,
    procs: Vec<ProcSlot>,
    runnable: VecDeque<ProcessId>,
    delta_notified: Vec<Event>,
    /// Spare waiter list swapped in by `fire_event` (always empty here).
    wake_scratch: Vec<ProcessId>,
    timed_events: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    timed_procs: BinaryHeap<Reverse<(SimTime, u64, ProcessId)>>,
    seq: u64,
    stop_requested: bool,
    delta_limit: u64,
    stats: KernelStats,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            events: Vec::new(),
            procs: Vec::new(),
            runnable: VecDeque::new(),
            delta_notified: Vec::new(),
            wake_scratch: Vec::new(),
            timed_events: BinaryHeap::new(),
            timed_procs: BinaryHeap::new(),
            seq: 0,
            stop_requested: false,
            delta_limit: 1_000_000,
            stats: KernelStats::default(),
        }
    }

    /// Sets the per-time-point delta-cycle limit used to detect zero-delay
    /// loops. The default is one million.
    pub fn set_delta_limit(&mut self, limit: u64) {
        self.delta_limit = limit.max(1);
    }

    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns aggregate scheduler statistics.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    // ------------------------------------------------------------------
    // Construction of events and processes.
    // ------------------------------------------------------------------

    /// Creates a named event.
    pub fn create_event(&mut self, name: &str) -> Event {
        let id = Event(self.events.len() as u32);
        self.events.push(EventRecord {
            name: name.to_owned(),
            ..EventRecord::default()
        });
        id
    }

    /// Returns the name an event was created with.
    pub fn event_name(&self, event: Event) -> &str {
        &self.events[event.index()].name
    }

    /// Returns how many times an event has fired so far.
    pub fn event_fire_count(&self, event: Event) -> u64 {
        self.events[event.index()].fired
    }

    /// Spawns a process with no static sensitivity. The process is runnable
    /// in the first delta cycle.
    pub fn spawn(&mut self, name: &str, body: Box<dyn Process>) -> ProcessId {
        self.spawn_sensitive(name, body, Vec::new())
    }

    /// Spawns a process statically sensitive to the given events.
    ///
    /// The process is resumed once at simulation start (like an SystemC
    /// thread before its first `wait()`), then according to its activations.
    pub fn spawn_sensitive(
        &mut self,
        name: &str,
        body: Box<dyn Process>,
        static_sensitivity: Vec<Event>,
    ) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u32);
        for &event in &static_sensitivity {
            self.events[event.index()].static_sensitive.push(pid);
        }
        self.procs.push(ProcSlot {
            name: name.to_owned(),
            body: Some(body),
            state: ProcState::Runnable,
            static_sensitivity,
            dynamic_waits: Vec::new(),
            resumes: 0,
        });
        self.runnable.push_back(pid);
        pid
    }

    /// Spawns a process that is **not** resumed at simulation start
    /// (SystemC `dont_initialize()`): it first runs when one of its static
    /// sensitivity events fires.
    ///
    /// # Panics
    ///
    /// Panics if `static_sensitivity` is empty — the process could never
    /// run.
    pub fn spawn_deferred(
        &mut self,
        name: &str,
        body: Box<dyn Process>,
        static_sensitivity: Vec<Event>,
    ) -> ProcessId {
        assert!(
            !static_sensitivity.is_empty(),
            "a deferred process needs static sensitivity"
        );
        let pid = ProcessId(self.procs.len() as u32);
        for &event in &static_sensitivity {
            self.events[event.index()].static_sensitive.push(pid);
        }
        self.procs.push(ProcSlot {
            name: name.to_owned(),
            body: Some(body),
            state: ProcState::WaitingStatic,
            static_sensitivity,
            dynamic_waits: Vec::new(),
            resumes: 0,
        });
        pid
    }

    /// Returns the name a process was spawned with.
    pub fn process_name(&self, pid: ProcessId) -> &str {
        &self.procs[pid.index()].name
    }

    /// Returns how many times a process has been resumed.
    pub fn process_resume_count(&self, pid: ProcessId) -> u64 {
        self.procs[pid.index()].resumes
    }

    /// Returns `true` once a process has terminated.
    pub fn process_terminated(&self, pid: ProcessId) -> bool {
        self.procs[pid.index()].state == ProcState::Terminated
    }

    // ------------------------------------------------------------------
    // Notification plumbing.
    // ------------------------------------------------------------------

    /// Notifies an event from outside process context (testbench code).
    pub fn notify(&mut self, event: Event, kind: Notify) {
        match kind {
            Notify::Immediate => self.fire_event(event),
            Notify::Delta => self.delta_notified.push(event),
            Notify::After(d) => {
                let at = self.now.saturating_add(d);
                self.seq += 1;
                self.timed_events.push(Reverse((at, self.seq, event)));
            }
        }
    }

    fn fire_event(&mut self, event: Event) {
        let record = &mut self.events[event.index()];
        record.fired += 1;
        self.stats.events_fired += 1;
        // Swap the waiter list with the empty scratch buffer so both keep
        // their capacity: a warm kernel fires events without allocating.
        let mut waiters = std::mem::take(&mut self.wake_scratch);
        std::mem::swap(&mut waiters, &mut record.waiters);
        for &pid in &waiters {
            self.wake(pid);
        }
        waiters.clear();
        self.wake_scratch = waiters;
        // Waking only touches process slots, so the sensitivity list is
        // stable while it is walked.
        for i in 0..self.events[event.index()].static_sensitive.len() {
            let pid = self.events[event.index()].static_sensitive[i];
            if self.procs[pid.index()].state == ProcState::WaitingStatic {
                self.make_runnable(pid);
            }
        }
    }

    fn wake(&mut self, pid: ProcessId) {
        if self.procs[pid.index()].state != ProcState::WaitingEvents {
            return;
        }
        // Deregister from any other events of a WaitAny.
        for i in 0..self.procs[pid.index()].dynamic_waits.len() {
            let event = self.procs[pid.index()].dynamic_waits[i];
            self.events[event.index()].waiters.retain(|&p| p != pid);
        }
        self.procs[pid.index()].dynamic_waits.clear();
        self.make_runnable(pid);
    }

    fn make_runnable(&mut self, pid: ProcessId) {
        let slot = &mut self.procs[pid.index()];
        if slot.state == ProcState::Terminated || slot.state == ProcState::Runnable {
            return;
        }
        slot.state = ProcState::Runnable;
        self.runnable.push_back(pid);
    }

    // ------------------------------------------------------------------
    // Scheduler.
    // ------------------------------------------------------------------

    fn resume_process(&mut self, pid: ProcessId) {
        if self.procs[pid.index()].state != ProcState::Runnable {
            return;
        }
        let mut body = self.procs[pid.index()]
            .body
            .take()
            .expect("runnable process has no body");
        self.procs[pid.index()].resumes += 1;
        self.stats.resumes += 1;
        let activation = {
            let mut ctx = ProcessContext { sim: self, pid };
            body.resume(&mut ctx)
        };
        self.procs[pid.index()].body = Some(body);
        self.apply_activation(pid, activation);
    }

    fn apply_activation(&mut self, pid: ProcessId, activation: Activation) {
        let slot = &mut self.procs[pid.index()];
        match activation {
            Activation::WaitEvent(event) => {
                slot.state = ProcState::WaitingEvents;
                // `wake` empties the list before a waiting process runs.
                debug_assert!(slot.dynamic_waits.is_empty());
                slot.dynamic_waits.push(event);
                self.events[event.index()].waiters.push(pid);
            }
            Activation::WaitAny(events) => {
                if events.is_empty() {
                    // Nothing to wait for: treat as a terminated process
                    // rather than leaving it unreachable forever.
                    slot.state = ProcState::Terminated;
                    slot.body = None;
                    return;
                }
                slot.state = ProcState::WaitingEvents;
                for &event in &events {
                    self.events[event.index()].waiters.push(pid);
                }
                slot.dynamic_waits = events;
            }
            Activation::WaitTime(d) => {
                slot.state = ProcState::WaitingTime;
                let at = self.now.saturating_add(d);
                self.seq += 1;
                self.timed_procs.push(Reverse((at, self.seq, pid)));
            }
            Activation::WaitStatic => {
                if slot.static_sensitivity.is_empty() {
                    // No static sensitivity means a plain wait() can never
                    // complete; terminate instead of deadlocking silently.
                    slot.state = ProcState::Terminated;
                    slot.body = None;
                } else {
                    slot.state = ProcState::WaitingStatic;
                }
            }
            Activation::Terminate => {
                slot.state = ProcState::Terminated;
                slot.body = None;
            }
        }
    }

    /// Runs one delta cycle: evaluate, then delta-notify.
    /// Returns `true` if any process was resumed.
    fn delta_cycle(&mut self) -> bool {
        if self.runnable.is_empty() {
            return false;
        }
        self.stats.delta_cycles += 1;
        // Evaluate phase.
        while let Some(pid) = self.runnable.pop_front() {
            self.resume_process(pid);
            if self.stop_requested {
                break;
            }
        }
        // Delta-notification phase. Firing runs no process, so nothing
        // is appended while the list is walked; clearing keeps its
        // capacity for the next cycle.
        for i in 0..self.delta_notified.len() {
            self.fire_event(self.delta_notified[i]);
        }
        self.delta_notified.clear();
        true
    }

    /// Advances time to the earliest pending timed notification, firing all
    /// notifications scheduled for that instant. Returns `false` if no timed
    /// work is pending or it lies beyond `limit`.
    fn advance_time(&mut self, limit: SimTime) -> bool {
        let next_event = self.timed_events.peek().map(|Reverse((t, _, _))| *t);
        let next_proc = self.timed_procs.peek().map(|Reverse((t, _, _))| *t);
        let next = match (next_event, next_proc) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        if next > limit {
            return false;
        }
        self.now = next;
        self.stats.time_advances += 1;
        while matches!(self.timed_events.peek(), Some(Reverse((t, _, _))) if *t == next) {
            let Reverse((_, _, event)) = self.timed_events.pop().expect("peeked entry");
            self.fire_event(event);
        }
        while matches!(self.timed_procs.peek(), Some(Reverse((t, _, _))) if *t == next) {
            let Reverse((_, _, pid)) = self.timed_procs.pop().expect("peeked entry");
            if self.procs[pid.index()].state == ProcState::WaitingTime {
                self.make_runnable(pid);
            }
        }
        true
    }

    /// Runs until quiescent, stopped, or past `limit`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::DeltaLimitExceeded`] if a zero-delay loop keeps a
    /// single time point busy beyond the configured delta limit.
    pub fn run_until(&mut self, limit: SimTime) -> Result<RunOutcome, RunError> {
        self.stop_requested = false;
        loop {
            let mut deltas_here = 0u64;
            while self.delta_cycle() {
                if self.stop_requested {
                    return Ok(RunOutcome::Stopped);
                }
                deltas_here += 1;
                if deltas_here > self.delta_limit {
                    return Err(RunError::DeltaLimitExceeded {
                        at: self.now,
                        limit: self.delta_limit,
                    });
                }
            }
            if self.stop_requested {
                return Ok(RunOutcome::Stopped);
            }
            if !self.advance_time(limit) {
                let pending_beyond = !self.timed_events.is_empty() || !self.timed_procs.is_empty();
                return Ok(if pending_beyond {
                    RunOutcome::TimeLimit
                } else {
                    RunOutcome::Quiescent
                });
            }
        }
    }

    /// Runs for a span of simulation time from now.
    ///
    /// # Errors
    ///
    /// See [`Simulation::run_until`].
    pub fn run_for(&mut self, d: Duration) -> Result<RunOutcome, RunError> {
        // The limit is exclusive of the next instant: posedges exactly at
        // `now + d` belong to the next run call.
        self.run_until(self.now.saturating_add(d))
    }

    /// Runs until no work remains or a process stops the simulation.
    ///
    /// # Errors
    ///
    /// See [`Simulation::run_until`].
    pub fn run_to_completion(&mut self) -> Result<RunOutcome, RunError> {
        self.run_until(SimTime::MAX)
    }
}

impl fmt::Debug for Simulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("events", &self.events.len())
            .field("processes", &self.procs.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// The kernel interface available to a process during a resume step.
pub struct ProcessContext<'a> {
    // Fields are private; the context is only obtainable inside `resume`.
    sim: &'a mut Simulation,
    pid: ProcessId,
}

impl<'a> ProcessContext<'a> {
    /// Returns the current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// Returns the id of the running process.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Notifies an event.
    pub fn notify(&mut self, event: Event, kind: Notify) {
        self.sim.notify(event, kind);
    }

    /// Requests that the whole simulation stop at the end of this evaluate
    /// phase (SystemC `sc_stop`).
    pub fn stop(&mut self) {
        self.sim.stop_requested = true;
    }
}

impl fmt::Debug for ProcessContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessContext")
            .field("pid", &self.pid)
            .field("now", &self.sim.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Notify;

    /// Process that counts how many times it is resumed by a wait-any set.
    struct Counter {
        waits: Vec<Event>,
        count: u32,
        max: u32,
    }

    impl Process for Counter {
        fn resume(&mut self, _ctx: &mut ProcessContext<'_>) -> Activation {
            self.count += 1;
            if self.count > self.max {
                Activation::Terminate
            } else {
                Activation::WaitAny(self.waits.clone())
            }
        }
    }

    #[test]
    fn quiescent_on_empty_simulation() {
        let mut sim = Simulation::new();
        assert_eq!(sim.run_to_completion().unwrap(), RunOutcome::Quiescent);
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn timed_notification_advances_time() {
        let mut sim = Simulation::new();
        let e = sim.create_event("tick");
        sim.notify(e, Notify::After(Duration::from_ticks(5)));
        let pid = sim.spawn(
            "waiter",
            Box::new(move |_: &mut ProcessContext<'_>| Activation::WaitEvent(e)),
        );
        // First resume happens at t=0; the process then waits for the event.
        sim.run_to_completion().unwrap();
        assert_eq!(sim.now(), SimTime::from_ticks(5));
        assert!(sim.process_resume_count(pid) >= 2);
    }

    #[test]
    fn immediate_notify_wakes_in_same_delta() {
        let mut sim = Simulation::new();
        let e = sim.create_event("go");
        let mut first = true;
        let waiter = sim.spawn(
            "waiter",
            Box::new(move |_: &mut ProcessContext<'_>| {
                if first {
                    first = false;
                    Activation::WaitEvent(e)
                } else {
                    Activation::Terminate
                }
            }),
        );
        sim.spawn(
            "notifier",
            Box::new(move |ctx: &mut ProcessContext<'_>| {
                ctx.notify(e, Notify::Immediate);
                Activation::Terminate
            }),
        );
        sim.run_to_completion().unwrap();
        assert!(sim.process_terminated(waiter));
        // Everything happened at time zero in one delta.
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn wait_any_deregisters_other_events() {
        let mut sim = Simulation::new();
        let a = sim.create_event("a");
        let b = sim.create_event("b");
        let counter = sim.spawn(
            "counter",
            Box::new(Counter {
                waits: vec![a, b],
                count: 0,
                max: 2,
            }),
        );
        sim.notify(a, Notify::After(Duration::from_ticks(1)));
        sim.notify(b, Notify::After(Duration::from_ticks(1)));
        sim.run_to_completion().unwrap();
        // Resume 1 at t=0; both events fire at t=1 but the process must be
        // woken exactly once for the pair, then waits again and is never
        // woken a third time.
        assert_eq!(sim.process_resume_count(counter), 2);
    }

    #[test]
    fn static_sensitivity_wakes_on_every_fire() {
        let mut sim = Simulation::new();
        let e = sim.create_event("tick");
        let pid = sim.spawn_sensitive(
            "listener",
            Box::new(move |_: &mut ProcessContext<'_>| Activation::WaitStatic),
            vec![e],
        );
        for i in 1..=4u64 {
            sim.notify(e, Notify::After(Duration::from_ticks(i)));
        }
        sim.run_to_completion().unwrap();
        assert_eq!(sim.process_resume_count(pid), 5); // initial + 4 ticks
    }

    #[test]
    fn stop_request_halts_run() {
        let mut sim = Simulation::new();
        sim.spawn(
            "stopper",
            Box::new(move |ctx: &mut ProcessContext<'_>| {
                ctx.stop();
                Activation::WaitTime(Duration::from_ticks(1))
            }),
        );
        assert_eq!(sim.run_to_completion().unwrap(), RunOutcome::Stopped);
    }

    #[test]
    fn delta_loop_is_detected() {
        let mut sim = Simulation::new();
        sim.set_delta_limit(100);
        let e = sim.create_event("loop");
        sim.spawn(
            "looper",
            Box::new(move |ctx: &mut ProcessContext<'_>| {
                ctx.notify(e, Notify::Delta);
                Activation::WaitEvent(e)
            }),
        );
        match sim.run_to_completion() {
            Err(RunError::DeltaLimitExceeded { limit, .. }) => assert_eq!(limit, 100),
            other => panic!("expected delta limit error, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_outcome_when_work_remains() {
        let mut sim = Simulation::new();
        let e = sim.create_event("later");
        sim.notify(e, Notify::After(Duration::from_ticks(100)));
        let outcome = sim.run_until(SimTime::from_ticks(10)).unwrap();
        assert_eq!(outcome, RunOutcome::TimeLimit);
        assert_eq!(sim.event_fire_count(e), 0);
    }

    #[test]
    fn run_resumes_after_time_limit() {
        let mut sim = Simulation::new();
        let e = sim.create_event("later");
        sim.notify(e, Notify::After(Duration::from_ticks(100)));
        sim.run_until(SimTime::from_ticks(10)).unwrap();
        sim.run_to_completion().unwrap();
        assert_eq!(sim.event_fire_count(e), 1);
        assert_eq!(sim.now(), SimTime::from_ticks(100));
    }

    #[test]
    fn timed_wakeups_are_fifo_within_one_instant() {
        let mut sim = Simulation::new();
        let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        for tag in 0..3u32 {
            let order = order.clone();
            let mut started = false;
            sim.spawn(
                &format!("p{tag}"),
                Box::new(move |_: &mut ProcessContext<'_>| {
                    if !started {
                        started = true;
                        return Activation::WaitTime(Duration::from_ticks(5));
                    }
                    order.borrow_mut().push(tag);
                    Activation::Terminate
                }),
            );
        }
        sim.run_to_completion().unwrap();
        assert_eq!(*order.borrow(), vec![0, 1, 2]);
    }
}
