//! The discrete-event simulation engine.
//!
//! The engine is generic over a [`World`]: the user's simulation state plus
//! an event type. The engine owns the virtual clock and the event queue; the
//! world's `handle` callback receives a [`Ctx`] through which it can read the
//! clock and schedule follow-up events. This inversion keeps all mutable
//! simulation state in one place (the world) so handlers can freely mutate it
//! without fighting the borrow checker, while the engine guarantees the
//! fundamental DES invariants: the clock never moves backwards, and
//! simultaneous events fire in scheduling order.

use crate::event::EventQueue;
use crate::time::{SimDur, SimTime};

/// A simulation model: state plus an event alphabet.
pub trait World: Sized {
    /// The event alphabet of this model.
    type Event;

    /// React to `event` firing at `ctx.now()`. Follow-up events are scheduled
    /// through `ctx`.
    fn handle(&mut self, ctx: &mut Ctx<'_, Self::Event>, event: Self::Event);
}

/// Handler-side view of the engine: the current instant and the ability to
/// schedule more events.
pub struct Ctx<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Ctx<'a, E> {
    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDur, event: E) {
        self.queue.push(self.now + after, event);
    }

    /// Schedule `event` at the absolute instant `at`. Panics if `at` is in
    /// the past: an event in the past would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: at={at} now={}",
            self.now
        );
        self.queue.push(at, event);
    }
}

/// The simulation driver.
///
/// ```
/// use cb_simnet::engine::{Ctx, Engine, World};
/// use cb_simnet::time::{SimDur, SimTime};
///
/// struct Pinger { pongs: u32 }
/// impl World for Pinger {
///     type Event = u32;
///     fn handle(&mut self, ctx: &mut Ctx<'_, u32>, n: u32) {
///         self.pongs += 1;
///         if n > 0 {
///             ctx.schedule_after(SimDur::from_secs(1), n - 1);
///         }
///     }
/// }
///
/// let mut eng = Engine::new(Pinger { pongs: 0 });
/// eng.schedule(SimTime::ZERO, 3);
/// eng.run();
/// assert_eq!(eng.world().pongs, 4);
/// assert_eq!(eng.now(), SimTime::from_secs(3));
/// ```
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    steps: u64,
}

impl<W: World> Engine<W> {
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            steps: 0,
        }
    }

    /// Schedule an initial event before the run starts.
    pub fn schedule(&mut self, at: SimTime, event: W::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// The current virtual instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Consume the engine, returning the final world state.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Process a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((t, ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(t >= self.now, "event queue yielded a past event");
        self.now = t;
        self.steps += 1;
        let mut ctx = Ctx {
            now: self.now,
            queue: &mut self.queue,
        };
        self.world.handle(&mut ctx, ev);
        true
    }

    /// Run until the event queue drains. Returns the number of events
    /// processed by this call.
    pub fn run(&mut self) -> u64 {
        let before = self.steps;
        while self.step() {}
        self.steps - before
    }

    /// Run with a hard event-count budget; returns `true` if the queue
    /// drained within the budget. Useful as a livelock guard in tests.
    pub fn run_bounded(&mut self, max_events: u64) -> bool {
        for _ in 0..max_events {
            if !self.step() {
                return true;
            }
        }
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each `Tick(n)` schedules `Tick(n-1)` one
    /// second later until zero.
    struct Countdown {
        fired: Vec<(SimTime, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl World for Countdown {
        type Event = Ev;
        fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, ev: Ev) {
            let Ev::Tick(n) = ev;
            self.fired.push((ctx.now(), n));
            if n > 0 {
                ctx.schedule_after(SimDur::from_secs(1), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn chain_of_events_advances_clock() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, Ev::Tick(3));
        let n = eng.run();
        assert_eq!(n, 4);
        assert_eq!(eng.now(), SimTime::from_secs(3));
        let w = eng.into_world();
        assert_eq!(
            w.fired,
            vec![
                (SimTime::from_secs(0), 3),
                (SimTime::from_secs(1), 2),
                (SimTime::from_secs(2), 1),
                (SimTime::from_secs(3), 0),
            ]
        );
    }

    #[test]
    fn run_bounded_detects_drain() {
        let mut eng = Engine::new(Countdown { fired: vec![] });
        eng.schedule(SimTime::ZERO, Ev::Tick(10));
        assert!(!eng.run_bounded(5), "budget too small must report false");
        assert!(eng.run_bounded(1000));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_event_panics() {
        struct Bad;
        enum E2 {
            Fire,
        }
        impl World for Bad {
            type Event = E2;
            fn handle(&mut self, ctx: &mut Ctx<'_, E2>, _ev: E2) {
                ctx.schedule_at(SimTime::ZERO, E2::Fire);
            }
        }
        let mut eng = Engine::new(Bad);
        eng.schedule(SimTime::from_secs(1), E2::Fire);
        eng.run();
    }

    #[test]
    fn schedule_now_runs_at_same_instant_after_current() {
        struct W2 {
            order: Vec<u8>,
        }
        enum E3 {
            A,
            B,
        }
        impl World for W2 {
            type Event = E3;
            fn handle(&mut self, ctx: &mut Ctx<'_, E3>, ev: E3) {
                match ev {
                    E3::A => {
                        self.order.push(b'a');
                        ctx.schedule_after(SimDur::ZERO, E3::B);
                    }
                    E3::B => self.order.push(b'b'),
                }
            }
        }
        let mut eng = Engine::new(W2 { order: vec![] });
        eng.schedule(SimTime::from_secs(2), E3::A);
        eng.run();
        assert_eq!(eng.now(), SimTime::from_secs(2));
        assert_eq!(eng.world().order, vec![b'a', b'b']);
    }
}
