//! Discrete-event simulation kernel.
//!
//! The Cx evaluation replays multi-million-operation traces against clusters
//! of up to 32 metadata servers. We reproduce it on a deterministic
//! discrete-event simulator: a virtual clock, an event queue with
//! deterministic tie-breaking, and a handful of queueing helpers
//! ([`FifoResource`]) used to model server CPUs.
//!
//! The kernel is generic over the event type; `cx-cluster` instantiates it
//! with its cluster events and drives the loop. Nothing here knows about
//! file systems or protocols.
//!
//! Determinism contract: given the same initial schedule and the same
//! sequence of `schedule*` calls, `pop` returns events in exactly the same
//! order — ties in time are broken by schedule order. All randomness comes
//! from [`rng::det_rng`], seeded from the experiment configuration.

pub mod kernel;
pub mod resource;
pub mod rng;

pub use kernel::{NodeIdx, Sim, TimerQueue};
pub use resource::FifoResource;
pub use rng::det_rng;
