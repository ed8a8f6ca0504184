//! Deterministic simulated time and randomness.
//!
//! This crate provides the substrate every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated
//!   time as exact integer arithmetic,
//! * [`SimRng`] — a seeded, reproducible random number generator.
//!
//! There is no event queue: a host advances itself window by window
//! between its accounting, governor and snapshot boundaries (see the
//! `hypervisor` crate), and a fleet advances its hosts epoch by epoch.
//! Reproducing a scheduling paper requires bit-for-bit reproducible
//! runs, so all parallelism in this workspace lives *across*
//! independent hosts and experiment runs, never inside one.
//!
//! # Example
//!
//! ```
//! use simkernel::{SimDuration, SimRng, SimTime};
//!
//! // A 30 ms accounting period, stepped five times from zero.
//! let period = SimDuration::from_millis(30);
//! let mut now = SimTime::ZERO;
//! for _ in 0..5 {
//!     now += period;
//! }
//! assert_eq!(now, SimTime::from_millis(150));
//! assert_eq!(now.as_secs_f64(), 0.150);
//!
//! // Float seconds round to the clock's microsecond resolution, so
//! // a span below half a microsecond is zero.
//! assert_eq!(SimDuration::from_secs_f64(1.6e-6), SimDuration::from_micros(2));
//! assert!(SimDuration::from_secs_f64(4e-7).is_zero());
//!
//! // The same seed gives the same stream.
//! let mut a = SimRng::seed_from(2013);
//! let mut b = SimRng::seed_from(2013);
//! assert_eq!(a.exponential(4.0), b.exponential(4.0));
//! ```

#![deny(missing_docs)]

mod rng;
mod time;

pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
