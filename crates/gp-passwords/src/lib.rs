//! Click-based graphical password schemes built on top of the
//! discretization layer.
//!
//! This crate implements the *systems* the paper's evaluation runs on:
//!
//! * **PassPoints** ([`schemes::passpoints`]) — one image, an ordered
//!   sequence of five click-points (Wiedenbeck et al.), the system analyzed
//!   throughout the paper.
//! * **Cued Click-Points** ([`schemes::cued`]) — one click on each of five
//!   images, the next image determined by the previous click (Chiasson et
//!   al., ESORICS 2007).
//! * **Persuasive Cued Click-Points** ([`schemes::persuasive`]) — Cued
//!   Click-Points with a randomly positioned viewport during password
//!   creation that nudges users away from hotspots.
//!
//! The storage model follows §2.2/§3.2 of the paper: for every click-point
//! the *clear* grid identifier is stored next to a single salted, iterated
//! hash over the concatenation of all per-click identifiers and grid-square
//! indices ("all segment indices and their offsets are concatenated and
//! hashed together as one", which prevents per-click divide-and-conquer).
//!
//! The crate deliberately separates:
//!
//! * [`config::DiscretizationConfig`] — which discretization scheme to use
//!   and with what tolerance;
//! * [`policy::PasswordPolicy`] — how many clicks, on what image(s), and
//!   what constraints are placed on click selection;
//! * [`system::GraphicalPasswordSystem`] — enrollment and verification,
//!   including a split-phase API (prepare / finish) that lets a serving
//!   layer batch the expensive iterated hashing across attempts;
//! * [`shard::ShardedPasswordStore`] — the concurrent multi-account store
//!   the networked server holds: N independently locked shards keyed by
//!   account hash (`new(1)` is a single-lock store), a snapshot file per
//!   shard that holds only clear grid identifiers and hashes, and a
//!   [`shard::ShardStats`] snapshot API;
//! * [`wal`] — the crash-safe durability layer under the sharded store:
//!   one append-only write-ahead log per node in numbered segments
//!   (length-prefixed, checksummed, torn-tail-tolerant replay) and atomic
//!   snapshot publication ([`wal::atomic_write`]).  A store opened with
//!   [`shard::ShardedPasswordStore::open_durable`] logs and fsyncs every
//!   mutation before acknowledging it and recovers crash-only: newest
//!   intact snapshots + the replayed log;
//! * [`ring::HashRing`] — consistent-hash placement of accounts onto a
//!   ring of node IDs (virtual points, per-key successor lists), the
//!   routing and backup-selection substrate for the replicated cluster
//!   in `gp-netauth`;
//! * [`lockdep`] — debug-build runtime lock-order checking: the sharded
//!   store's locks are [`lockdep::OrderedMutex`] / [`lockdep::OrderedRwLock`]
//!   wrappers tagged with a [`lockdep::LockClass`] rank, and any
//!   acquisition that violates the canonical `snap → accounts → wal`
//!   order panics on the spot (see also the static side, `gp-lint`).
//!
//! # Quickstart
//!
//! ```
//! use gp_passwords::prelude::*;
//! use gp_geometry::{ImageDims, Point};
//!
//! let system = GraphicalPasswordSystem::passpoints(
//!     ImageDims::STUDY,
//!     DiscretizationConfig::centered(9),
//! );
//!
//! let clicks = vec![
//!     Point::new(50.0, 60.0),
//!     Point::new(120.0, 200.0),
//!     Point::new(301.0, 75.0),
//!     Point::new(400.0, 310.0),
//!     Point::new(222.0, 111.0),
//! ];
//! let stored = system.enroll("alice", &clicks).unwrap();
//!
//! // Slightly-off re-entry is accepted…
//! let wobbly: Vec<_> = clicks.iter().map(|p| p.offset(4.0, -3.0)).collect();
//! assert!(system.verify(&stored, &wobbly).unwrap());
//!
//! // …but a click on the wrong spot is rejected.
//! let mut wrong = clicks.clone();
//! wrong[2] = Point::new(10.0, 10.0);
//! assert!(!system.verify(&stored, &wrong).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod lockdep;
pub mod policy;
mod resident;
pub mod ring;
pub mod schemes;
pub mod shard;
pub mod stored;
pub mod system;
pub mod wal;
pub mod watermark;

pub use config::DiscretizationConfig;
pub use error::PasswordError;
pub use lockdep::{LockClass, OrderedMutex, OrderedRwLock};
pub use policy::PasswordPolicy;
pub use ring::HashRing;
pub use shard::{
    diff_range_entries, record_digest, shard_index, DurabilityOptions, DurabilityStats, RangeDiff,
    RangeDigest, ShardStats, ShardedPasswordStore,
};
pub use stored::{ClickRecord, StoredPassword};
pub use system::{GraphicalPasswordSystem, VerifyScratch};
pub use wal::{Wal, WalEntry};

/// Convenient glob-import of the most commonly used items.
pub mod prelude {
    pub use crate::config::DiscretizationConfig;
    pub use crate::error::PasswordError;
    pub use crate::policy::PasswordPolicy;
    pub use crate::schemes::cued::CuedClickPoints;
    pub use crate::schemes::passpoints::PassPoints;
    pub use crate::schemes::persuasive::PersuasiveCuedClickPoints;
    pub use crate::shard::ShardedPasswordStore;
    pub use crate::stored::StoredPassword;
    pub use crate::system::{GraphicalPasswordSystem, VerifyScratch};
}
