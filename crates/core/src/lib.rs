//! # af-core
//!
//! The primary contribution of *"On Termination of a Flooding Process"*
//! (Hussak & Trehan, PODC 2019), reproduced as a library: **Amnesiac
//! Flooding** — flooding without a "seen" flag, where each node forwards
//! the message to exactly the neighbours it did not just receive it from.
//!
//! What lives here:
//!
//! * [`AmnesiacFloodingProtocol`] / [`ClassicFloodingProtocol`] — the
//!   paper's protocol (Definition 1.1) and the flag-based baseline, as
//!   [`af_engine::Protocol`] implementations for both the synchronous and
//!   the adversarial asynchronous engine;
//! * [`FrontierFlooding`] — the frontier-sparse bitset simulator built on
//!   the local arc rule (`v→w` fires iff `v` received and `w→v` did not
//!   fire), doing `O(active arcs)` work per round — the hot-path engine;
//! * [`ShardedFlooding`] (module [`sharded`]) — the same rounds executed
//!   across the shards of an [`af_graph::Partition`] by one worker thread
//!   per shard, exchanging boundary activations through channels at a
//!   per-round barrier — the first intra-flood concurrency in the tree,
//!   bit-identical to the frontier engine for any shard count;
//! * [`FastFlooding`] — the scan-all-arcs bitset simulator, an independent
//!   implementation kept as the cross-check and benchmark baseline;
//! * [`BitLaneFlooding`] (module [`bitlane`]) — the bit-parallel engine:
//!   up to 64 **independent** floods packed into the bit lanes of one
//!   `u64` per arc, all advanced by a single CSR pass per round with
//!   word-wide `AND`/`OR`/`ANDNOT` and per-lane termination masks — every
//!   lane bit-identical to [`FrontierFlooding`] on its own source set;
//! * [`DynamicFlooding`] — the frontier engine lifted onto the
//!   [`af_graph::dynamic`] delta-edit overlay: churn batches (edge
//!   insert/delete, node join/leave) apply at round boundaries mid-flood,
//!   and the empty-schedule flood is bit-identical to [`FrontierFlooding`]
//!   — the zero-churn anchor behind experiment E17;
//! * [`AmnesiacFlooding`] / [`flood`] — high-level drivers producing a
//!   [`FloodingRun`] with the paper's round-sets `R_i`, per-node receive
//!   rounds, termination round and message counts;
//! * [`FloodBatch`] — the batched runner: floods a graph from many source
//!   sets while reusing one simulator's allocations; its default
//!   [`FloodEngine::Auto`] packs a batch into bit lanes when its first
//!   flood shows the wavefronts will share arcs;
//! * [`theory`] — the exact-time oracle via the bipartite double cover,
//!   the paper's single-source bounds (`e(v)`, `D`, `2D + 1`), and the
//!   multi-source exact times the paper poses as the next step
//!   (`T = e(S)` for monochromatic-bipartite source sets,
//!   `e(S) < T ≤ e(S) + D + 1` otherwise);
//! * [`roundsets`] — the Theorem 3.1 proof machinery (`R`, `Re`) checked
//!   on concrete runs;
//! * [`detect`] — the suggested application: bipartiteness testing by
//!   flooding;
//! * [`arbitrary`] — the extension experiment: flooding from arbitrary
//!   *arc* configurations, where (unlike the paper's node-initiated
//!   setting) synchronous non-termination is possible and exhaustively
//!   classified;
//! * [`spanning`] — first-receipt spanning trees (provably BFS trees);
//! * [`trace`] — textual renderings of the paper's figures;
//! * [`obs`] — the observability layer: per-round [`obs::FloodProbe`]
//!   callbacks wired through every engine (free when no probe is
//!   attached), NDJSON trace export, and the lock-free metrics primitives
//!   the serving daemon reports through.
//!
//! Every simulator floods from an arbitrary **source set** `S ⊆ V` — a
//! singleton reproduces the paper's main setting, and all engines and the
//! oracle agree for any `S` (the property suites pin set sizes
//! `1, 2, 3, ⌈√n⌉` across every engine, partitioner, and shard count).
//!
//! # Quickstart
//!
//! ```
//! use af_core::{flood, theory};
//! use af_graph::generators;
//!
//! // Figure 3: an even cycle C6 floods for exactly D = 3 rounds.
//! let g = generators::cycle(6);
//! let run = flood(&g, 0.into());
//! assert_eq!(run.termination_round(), Some(3));
//!
//! // The double-cover oracle predicts the same thing without simulating.
//! assert_eq!(theory::predict(&g, [0.into()]).termination_round(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arbitrary;
pub mod bitlane;
pub mod detect;
pub mod obs;
pub mod roundsets;
pub mod sharded;
pub mod theory;
pub mod trace;

pub mod spanning;

#[cfg(feature = "serde")]
pub mod api;
pub mod flooder;

mod bitset;
mod dynamic;
mod fast;
mod frontier;
mod protocol;
mod run;

pub use bitlane::BitLaneFlooding;
pub use dynamic::DynamicFlooding;
pub use fast::FastFlooding;
pub use flooder::Flooder;
pub use frontier::FrontierFlooding;
pub use protocol::{AmnesiacFloodingProtocol, ClassicFloodingProtocol, KMemoryFlooding};
pub use run::{
    flood, AmnesiacFlooding, FloodBatch, FloodEngine, FloodStats, FloodingRun, ParseEngineError,
    DEFAULT_SHARD_THREADS,
};
pub use sharded::ShardedFlooding;
