//! Experiment implementations reproducing every table and figure in the
//! paper's evaluation. Each experiment is a plain function — or, for the
//! paired-arm sweeps, a `const` table over one engine ([`sweep`]) — so
//! the same code runs from the binaries in `src/bin/` and (in reduced
//! form) from the smoke tests in `tests/`.

pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod report;
pub mod sweep;

pub use experiments::*;
pub use parallel::parallel_map;
pub use sweep::*;
