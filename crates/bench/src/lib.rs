//! Experiment implementations reproducing every table and figure in the
//! paper's evaluation. Each experiment is a plain function — or, for the
//! cellular sweeps, a `const` table over one engine ([`cellular`]) — so
//! the same code runs from the binaries in `src/bin/` and (in reduced
//! form) from the smoke tests in `tests/`.

pub mod cellular;
pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod report;

pub use cellular::*;
pub use experiments::*;
pub use parallel::parallel_map;
