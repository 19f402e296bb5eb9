#![forbid(unsafe_code)]
//! Experiment harness regenerating every quantitative figure and table of
//! the Flashmark paper.
//!
//! Each experiment is a library function in [`experiments`] (so
//! integration tests can run scaled-down versions) with one entry in the
//! suite's experiment table, [`suite::EXPERIMENTS`]:
//!
//! | paper artifact | function | `run_all --only` |
//! |---|---|---|
//! | Fig. 4 — cells vs `tPE` per stress level | [`experiments::fig04`] | `fig04` |
//! | Fig. 5 — fresh/50 K discrimination | [`experiments::fig05`] | `fig05` |
//! | Fig. 9 — single-copy BER vs `tPE` | [`experiments::fig09`] | `fig09` |
//! | Fig. 10 — 7-replica majority recovery | [`experiments::fig10`] | `fig10` |
//! | Fig. 11 — replication sweep | [`experiments::fig11`] | `fig11`, `fig11_interleaved` |
//! | §V timing | [`experiments::table1`] | `table1` |
//! | ECC-vs-replication ablation | [`experiments::ecc_ablation`] | `ecc_ablation` |
//!
//! `run_all` executes the whole table and emits a Markdown report
//! comparing paper numbers with measured ones (the basis of
//! `EXPERIMENTS.md`); `--only` runs just the named entries and writes just
//! their artifacts.
//!
//! Run binaries in release mode; the cell-level simulation is hot:
//!
//! ```text
//! cargo run --release -p flashmark-bench --bin run_all -- --only fig09
//! ```

pub mod backend_campaign;
pub mod experiments;
pub mod fault_campaign;
pub mod harness;
pub mod microbench;
pub mod observability;
pub mod output;
pub mod paper;
pub mod service_campaign;
pub mod suite;
pub mod top;
pub mod trend;
