//! The `mudsprof bench` harness: a fixed scenario matrix
//! ([`scenarios`]) whose runs become strict-schema `BENCH_<scenario>.json`
//! reports ([`report`]), diffed against committed baselines by
//! `mudsprof bench --check`.
//!
//! Besides the regression scenarios, the matrix regenerates every artifact
//! of the paper's evaluation section (DESIGN.md §5 maps them): `fig6`
//! (row scalability), `fig7` (column scalability), `table3` (eleven UCI
//! datasets × four algorithms), `fig8` (MUDS phase breakdown), and
//! `ablation` (design-choice studies). Absolute numbers differ from the
//! paper (different hardware, Rust instead of Java/Metanome, synthetic
//! stand-in data); the *shapes* — who wins, by what factor, where
//! crossovers fall — are the reproduction target recorded in
//! EXPERIMENTS.md.

pub mod report;
pub mod scenarios;
