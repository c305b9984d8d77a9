//! Shared by the `perfbench` binary and its smoke test.

pub mod json;
