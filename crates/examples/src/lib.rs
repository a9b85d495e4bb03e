//! Host crate for the repository's runnable examples (see `examples/`
//! at the workspace root). Run them with e.g.
//! `cargo run --release -p hera-examples --example quickstart`.

#![forbid(unsafe_code)]
