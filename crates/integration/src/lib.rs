//! This crate exists only to host the workspace-level integration tests in
//! `tests/` (see the `[[test]]` entries in its manifest).  It has no library
//! content of its own.

#![warn(missing_docs)]
