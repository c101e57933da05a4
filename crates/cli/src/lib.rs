//! # mrt-cli
//!
//! Command-line front end for the malleable-task scheduling workspace.  The
//! binary is called `malleable-sched` and offers four subcommands:
//!
//! ```text
//! malleable-sched generate --family mixed --tasks 40 --processors 32 --seed 7 --output inst.json
//! malleable-sched schedule inst.json --solver mrt --gantt --output sched.json
//! malleable-sched validate inst.json sched.json
//! malleable-sched bounds   inst.json
//! ```
//!
//! The library part of the crate contains the full implementation (argument
//! parsing, command execution, output formatting) so that everything is unit
//! testable; `main.rs` is a thin wrapper.

pub mod args;
pub mod commands;
pub mod schedule_io;

pub use args::{Cli, Command, ParseError};
pub use commands::{run, CliError};

/// Run the CLI on an argument vector (excluding the program name) and return
/// the text that would be printed on success.
pub fn run_args(args: &[String]) -> Result<String, CliError> {
    let cli = Cli::parse(args).map_err(CliError::Parse)?;
    run(&cli)
}
