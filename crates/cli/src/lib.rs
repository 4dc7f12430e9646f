//! Library backing the `mmd-cli` and `mmd-serve` binaries: argument
//! parsing, instance I/O, and the subcommands (`gen`, `inspect`, `solve`,
//! `simulate`, `ingest`, `serve`, `client`).
//!
//! Kept as a library so the logic is unit-testable; the binaries are thin
//! wrappers around [`main_with`].

pub mod args;
pub mod commands;
pub mod io;

pub use args::{parse, Command};
pub use commands::run;

use std::process::ExitCode;

/// Parses `args` (without the program name), runs the command, and prints
/// its output (or the error and the usage text): the whole of a binary.
pub fn main_with(args: &[String]) -> ExitCode {
    match parse(args) {
        Ok(command) => match run(command) {
            Ok(output) => {
                print!("{output}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n\n{}", args::USAGE);
            ExitCode::FAILURE
        }
    }
}
