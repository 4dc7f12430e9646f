//! `mmd-cli` — generate, inspect, solve, simulate and serve `mmd` instances.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mmd_cli::main_with(&args)
}
