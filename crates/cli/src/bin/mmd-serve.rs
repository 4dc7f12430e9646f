//! `mmd-serve` — the allocation daemon: `mmd-cli serve` under its own name,
//! with the same flags (see `docs/OPERATIONS.md`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::iter::once("serve".to_string())
        .chain(std::env::args().skip(1))
        .collect();
    mmd_cli::main_with(&args)
}
