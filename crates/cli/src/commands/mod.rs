//! Subcommand implementations.

pub mod bench;
pub mod collect;
pub mod cv;
pub mod learn;
pub mod predict;
pub mod serve;
pub mod simulate;
pub mod surface;
pub mod train;

use std::error::Error;

use crate::args::Flags;

/// Shared result alias for subcommands.
pub type CmdResult = Result<(), Box<dyn Error>>;

/// Prints a usage block and returns an error asking the user to retry.
pub fn usage<T>(text: &str) -> Result<T, Box<dyn Error>> {
    eprintln!("{text}");
    Err(Box::new(crate::args::ArgError(
        "missing required flags (usage above)".into(),
    )))
}

/// A command's flags, parsed against the ones its usage text lists
/// ([`Flags::parse`]). `--help` prints that text and fails the way a
/// run without flags does.
pub fn parse_flags(raw: &[String], usage_text: &str) -> Result<Flags, Box<dyn Error>> {
    if raw.iter().any(|arg| arg == "--help") {
        return usage(usage_text);
    }
    Ok(Flags::parse(raw, usage_text)?)
}
