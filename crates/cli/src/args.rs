//! A small, dependency-free `--flag value` argument parser.

use std::collections::BTreeMap;
use std::fmt;

/// Error produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// Parsed `--key value` flags (plus boolean `--key` switches).
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    /// Parses flags from raw arguments against a command's usage text,
    /// the one list of its flags: every usage line that starts with
    /// `--name` declares a flag, a value flag when `<...>` follows the
    /// name and a switch otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for positional arguments, flags the usage
    /// does not list, missing values, or duplicated flags.
    pub fn parse(args: &[String], usage: &str) -> Result<Self, ArgError> {
        let declared = |name: &str| {
            usage.lines().find_map(|line| {
                let mut words = line.split_whitespace();
                (words.next()? == format!("--{name}"))
                    .then(|| words.next().is_some_and(|w| w.starts_with('<')))
            })
        };
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(err(format!("unexpected positional argument `{arg}`")));
            };
            match declared(name) {
                None => {
                    return Err(err(format!(
                        "unknown flag `--{name}` (run with --help to list the flags)"
                    )))
                }
                Some(false) => {
                    flags.switches.push(name.to_string());
                    continue;
                }
                Some(true) => {}
            }
            let value = it
                .next()
                .ok_or_else(|| err(format!("flag `--{name}` requires a value")))?;
            if flags
                .values
                .insert(name.to_string(), value.clone())
                .is_some()
            {
                return Err(err(format!("flag `--{name}` given twice")));
            }
        }
        Ok(flags)
    }

    /// Whether a boolean switch was present.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if missing.
    pub fn required(&self, name: &str) -> Result<&str, ArgError> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing required flag `--{name}`")))
    }

    /// A parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| err(format!("flag `--{name}`: cannot parse `{raw}`"))),
        }
    }

    /// A required parsed flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if missing or unparsable.
    pub fn get_required<T: std::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let raw = self.required(name)?;
        raw.parse()
            .map_err(|_| err(format!("flag `--{name}`: cannot parse `{raw}`")))
    }

    /// Parses a comma-separated list of values, e.g. `16,12`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if any element fails to parse.
    pub fn get_list<T: std::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, ArgError> {
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse()
                        .map_err(|_| err(format!("flag `--{name}`: cannot parse `{tok}`")))
                })
                .collect::<Result<Vec<T>, ArgError>>()
                .map(Some),
        }
    }

    /// Parses an inclusive `lo:hi` range, e.g. `4:20`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on format or ordering problems.
    pub fn get_range(&self, name: &str, default: (f64, f64)) -> Result<(f64, f64), ArgError> {
        match self.values.get(name) {
            None => Ok(default),
            Some(raw) => {
                let (lo, hi) = raw
                    .split_once(':')
                    .ok_or_else(|| err(format!("flag `--{name}`: expected `lo:hi`")))?;
                let lo: f64 = lo
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("flag `--{name}`: bad lower bound")))?;
                let hi: f64 = hi
                    .trim()
                    .parse()
                    .map_err(|_| err(format!("flag `--{name}`: bad upper bound")))?;
                if lo > hi {
                    return Err(err(format!("flag `--{name}`: lower bound above upper")));
                }
                Ok((lo, hi))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Usage text in the commands' layout: one `--name` line per flag.
    const USAGE: &str = "\
wlc demo — a usage block

FLAGS:
    --rate <f64>       a value flag
    --bursty           a switch
    --a <n>            more value flags: --x, --y, --z
    --x <n>
    --y <n>
    --z <n>
    --hidden <list>
    --span <lo:hi>
    --n <n>
    --r <lo:hi>
    --l <list>

Mentions of --ghost inside prose declare nothing.";

    #[test]
    fn parses_flags_and_switches() {
        let f = Flags::parse(&args(&["--rate", "560", "--bursty"]), USAGE).unwrap();
        assert_eq!(f.get_required::<f64>("rate").unwrap(), 560.0);
        assert!(f.switch("bursty"));
        assert!(!f.switch("other"));
    }

    #[test]
    fn rejects_positional_and_duplicates() {
        assert!(Flags::parse(&args(&["oops"]), USAGE).is_err());
        assert!(Flags::parse(&args(&["--a", "1", "--a", "2"]), USAGE).is_err());
        assert!(Flags::parse(&args(&["--a"]), USAGE).is_err());
    }

    #[test]
    fn rejects_flags_the_usage_does_not_list() {
        for unknown in ["--duraton", "--ghost", "--help", "--FLAGS:"] {
            let e = Flags::parse(&args(&["--rate", "1", unknown, "2"]), USAGE).unwrap_err();
            assert!(e.0.contains(&format!("unknown flag `{unknown}`")), "{e}");
        }
        // A value flag still takes the next argument, whatever it looks like.
        let f = Flags::parse(&args(&["--a", "--bursty"]), USAGE).unwrap();
        assert_eq!(f.required("a").unwrap(), "--bursty");
        assert!(!f.switch("bursty"));
    }

    #[test]
    fn defaults_and_required() {
        let f = Flags::parse(&args(&["--x", "3"]), USAGE).unwrap();
        assert_eq!(f.get_or("x", 1i32).unwrap(), 3);
        assert_eq!(f.get_or("y", 7i32).unwrap(), 7);
        assert!(f.required("z").is_err());
        assert!(f.get_required::<i32>("x").is_ok());
    }

    #[test]
    fn lists_and_ranges() {
        let f = Flags::parse(&args(&["--hidden", "16,12", "--span", "4:20"]), USAGE).unwrap();
        assert_eq!(f.get_list::<usize>("hidden").unwrap(), Some(vec![16, 12]));
        assert_eq!(f.get_range("span", (0.0, 1.0)).unwrap(), (4.0, 20.0));
        assert_eq!(f.get_range("missing", (0.0, 1.0)).unwrap(), (0.0, 1.0));
    }

    #[test]
    fn bad_values_are_reported() {
        let f = Flags::parse(&args(&["--n", "abc", "--r", "9:1"]), USAGE).unwrap();
        assert!(f.get_required::<i32>("n").is_err());
        assert!(f.get_range("r", (0.0, 1.0)).is_err());
        let g = Flags::parse(&args(&["--l", "1,x"]), USAGE).unwrap();
        assert!(g.get_list::<i32>("l").is_err());
    }
}
