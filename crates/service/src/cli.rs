//! Command-line flags for the `skinner-*` binaries.
//!
//! One parser for every binary, so none of them ignores what it does
//! not understand: an unknown flag, a flag without its value, or a
//! value that does not parse stops the binary with the usage line and
//! exit status 2.
//!
//! ```no_run
//! use skinner_service::cli;
//!
//! let (scale, verbose): (f64, bool) = cli::parse_or_exit(
//!     "demo [--job SCALE] [--verbose]",
//!     "A demo binary.",
//!     &["--job"],
//!     &["--verbose"],
//!     |flags| Ok((flags.get("--job", 0.05)?, flags.switch("--verbose"))),
//! );
//! ```

use std::fmt;
use std::str::FromStr;

/// Why a command line was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// An argument that is not one of the binary's flags.
    Unknown(String),
    /// A value flag with no value after it.
    MissingValue(&'static str),
    /// A value that does not parse for its flag (or environment
    /// variable).
    BadValue {
        /// The flag or environment variable.
        flag: &'static str,
        /// The value as given.
        value: String,
    },
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown(arg) => write!(f, "unknown flag {arg}"),
            FlagError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            FlagError::BadValue { flag, value } => write!(f, "{flag}: bad value {value:?}"),
        }
    }
}

/// A parsed command line: the value flags given, and the switches set.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Parse `args` (without the program name). Each of `options`
    /// takes the next argument as its value; each of `switches` stands
    /// alone. A repeated flag keeps its last value.
    fn parse(
        args: impl IntoIterator<Item = String>,
        options: &[&'static str],
        switches: &[&'static str],
    ) -> Result<Flags, FlagError> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = options.iter().find(|&&o| o == arg) {
                let value = args
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or(FlagError::MissingValue(flag))?;
                flags.values.push((flag, value));
            } else if let Some(&flag) = switches.iter().find(|&&s| s == arg) {
                flags.switches.push(flag);
            } else {
                return Err(FlagError::Unknown(arg));
            }
        }
        Ok(flags)
    }

    /// The raw value of `flag`, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `flag` parsed as `T`, or `default` when not given.
    pub fn get<T: FromStr>(&self, flag: &'static str, default: T) -> Result<T, FlagError> {
        self.value(flag)
            .map_or(Ok(default), |v| parse_value(flag, v))
    }

    /// True when switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The total core budget: `--threads N`, else the `SKINNER_THREADS`
    /// environment variable, else 1 — never less than 1.
    pub fn threads(&self) -> Result<usize, FlagError> {
        self.threads_or_env(std::env::var("SKINNER_THREADS").ok())
    }

    fn threads_or_env(&self, env: Option<String>) -> Result<usize, FlagError> {
        let threads = match (self.value("--threads"), env) {
            (Some(v), _) => parse_value("--threads", v)?,
            (None, Some(v)) => parse_value("SKINNER_THREADS", &v)?,
            (None, None) => 1,
        };
        Ok(threads.max(1))
    }
}

fn parse_value<T: FromStr>(flag: &'static str, value: &str) -> Result<T, FlagError> {
    value.parse().map_err(|_| FlagError::BadValue {
        flag,
        value: value.to_string(),
    })
}

/// Parse the process's command line and read it with `read`.
///
/// `--help` or `-h` prints `usage` and `about` and exits 0. Each of
/// `options` takes the next argument as its value; each of `switches`
/// stands alone. An unknown flag, a missing value or a bad value (found
/// while parsing, or returned by `read`) prints the error and `usage`
/// on stderr and exits 2.
pub fn parse_or_exit<T>(
    usage: &str,
    about: &str,
    options: &[&'static str],
    switches: &[&'static str],
    read: impl FnOnce(&Flags) -> Result<T, FlagError>,
) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}\n{about}");
        std::process::exit(0);
    }
    match Flags::parse(args, options, switches).and_then(|flags| read(&flags)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\nusage: {usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: &[&str] = &["--threads", "--job"];
    const SWITCHES: &[&str] = &["--verify"];

    fn parse(args: &[&str]) -> Result<Flags, FlagError> {
        Flags::parse(args.iter().map(|a| a.to_string()), OPTIONS, SWITCHES)
    }

    #[test]
    fn reads_values_switches_and_defaults() {
        let flags = parse(&["--job", "0.5", "--verify", "--job", "0.25"]).unwrap();
        assert_eq!(flags.get("--job", 1.0), Ok(0.25));
        assert!(flags.switch("--verify"));
        let flags = parse(&[]).unwrap();
        assert_eq!(flags.get("--job", 1.0), Ok(1.0));
        assert!(!flags.switch("--verify"));
    }

    #[test]
    fn unknown_flag_is_refused() {
        assert_eq!(
            parse(&["--job", "1", "--serve", "x.sock"]).unwrap_err(),
            FlagError::Unknown("--serve".into())
        );
        // A switch is not a value flag, nor the other way round.
        assert_eq!(
            parse(&["--verify", "yes"]).unwrap_err(),
            FlagError::Unknown("yes".into())
        );
    }

    #[test]
    fn missing_value_is_refused() {
        assert_eq!(
            parse(&["--threads"]).unwrap_err(),
            FlagError::MissingValue("--threads")
        );
        assert_eq!(
            parse(&["--threads", "--verify"]).unwrap_err(),
            FlagError::MissingValue("--threads")
        );
    }

    #[test]
    fn unparsable_value_is_refused() {
        let flags = parse(&["--threads", "x", "--job", "big"]).unwrap();
        assert_eq!(
            flags.threads_or_env(None),
            Err(FlagError::BadValue {
                flag: "--threads",
                value: "x".into()
            })
        );
        assert_eq!(
            flags.get("--job", 1.0).unwrap_err().to_string(),
            "--job: bad value \"big\""
        );
    }

    #[test]
    fn threads_fall_back_to_the_environment() {
        let none = parse(&[]).unwrap();
        assert_eq!(none.threads_or_env(None), Ok(1));
        assert_eq!(none.threads_or_env(Some("3".into())), Ok(3));
        assert_eq!(none.threads_or_env(Some("0".into())), Ok(1));
        assert_eq!(
            none.threads_or_env(Some("many".into())),
            Err(FlagError::BadValue {
                flag: "SKINNER_THREADS",
                value: "many".into()
            })
        );
        // The flag wins over the environment.
        let flag = parse(&["--threads", "2"]).unwrap();
        assert_eq!(flag.threads_or_env(Some("8".into())), Ok(2));
    }
}
