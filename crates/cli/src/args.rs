//! A small, dependency-free argument parser: positional arguments plus
//! `--flag value` / `--flag` options.

use std::collections::BTreeMap;

/// Parsed command-line arguments: positionals in order, options by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Error produced by argument parsing or lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program/subcommand names).
    /// `--name value` binds an option; a `--name` followed by another
    /// `--option` or end of input becomes a boolean flag (value `"true"`).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty option name (`--`).
    pub fn parse<I, S>(raw: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError("empty option name '--'".into()));
                }
                let value = match iter.peek() {
                    // af-audit: allow(no-unwrap-in-lib): peek returned Some just above
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                args.options.insert(name.to_string(), value);
            } else {
                args.positionals.push(tok);
            }
        }
        Ok(args)
    }

    /// The `i`-th positional argument.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// All positionals.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// An option's raw value.
    #[must_use]
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Returns `true` if the boolean flag is present.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns an error if the value does not parse as `T`.
    pub fn parsed_or<T: core::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.option(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{name}: {v}"))),
        }
    }

    /// A required parsed option.
    ///
    /// # Errors
    ///
    /// Returns an error if absent or unparsable.
    pub fn required<T: core::str::FromStr>(&self, name: &str) -> Result<T, ArgError> {
        let v = self
            .option(name)
            .ok_or_else(|| ArgError(format!("missing required option --{name}")))?;
        v.parse()
            .map_err(|_| ArgError(format!("invalid value for --{name}: {v}")))
    }

    /// Rejects every option whose name is not in `known`, and every
    /// positional argument, so a typo is an error instead of a silently
    /// ignored flag.
    ///
    /// # Errors
    ///
    /// Names the first unknown option or positional argument.
    pub fn only_options(&self, known: &[&str]) -> Result<(), ArgError> {
        if let Some(name) = self
            .options
            .keys()
            .find(|name| !known.contains(&name.as_str()))
        {
            return Err(ArgError(format!("unknown option --{name}")));
        }
        match self.positionals.first() {
            Some(extra) => Err(ArgError(format!("unexpected argument '{extra}'"))),
            None => Ok(()),
        }
    }

    /// A comma-separated list option (`--sources 0,3,5`).
    ///
    /// # Errors
    ///
    /// Returns an error if any element does not parse.
    pub fn list<T: core::str::FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, ArgError> {
        match self.option(name) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("invalid element in --{name}: {part}")))
                })
                .collect::<Result<Vec<T>, _>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positionals_and_options() {
        let a = Args::parse(["graph.g6", "--source", "3", "--trace"]).unwrap();
        assert_eq!(a.positional(0), Some("graph.g6"));
        assert_eq!(a.option("source"), Some("3"));
        assert!(a.flag("trace"));
        assert!(!a.flag("missing"));
    }

    #[test]
    fn boolean_flag_before_option() {
        let a = Args::parse(["--trace", "--source", "2"]).unwrap();
        assert!(a.flag("trace"));
        assert_eq!(a.option("source"), Some("2"));
    }

    #[test]
    fn parsed_or_and_required() {
        let a = Args::parse(["--k", "7"]).unwrap();
        assert_eq!(a.parsed_or("k", 0usize).unwrap(), 7);
        assert_eq!(a.parsed_or("absent", 5usize).unwrap(), 5);
        assert_eq!(a.required::<usize>("k").unwrap(), 7);
        assert!(a.required::<usize>("absent").is_err());
        let bad = Args::parse(["--k", "seven"]).unwrap();
        assert!(bad.parsed_or("k", 0usize).is_err());
    }

    #[test]
    fn comma_lists() {
        let a = Args::parse(["--sources", "0, 3,5"]).unwrap();
        assert_eq!(a.list::<usize>("sources").unwrap(), Some(vec![0, 3, 5]));
        assert_eq!(a.list::<usize>("absent").unwrap(), None);
        let bad = Args::parse(["--sources", "0,x"]).unwrap();
        assert!(bad.list::<usize>("sources").is_err());
    }

    #[test]
    fn only_options_names_the_first_unknown_argument() {
        let a = Args::parse(["--full", "--out", "x.json"]).unwrap();
        assert!(a.only_options(&["full", "out"]).is_ok());
        let err = a.only_options(&["full"]).unwrap_err();
        assert_eq!(err.0, "unknown option --out");
        let err = Args::parse(["extra"])
            .unwrap()
            .only_options(&[])
            .unwrap_err();
        assert_eq!(err.0, "unexpected argument 'extra'");
    }

    #[test]
    fn empty_option_name_is_an_error() {
        assert!(Args::parse(["--"]).is_err());
    }
}
