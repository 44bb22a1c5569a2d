//! A small, dependency-free argument parser: `--key value`, `--flag`,
//! and positional arguments, with typed accessors and helpful errors.

use std::collections::BTreeMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
}

/// An argument-parsing or validation error (printed to stderr with usage).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses a token stream. `known_flags` lists options that take no
    /// value (everything else starting with `--` consumes the next
    /// token).
    pub fn parse<I: IntoIterator<Item = String>>(
        tokens: I,
        known_flags: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    return Err(ArgError("unexpected bare `--`".into()));
                }
                // `--key=value` form.
                if let Some((key, value)) = name.split_once('=') {
                    args.options
                        .entry(key.to_string())
                        .or_default()
                        .push(value.to_string());
                    continue;
                }
                if known_flags.contains(&name) {
                    args.flags.push(name.to_string());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("option --{name} expects a value")))?;
                args.options
                    .entry(name.to_string())
                    .or_default()
                    .push(value);
            } else {
                args.positional.push(token);
            }
        }
        Ok(args)
    }

    /// Positional argument `idx`.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// All positional arguments.
    pub fn positionals(&self) -> &[String] {
        &self.positional
    }

    /// Last value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of a repeatable `--key`.
    pub fn get_all(&self, key: &str) -> Vec<&str> {
        self.options
            .get(key)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Whether `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Rejects any option or flag that `usage`, the command's own usage
    /// text, does not declare: a line, or a `[` in a synopsis line, that
    /// starts with `--<name>`. Mentions inside prose ("requires
    /// --store") declare nothing. The usage is the one list of what a
    /// command accepts, so a misspelt or retired option fails instead of
    /// being silently ignored.
    pub fn reject_unknown(&self, command: &str, usage: &str) -> Result<(), ArgError> {
        let declared = |name: &str| {
            usage
                .lines()
                .flat_map(|line| std::iter::once(line.trim_start()).chain(line.split('[').skip(1)))
                .filter_map(|item| item.strip_prefix("--")?.strip_prefix(name))
                .any(|rest| !rest.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-'))
        };
        match self
            .options
            .keys()
            .chain(&self.flags)
            .find(|name| !declared(name))
        {
            Some(name) => Err(ArgError(format!(
                "unknown option --{name} for `ytaudit {command}`; run `ytaudit {command} --help`"
            ))),
            None => Ok(()),
        }
    }

    /// Typed accessor with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value for --{key}: {raw:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str], flags: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()), flags).unwrap()
    }

    #[test]
    fn parses_positionals_options_and_flags() {
        let args = parse(
            &[
                "collect",
                "--topics",
                "blm,higgs",
                "--snapshots",
                "4",
                "--paper",
                "out.json",
            ],
            &["paper"],
        );
        assert_eq!(args.positional(0), Some("collect"));
        assert_eq!(args.positional(1), Some("out.json"));
        assert_eq!(args.get("topics"), Some("blm,higgs"));
        assert_eq!(args.get_parsed("snapshots", 0usize).unwrap(), 4);
        assert!(args.flag("paper"));
        assert!(!args.flag("quick"));
    }

    #[test]
    fn equals_form_and_repeats() {
        let args = parse(&["--key=a=1", "--key", "b", "--x=1"], &[]);
        assert_eq!(args.get_all("key"), vec!["a=1", "b"]);
        assert_eq!(args.get("key"), Some("b"));
        assert_eq!(args.get("x"), Some("1"));
    }

    #[test]
    fn missing_value_errors() {
        let err = Args::parse(vec!["--name".to_string()], &[]).unwrap_err();
        assert!(err.0.contains("--name"));
        assert!(Args::parse(vec!["--".to_string()], &[]).is_err());
    }

    #[test]
    fn options_and_flags_outside_the_usage_are_rejected() {
        let usage = "USAGE:\n    ytaudit collect [--seed <N>]\n\nOPTIONS:\n    \
                     --store <file>   where to commit\n    \
                     --resume         continue (requires --store; see `collect --out`)";
        let ok = parse(
            &["collect", "--store", "a.yts", "--resume", "--seed=3"],
            &["resume"],
        );
        assert_eq!(ok.reject_unknown("collect", usage), Ok(()));

        for (tokens, unknown) in [
            (&["--shards", "2", "--store", "a.yts"][..], "--shards"),
            (&["--bogus=3"][..], "--bogus"),
            (&["--paper"][..], "--paper"),
            // Named only in prose, not declared.
            (&["--out", "x.json"][..], "--out"),
            // A name is matched whole, never as a prefix of a longer one.
            (&["--stor", "a.yts"][..], "--stor"),
        ] {
            let err = parse(tokens, &["paper"])
                .reject_unknown("collect", usage)
                .unwrap_err();
            assert!(err.0.contains(unknown), "{err}");
            assert!(err.0.contains("ytaudit collect --help"), "{err}");
        }
    }

    #[test]
    fn typed_accessor_validates() {
        let args = parse(&["--n", "abc"], &[]);
        assert!(args.get_parsed("n", 1u32).is_err());
        assert_eq!(args.get_parsed("missing", 7u32).unwrap(), 7);
    }
}
