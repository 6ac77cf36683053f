//! The vocabulary of grid parameters: a [`Param`] row per key in each
//! settings type's table, the value parsers the rows' setters share, and the
//! [`Params`] override set one run is given.
//!
//! A grid parameter is written once, as a row `(key, help, setter)`. `repro
//! --list` prints the row, `sweep --grid` and `repro <experiment> --<key>
//! <value>` validate a value by calling the row's setter on a scratch preset
//! ([`Experiment::check`](super::Experiment::check)), and the run applies the
//! same setter to the settings it runs with — so a misspelt key or an
//! unparsable value is an error on every path.

use std::collections::BTreeMap;

use simnet::prelude::SimDuration;

/// One grid parameter of the settings type `S`: what `repro --list` prints
/// and the one setter the CLI, sweep validation and the run all go through.
pub struct Param<S> {
    /// The `--grid key=…` / `--key …` name.
    pub key: &'static str,
    /// One-line description for `repro --list`.
    pub help: &'static str,
    /// Parses the text and assigns the field; `Err` says what the text is not.
    pub set: fn(&mut S, &str) -> Result<(), String>,
}

impl<S> Param<S> {
    /// A table row.
    pub const fn new(key: &'static str, help: &'static str, set: fn(&mut S, &str) -> Result<(), String>) -> Self {
        Param { key, help, set }
    }

    /// The same row under an experiment-specific description.
    pub const fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }
}

/// Parses an unsigned integer (node counts, trial counts).
pub fn count(value: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("`{value}` is not an unsigned integer"))
}

/// Parses a finite floating-point number (rates, densities, fractions).
pub fn number(value: &str) -> Result<f64, String> {
    match value.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("`{value}` is not a finite number")),
    }
}

/// Parses a whole number of seconds.
pub fn seconds(value: &str) -> Result<SimDuration, String> {
    count(value).map(|s| SimDuration::from_secs(s as u64))
}

/// Parses an `on` / `off` toggle.
pub fn on_off(value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        _ => Err(format!("`{value}` is not a toggle (on|off)")),
    }
}

/// Parameter overrides for one experiment run — the expansion of one sweep
/// grid point, or empty for the defaults.
#[derive(Debug, Clone, Default)]
pub struct Params(BTreeMap<String, String>);

impl Params {
    /// The empty override set (every experiment runs its defaults).
    pub fn new() -> Self {
        Params::default()
    }

    /// Builds the set from `(key, value)` pairs (later pairs win).
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = &'a (String, String)>) -> Self {
        Params(pairs.into_iter().map(|(k, v)| (k.clone(), v.clone())).collect())
    }

    /// Sets one override.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.0.insert(key.into(), value.into());
    }

    /// The overrides as `(key, value)`, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}
