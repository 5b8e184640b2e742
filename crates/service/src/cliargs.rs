//! Tiny shared argument helpers for the workspace's service binaries
//! (`arbodomd` and `arbodom-client`): value-or-exit parsing with one
//! error-message format and exit code (2, the usage-error convention
//! of the `scenarios` CLI).

/// Returns the flag's value or exits with status 2.
pub fn required<'a>(value: Option<&'a str>, flag: &str) -> &'a str {
    value.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// Parses the flag's value or exits with status 2.
pub fn parsed<T: std::str::FromStr>(value: Option<&str>, flag: &str) -> T {
    required(value, flag)
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} needs a valid number")))
}

/// Prints a usage error and exits with status 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("{msg} (see --help)");
    std::process::exit(2)
}
