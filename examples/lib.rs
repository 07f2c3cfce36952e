//! Shared helpers for the example binaries: tiny argument parsing so every
//! example can be scaled up from the command line.

use std::str::FromStr;

/// The value after the flag `name` in `args` (`--n 4096`), or `default`
/// when the flag is absent.
///
/// # Errors
/// A message naming the flag, and the value if there is one, when the flag
/// has no value or its value does not parse as a `T`.
pub fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args.get(i + 1).ok_or(format!("{name}: missing value"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// Read the flag `name` from the command line (`--tol 1e-8`), or `default`
/// when it is absent.  A missing or unparsable value is printed with its
/// flag, and the process exits with status 2.
pub fn arg<T: FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::parse_arg;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_are_returned_without_matching_arguments() {
        let given = args(&["example", "--tol", "1e-6"]);
        assert_eq!(parse_arg(&given, "--does-not-exist", 7usize), Ok(7));
        assert_eq!(parse_arg(&given, "--n", 0.5f64), Ok(0.5));
    }

    #[test]
    fn values_parse_and_malformed_or_missing_values_are_errors() {
        let given = args(&["example", "--n", "512", "--tol", "1e-6", "--kappa"]);
        assert_eq!(parse_arg(&given, "--n", 7usize), Ok(512));
        assert_eq!(parse_arg(&given, "--tol", 0.5f64), Ok(1e-6));
        assert_eq!(
            parse_arg(&args(&["example", "--n", "5l2"]), "--n", 4096usize),
            Err("--n: cannot parse \"5l2\"".to_string())
        );
        assert_eq!(
            parse_arg(&given, "--kappa", 1.0f64),
            Err("--kappa: missing value".to_string())
        );
    }
}
