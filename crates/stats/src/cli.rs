//! The one command-line reader every binary parses with. Parsers walk an
//! [`Args`] and return `Result`, so tests can assert rejections without a
//! process; [`run`] alone reads the process's arguments and exits for a
//! bad command line (later failures keep each binary's own exit status).

use std::collections::VecDeque;
use std::str::FromStr;

/// The arguments still to read, front first.
#[derive(Debug)]
pub struct Args(VecDeque<String>);

impl Args {
    /// Reads `args` (without the program name).
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Self {
        Args(args.into_iter().map(Into::into).collect())
    }

    /// The next argument. (Not `Iterator`, whose `count` would shadow
    /// [`Args::count`].)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<String> {
        self.0.pop_front()
    }

    /// The argument after `flag`, or an error naming `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("`{flag}` needs a value"))
    }

    /// The argument after `flag` as a `T`, or an error naming `flag`.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse()
            .map_err(|_| format!("bad value `{v}` for `{flag}`"))
    }

    /// The count >= 1 after `flag`, or an error naming `flag`.
    pub fn count(&mut self, flag: &str) -> Result<usize, String> {
        match self.parse(flag)? {
            0 => Err(format!("`{flag}` needs a positive number")),
            n => Ok(n),
        }
    }

    /// An error naming the first argument left, if any.
    pub fn end(&mut self) -> Result<(), String> {
        self.next().map_or(Ok(()), |a| Err(unexpected(&a)))
    }
}

/// The error for an argument a binary does not take.
pub fn unexpected(arg: &str) -> String {
    format!("unexpected argument `{arg}`")
}

/// Parses the process's arguments with `parse`. `--help` or `-h` prints
/// `usage` and exits 0; a parse error prints `error: …` and `usage` and
/// exits 2.
pub fn run<T>(usage: &str, parse: impl FnOnce(Args) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{usage}");
        std::process::exit(0);
    }
    parse(Args::new(args)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_name_the_flag() {
        let mut a = Args::new(["x", "0", "-3"]);
        assert_eq!(a.parse::<u64>("--n"), Err("bad value `x` for `--n`".into()));
        assert_eq!(
            a.count("--jobs"),
            Err("`--jobs` needs a positive number".into())
        );
        assert!(a.count("--jobs").unwrap_err().contains("`--jobs`"));
        assert_eq!(a.value("--out"), Err("`--out` needs a value".into()));
    }

    #[test]
    fn walks_in_order_and_end_rejects_leftovers() {
        let mut a = Args::new(["--jobs", "4", "FILE", "extra"]);
        assert_eq!(a.next().as_deref(), Some("--jobs"));
        assert_eq!(a.count("--jobs"), Ok(4));
        assert_eq!(a.next().as_deref(), Some("FILE"));
        assert_eq!(a.end(), Err("unexpected argument `extra`".into()));
        assert_eq!(a.end(), Ok(()));
    }
}
