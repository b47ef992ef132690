//! The one flag parser behind the `cm5` and `report` binaries.
//!
//! Each command declares its flags once, as a [`Command`] whose table is
//! a list of `&[Flag]` groups (a group several commands share is declared
//! once). That declaration drives everything: tokenizing, rejecting
//! unknown flags, reporting a missing value, the usage text and `--help`.
//! A flag either takes exactly one value (its metavar names it) or none,
//! so a switch never swallows the positional after it and a value flag at
//! the end of the line is an error, not a silent default.

use std::str::FromStr;

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Long name without the leading `--`.
    pub name: &'static str,
    /// Single-dash alias (`-n` for `--n`), if any.
    pub short: Option<&'static str>,
    /// Metavar of the flag's value (`N`, `PATH`); `None` for a switch.
    pub value: Option<&'static str>,
    /// One-line help.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            short: None,
            value: None,
            help,
        }
    }

    /// A flag that takes exactly one value, named `metavar` in the usage.
    pub const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            short: None,
            value: Some(metavar),
            help,
        }
    }

    /// This flag with a single-dash alias.
    pub const fn short(self, alias: &'static str) -> Flag {
        Flag {
            short: Some(alias),
            ..self
        }
    }
}

/// `--help`, accepted by every command without being declared.
const HELP: Flag = Flag::switch("help", "print this help and exit");

/// A command: its synopsis, a description whose first line is the
/// one-line summary, and its flag table.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The command as typed, then its positionals (`report [SECTION]...`).
    pub synopsis: &'static str,
    /// Description; the first line is the summary.
    pub about: &'static str,
    /// The flag table in groups, so a set several commands share is
    /// declared once; `--help` is implied.
    pub flags: &'static [&'static [Flag]],
}

impl Command {
    /// Every accepted flag in table order, `--help` last.
    fn table(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().copied().flatten().chain([&HELP])
    }

    /// The usage text `--help` prints: description, synopsis and one line
    /// per flag, generated from the table.
    pub fn usage(&self) -> String {
        let rows: Vec<(String, &str)> = self
            .table()
            .map(|f| {
                let short = f.short.map_or("    ".to_string(), |s| format!("{s}, "));
                let value = f.value.map_or(String::new(), |v| format!(" {v}"));
                (format!("{short}--{}{value}", f.name), f.help)
            })
            .collect();
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        let mut out = format!(
            "{}\n\nUSAGE:\n  {} [FLAGS]\n\nFLAGS:\n",
            self.about, self.synopsis
        );
        for (left, help) in rows {
            out.push_str(&format!("  {left:<width$}  {help}\n"));
        }
        out
    }

    /// Tokenize `raw` against the table. Tokens that are neither `--name`
    /// nor a declared short alias are positional. Errors carry the usage.
    pub fn parse(&self, raw: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut tokens = raw.iter();
        while let Some(tok) = tokens.next() {
            let flag = match tok.strip_prefix("--") {
                Some(name) => self.table().find(|f| f.name == name),
                None => self.table().find(|f| f.short == Some(tok.as_str())),
            };
            let Some(flag) = flag else {
                if tok.starts_with("--") {
                    let valid: Vec<String> =
                        self.table().map(|f| format!("--{}", f.name)).collect();
                    let msg = format!("unknown flag '{tok}' (valid flags: {})", valid.join(" "));
                    return Err(self.error(&msg));
                }
                args.positional.push(tok.clone());
                continue;
            };
            let value = match flag.value {
                None => None,
                Some(metavar) => Some(
                    tokens
                        .next()
                        .filter(|v| !v.starts_with("--"))
                        .cloned()
                        .ok_or_else(|| {
                            self.error(&format!("--{} needs a value ({metavar})", flag.name))
                        })?,
                ),
            };
            args.flags.push((flag.name, value));
        }
        Ok(args)
    }

    fn error(&self, msg: &str) -> String {
        format!("{msg}\n\n{}", self.usage())
    }
}

/// A command line tokenized against a [`Command`]'s table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// Non-flag tokens, in order.
    pub positional: Vec<String>,
    /// `(name, value)` in command-line order; switches carry `None`.
    pub flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The value of the last `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(k, _)| *k == name)
    }

    /// The value of `--name` parsed as `T`, if given; `what` names the
    /// expected kind in the error (`an integer`, `bytes`).
    pub fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name} expects {what}, got '{v}'"))
            })
            .transpose()
    }

    /// `--name` as an integer, or `default`.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// `--name` as an integer, or `default`.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// `--name` as a number, or `default`.
    pub fn f64_or(&self, name: &str, default: f64) -> Result<f64, String> {
        Ok(self.parsed(name, "a number")?.unwrap_or(default))
    }
}
