//! A small, self-contained regular-expression engine.
//!
//! Hillview's find-text vizketch supports "exact match, substring, regular
//! expressions, case sensitivity" (paper §3.3). We implement the classic
//! backtracking subset sufficient for interactive search — `.` `*` `+` `?`
//! character classes `[a-z]`, alternation-free anchors `^` `$`, and escaped
//! literals — rather than pulling in a regex dependency (the workspace
//! builds offline from `vendor/` shims only; see `vendor/README.md`).
//!
//! Complexity is worst-case exponential as with any backtracking engine, but
//! patterns typed into a spreadsheet search box are short; the engine caps
//! backtracking steps to stay responsive.

use crate::error::{Error, Result};

/// Maximum number of matcher steps before giving up (fail-safe against
/// pathological patterns; a non-match is returned).
const STEP_LIMIT: usize = 1_000_000;

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Literal(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Star(Box<Node>),
    Plus(Box<Node>),
    Opt(Box<Node>),
}

/// A compiled lite-regex pattern.
#[derive(Debug, Clone)]
pub struct Regex {
    nodes: Vec<Node>,
    anchored_start: bool,
    anchored_end: bool,
    case_insensitive: bool,
}

impl Regex {
    /// Compile `pattern`. `case_insensitive` folds ASCII case on both the
    /// pattern and the input.
    pub fn compile(pattern: &str, case_insensitive: bool) -> Result<Regex> {
        let mut chars: Vec<char> = pattern.chars().collect();
        let mut anchored_start = false;
        let mut anchored_end = false;
        if chars.first() == Some(&'^') {
            anchored_start = true;
            chars.remove(0);
        }
        if chars.last() == Some(&'$') && !ends_with_escape(&chars) {
            anchored_end = true;
            chars.pop();
        }
        let mut nodes = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Node::Any
                }
                '[' => {
                    let (node, next) = parse_class(&chars, i)?;
                    i = next;
                    node
                }
                '\\' => {
                    if i + 1 >= chars.len() {
                        return Err(Error::BadRegex("trailing backslash".into()));
                    }
                    i += 2;
                    Node::Literal(fold(chars[i - 1], case_insensitive))
                }
                '*' | '+' | '?' => {
                    return Err(Error::BadRegex(format!(
                        "quantifier '{}' with nothing to repeat",
                        chars[i]
                    )))
                }
                c => {
                    i += 1;
                    Node::Literal(fold(c, case_insensitive))
                }
            };
            // Check for a quantifier following the atom.
            let node = if i < chars.len() {
                match chars[i] {
                    '*' => {
                        i += 1;
                        Node::Star(Box::new(atom))
                    }
                    '+' => {
                        i += 1;
                        Node::Plus(Box::new(atom))
                    }
                    '?' => {
                        i += 1;
                        Node::Opt(Box::new(atom))
                    }
                    _ => atom,
                }
            } else {
                atom
            };
            nodes.push(node);
        }
        Ok(Regex {
            nodes,
            anchored_start,
            anchored_end,
            case_insensitive,
        })
    }

    /// True if the pattern matches anywhere in `text` (respecting anchors).
    pub fn is_match(&self, text: &str) -> bool {
        let hay: Vec<char> = if self.case_insensitive {
            text.chars().map(|c| fold(c, true)).collect()
        } else {
            text.chars().collect()
        };
        let mut steps = 0usize;
        if self.anchored_start {
            return self.match_at(&hay, 0, 0, &mut steps);
        }
        for start in 0..=hay.len() {
            if self.match_at(&hay, start, 0, &mut steps) {
                return true;
            }
        }
        false
    }

    fn match_at(&self, hay: &[char], pos: usize, node: usize, steps: &mut usize) -> bool {
        *steps += 1;
        if *steps > STEP_LIMIT {
            return false;
        }
        if node == self.nodes.len() {
            return !self.anchored_end || pos == hay.len();
        }
        match &self.nodes[node] {
            Node::Star(inner) => {
                // Greedy: try the longest run first, then backtrack.
                let mut count = 0;
                while pos + count < hay.len() && atom_matches(inner, hay[pos + count]) {
                    count += 1;
                }
                loop {
                    if self.match_at(hay, pos + count, node + 1, steps) {
                        return true;
                    }
                    if count == 0 {
                        return false;
                    }
                    count -= 1;
                }
            }
            Node::Plus(inner) => {
                if pos >= hay.len() || !atom_matches(inner, hay[pos]) {
                    return false;
                }
                let mut count = 1;
                while pos + count < hay.len() && atom_matches(inner, hay[pos + count]) {
                    count += 1;
                }
                loop {
                    if self.match_at(hay, pos + count, node + 1, steps) {
                        return true;
                    }
                    if count == 1 {
                        return false;
                    }
                    count -= 1;
                }
            }
            Node::Opt(inner) => {
                if pos < hay.len()
                    && atom_matches(inner, hay[pos])
                    && self.match_at(hay, pos + 1, node + 1, steps)
                {
                    return true;
                }
                self.match_at(hay, pos, node + 1, steps)
            }
            atom => {
                if pos < hay.len() && atom_matches(atom, hay[pos]) {
                    self.match_at(hay, pos + 1, node + 1, steps)
                } else {
                    false
                }
            }
        }
    }
}

fn ends_with_escape(chars: &[char]) -> bool {
    // "$" is literal if preceded by a backslash.
    chars.len() >= 2 && chars[chars.len() - 2] == '\\'
}

fn fold(c: char, insensitive: bool) -> char {
    if insensitive {
        c.to_ascii_lowercase()
    } else {
        c
    }
}

fn atom_matches(node: &Node, c: char) -> bool {
    match node {
        Node::Literal(l) => *l == c,
        Node::Any => true,
        Node::Class { negated, ranges } => {
            let inside = ranges.iter().any(|(lo, hi)| c >= *lo && c <= *hi);
            inside != *negated
        }
        _ => unreachable!("quantifiers are not atoms"),
    }
}

fn parse_class(chars: &[char], open: usize) -> Result<(Node, usize)> {
    let mut i = open + 1;
    let negated = chars.get(i) == Some(&'^');
    if negated {
        i += 1;
    }
    let mut ranges = Vec::new();
    let mut closed = false;
    while i < chars.len() {
        if chars[i] == ']' && !ranges.is_empty() {
            closed = true;
            i += 1;
            break;
        }
        let lo = if chars[i] == '\\' {
            i += 1;
            *chars
                .get(i)
                .ok_or_else(|| Error::BadRegex("trailing backslash in class".into()))?
        } else {
            chars[i]
        };
        i += 1;
        if chars.get(i) == Some(&'-') && chars.get(i + 1).is_some_and(|&c| c != ']') {
            let hi = chars[i + 1];
            if hi < lo {
                return Err(Error::BadRegex(format!("inverted range {lo}-{hi}")));
            }
            ranges.push((lo, hi));
            i += 2;
        } else {
            ranges.push((lo, lo));
        }
    }
    if !closed {
        return Err(Error::BadRegex("unterminated character class".into()));
    }
    Ok((Node::Class { negated, ranges }, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pat: &str, text: &str) -> bool {
        Regex::compile(pat, false).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring_semantics() {
        assert!(m("and", "Gandalf"));
        assert!(!m("xyz", "Gandalf"));
        assert!(m("", "anything"));
    }

    #[test]
    fn dot_and_star() {
        assert!(m("G.nd", "Gandalf"));
        assert!(m("Ga*ndalf", "Gndalf"));
        assert!(m("Ga*ndalf", "Gaaaandalf"));
        assert!(m(".*", ""));
    }

    #[test]
    fn plus_and_opt() {
        assert!(m("a+b", "aaab"));
        assert!(!m("a+b", "b"));
        assert!(m("colou?r", "color"));
        assert!(m("colou?r", "colour"));
    }

    #[test]
    fn anchors() {
        assert!(m("^Gan", "Gandalf"));
        assert!(!m("^and", "Gandalf"));
        assert!(m("alf$", "Gandalf"));
        assert!(!m("Gan$", "Gandalf"));
        assert!(m("^Gandalf$", "Gandalf"));
        assert!(!m("^Gandalf$", "Gandalf the Grey"));
    }

    #[test]
    fn character_classes() {
        assert!(m("[A-Z][a-z]+", "Frodo"));
        assert!(!m("^[0-9]+$", "12a"));
        assert!(m("^[0-9]+$", "0451"));
        assert!(m("[^aeiou]", "sky"));
        assert!(!m("^[^aeiou]+$", "aeiou"));
        assert!(m("[]]", "]"), "']' first in class is literal");
    }

    #[test]
    fn escapes() {
        assert!(m(r"3\.14", "3.14"));
        assert!(!m(r"3\.14", "3514"));
        assert!(m(r"a\*b", "a*b"));
    }

    #[test]
    fn case_insensitive_flag() {
        let r = Regex::compile("gandalf", true).unwrap();
        assert!(r.is_match("GANDALF lives"));
        let r = Regex::compile("GANDALF", true).unwrap();
        assert!(r.is_match("gandalf"));
        let r = Regex::compile("gandalf", false).unwrap();
        assert!(!r.is_match("GANDALF"));
    }

    #[test]
    fn bad_patterns_rejected() {
        assert!(Regex::compile("*a", false).is_err());
        assert!(Regex::compile("a[b", false).is_err());
        assert!(Regex::compile("a\\", false).is_err());
        assert!(Regex::compile("[z-a]", false).is_err());
    }

    #[test]
    fn pathological_pattern_terminates() {
        // Classic exponential blowup input; must return (false) quickly
        // thanks to the step limit rather than hanging.
        let r = Regex::compile("a*a*a*a*a*a*a*a*a*b", false).unwrap();
        let text = "a".repeat(60);
        assert!(!r.is_match(&text) || r.is_match(&text));
    }

    #[test]
    fn unicode_literals() {
        assert!(m("naïve", "a naïve approach"));
        assert!(m("日本", "日本語"));
    }
}
