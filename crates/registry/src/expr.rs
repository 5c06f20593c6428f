//! A tiny arithmetic-expression evaluator for technology-pack
//! derating rules.
//!
//! Pack authors write derived parameters as expressions over named
//! variables (the base model's values), e.g. `base * 1.08` or
//! `defect_density_per_cm2 + 0.02 * (7 - nm)`. The grammar is
//! deliberately small — no dependencies, no surprises:
//!
//! ```text
//! expr    := term (('+' | '-') term)*
//! term    := unary (('*' | '/') unary)*
//! unary   := '-' unary | atom
//! atom    := number | identifier | '(' expr ')'
//! ```
//!
//! Numbers are JSON-style decimals (`12`, `0.5`, `1e-3`); identifiers
//! are `[A-Za-z_][A-Za-z0-9_]*` and resolve against the variable map
//! supplied at evaluation time. Errors carry the 1-based **column** of
//! the offending token so a pack file can report exactly where a rule
//! went wrong. Expressions nest at most [`MAX_DEPTH`] levels deep.
//!
//! ```
//! use tdc_registry::expr::Expression;
//!
//! let expr = Expression::parse("base * (1 + margin)").unwrap();
//! let value = expr
//!     .eval(&|name| match name {
//!         "base" => Some(10.0),
//!         "margin" => Some(0.1),
//!         _ => None,
//!     })
//!     .unwrap();
//! assert!((value - 11.0).abs() < 1e-12);
//! ```

use std::fmt;

/// An error from parsing or evaluating a pack expression, carrying
/// the 1-based column where the problem starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError {
    /// 1-based column of the offending character or token.
    pub column: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression error at column {}: {}",
            self.column, self.message
        )
    }
}

impl std::error::Error for ExprError {}

fn err(column: usize, message: impl Into<String>) -> ExprError {
    ExprError {
        column,
        message: message.into(),
    }
}

/// The deepest expression [`Expression::parse`] accepts, counted both
/// in open parentheses and negations and in levels of the parsed tree:
/// parsing, evaluation, [`Expression::variables`] and `Drop` all
/// recurse once per level, so deeper input is rejected with its column
/// instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

fn too_deep(column: usize) -> ExprError {
    err(
        column,
        format!("expression nests deeper than {MAX_DEPTH} levels"),
    )
}

/// A parsed pack expression, ready to evaluate against a variable map.
#[derive(Debug, Clone, PartialEq)]
pub struct Expression {
    root: Node,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Number(f64),
    /// Variable reference; the column is kept for lookup errors.
    Variable {
        name: String,
        column: usize,
    },
    Binary {
        op: Op,
        lhs: Box<Node>,
        rhs: Box<Node>,
        column: usize,
    },
    Negate(Box<Node>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Open,
    Close,
}

/// A token plus the 1-based column where it starts.
type Spanned = (Token, usize);

/// A parsed subtree plus its height (0 for a leaf).
type Parsed = (Node, usize);

/// Joins two operands under `op`, one level above the taller one.
fn binary(
    op: Op,
    (lhs, lh): Parsed,
    (rhs, rh): Parsed,
    column: usize,
) -> Result<Parsed, ExprError> {
    let height = lh.max(rh) + 1;
    if height > MAX_DEPTH {
        return Err(too_deep(column));
    }
    let node = Node::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
        column,
    };
    Ok((node, height))
}

fn tokenize(source: &str) -> Result<Vec<Spanned>, ExprError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let column = i + 1;
        let b = bytes[i];
        match b {
            b' ' | b'\t' => i += 1,
            b'+' => {
                tokens.push((Token::Plus, column));
                i += 1;
            }
            b'-' => {
                tokens.push((Token::Minus, column));
                i += 1;
            }
            b'*' => {
                tokens.push((Token::Star, column));
                i += 1;
            }
            b'/' => {
                tokens.push((Token::Slash, column));
                i += 1;
            }
            b'(' => {
                tokens.push((Token::Open, column));
                i += 1;
            }
            b')' => {
                tokens.push((Token::Close, column));
                i += 1;
            }
            b'0'..=b'9' | b'.' => {
                let start = i;
                while i < bytes.len() && matches!(bytes[i], b'0'..=b'9' | b'.') {
                    i += 1;
                }
                // Optional exponent: e / E, optional sign, digits.
                if i < bytes.len() && matches!(bytes[i], b'e' | b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && matches!(bytes[j], b'+' | b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j].is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                let text = &source[start..i];
                let value: f64 = text
                    .parse()
                    .map_err(|_| err(column, format!("invalid number `{text}`")))?;
                tokens.push((Token::Number(value), column));
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
                {
                    i += 1;
                }
                tokens.push((Token::Ident(source[start..i].to_owned()), column));
            }
            _ => {
                let ch = source[i..].chars().next().unwrap_or('?');
                return Err(err(column, format!("unexpected character `{ch}`")));
            }
        }
    }
    Ok(tokens)
}

struct Parser<'a> {
    tokens: &'a [Spanned],
    pos: usize,
    /// Column just past the end of the source, for "unexpected end".
    end: usize,
    /// Parentheses and negations currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<&Spanned> {
        let t = self.tokens.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Runs `parse` one parenthesis or negation deeper, refusing to
    /// open a level beyond [`MAX_DEPTH`] (`column` names the opener).
    fn descend(
        &mut self,
        column: usize,
        parse: fn(&mut Self) -> Result<Parsed, ExprError>,
    ) -> Result<Parsed, ExprError> {
        if self.depth == MAX_DEPTH {
            return Err(too_deep(column));
        }
        self.depth += 1;
        let parsed = parse(self);
        self.depth -= 1;
        parsed
    }

    fn expr(&mut self) -> Result<Parsed, ExprError> {
        let mut lhs = self.term()?;
        while let Some((token, column)) = self.peek() {
            let op = match token {
                Token::Plus => Op::Add,
                Token::Minus => Op::Sub,
                _ => break,
            };
            let column = *column;
            self.pos += 1;
            let rhs = self.term()?;
            lhs = binary(op, lhs, rhs, column)?;
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Parsed, ExprError> {
        let mut lhs = self.unary()?;
        while let Some((token, column)) = self.peek() {
            let op = match token {
                Token::Star => Op::Mul,
                Token::Slash => Op::Div,
                _ => break,
            };
            let column = *column;
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = binary(op, lhs, rhs, column)?;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Parsed, ExprError> {
        if let Some(&(Token::Minus, column)) = self.peek() {
            self.pos += 1;
            let (inner, height) = self.descend(column, Self::unary)?;
            if height == MAX_DEPTH {
                return Err(too_deep(column));
            }
            return Ok((Node::Negate(Box::new(inner)), height + 1));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Parsed, ExprError> {
        let Some((token, column)) = self.bump() else {
            return Err(err(self.end, "unexpected end of expression"));
        };
        let column = *column;
        match token {
            Token::Number(value) => Ok((Node::Number(*value), 0)),
            Token::Ident(name) => Ok((
                Node::Variable {
                    name: name.clone(),
                    column,
                },
                0,
            )),
            Token::Open => {
                let inner = self.descend(column, Self::expr)?;
                match self.bump() {
                    Some((Token::Close, _)) => Ok(inner),
                    Some((_, c)) => Err(err(*c, "expected `)`")),
                    None => Err(err(self.end, "missing `)`")),
                }
            }
            Token::Plus => Err(err(column, "expected a value before `+`")),
            Token::Minus => Err(err(column, "expected a value before `-`")),
            Token::Star => Err(err(column, "expected a value before `*`")),
            Token::Slash => Err(err(column, "expected a value before `/`")),
            Token::Close => Err(err(column, "unmatched `)`")),
        }
    }
}

impl Expression {
    /// Parses `source` into an evaluable expression.
    ///
    /// # Errors
    ///
    /// Returns an [`ExprError`] naming the 1-based column of the first
    /// syntax problem.
    pub fn parse(source: &str) -> Result<Self, ExprError> {
        let tokens = tokenize(source)?;
        if tokens.is_empty() {
            return Err(err(1, "empty expression"));
        }
        let mut parser = Parser {
            tokens: &tokens,
            pos: 0,
            end: source.len() + 1,
            depth: 0,
        };
        let (root, _) = parser.expr()?;
        if let Some((_, column)) = parser.peek() {
            return Err(err(*column, "unexpected trailing input"));
        }
        Ok(Self { root })
    }

    /// Evaluates the expression; `lookup` maps variable names to
    /// values.
    ///
    /// # Errors
    ///
    /// Returns an [`ExprError`] for an unknown variable, division by
    /// zero, or a non-finite intermediate result.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<f64>) -> Result<f64, ExprError> {
        fn walk(node: &Node, lookup: &dyn Fn(&str) -> Option<f64>) -> Result<f64, ExprError> {
            match node {
                Node::Number(v) => Ok(*v),
                Node::Variable { name, column } => {
                    lookup(name).ok_or_else(|| err(*column, format!("unknown variable `{name}`")))
                }
                Node::Negate(inner) => Ok(-walk(inner, lookup)?),
                Node::Binary {
                    op,
                    lhs,
                    rhs,
                    column,
                } => {
                    let a = walk(lhs, lookup)?;
                    let b = walk(rhs, lookup)?;
                    let v = match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        Op::Mul => a * b,
                        Op::Div => {
                            if b == 0.0 {
                                return Err(err(*column, "division by zero"));
                            }
                            a / b
                        }
                    };
                    if v.is_finite() {
                        Ok(v)
                    } else {
                        Err(err(*column, "non-finite result"))
                    }
                }
            }
        }
        walk(&self.root, lookup)
    }

    /// The variable names this expression references, in first-use
    /// order (useful for validating a pack without evaluating it).
    #[must_use]
    pub fn variables(&self) -> Vec<String> {
        fn walk(node: &Node, out: &mut Vec<String>) {
            match node {
                Node::Number(_) => {}
                Node::Variable { name, .. } => {
                    if !out.iter().any(|n| n == name) {
                        out.push(name.clone());
                    }
                }
                Node::Negate(inner) => walk(inner, out),
                Node::Binary { lhs, rhs, .. } => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str, vars: &[(&str, f64)]) -> Result<f64, ExprError> {
        Expression::parse(src)?.eval(&|name| vars.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
    }

    #[test]
    fn precedence_and_parens() {
        assert_eq!(eval("1 + 2 * 3", &[]).unwrap(), 7.0);
        assert_eq!(eval("(1 + 2) * 3", &[]).unwrap(), 9.0);
        assert_eq!(eval("8 / 2 / 2", &[]).unwrap(), 2.0);
        assert_eq!(eval("2 - 3 - 4", &[]).unwrap(), -5.0);
    }

    #[test]
    fn unary_minus_and_exponents() {
        assert_eq!(eval("-3 * -2", &[]).unwrap(), 6.0);
        assert_eq!(eval("1e3 + 2.5e-1", &[]).unwrap(), 1000.25);
        assert_eq!(eval("--4", &[]).unwrap(), 4.0);
    }

    #[test]
    fn variables_resolve() {
        assert_eq!(eval("base * 1.5", &[("base", 4.0)]).unwrap(), 6.0);
        assert_eq!(
            eval("a + b_2 * (a - 1)", &[("a", 2.0), ("b_2", 3.0)]).unwrap(),
            5.0
        );
    }

    #[test]
    fn errors_carry_columns() {
        let e = Expression::parse("1 + $").unwrap_err();
        assert_eq!(e.column, 5);
        assert!(e.message.contains('$'), "{e}");

        let e = Expression::parse("2 * (3 + 4").unwrap_err();
        assert_eq!(e.column, 11, "{e}");

        let e = Expression::parse("1 + ").unwrap_err();
        assert_eq!(e.column, 5, "{e}");

        let e = Expression::parse("1 2").unwrap_err();
        assert_eq!(e.column, 3, "{e}");

        let e = eval("base / 1", &[]).unwrap_err();
        assert_eq!(e.column, 1);
        assert!(e.message.contains("base"), "{e}");

        let e = eval("1 / 0", &[]).unwrap_err();
        assert_eq!(e.column, 3);
        assert!(e.message.contains("division"), "{e}");
    }

    #[test]
    fn nesting_is_capped_with_a_column() {
        let n = 200_000;
        let deep = [
            (format!("{}1", "(".repeat(n)), MAX_DEPTH + 1),
            (format!("{}1", "-".repeat(n)), MAX_DEPTH + 1),
            ("1+".repeat(n) + "1", 2 * (MAX_DEPTH + 1)),
            ("2*".repeat(n) + "2", 2 * (MAX_DEPTH + 1)),
        ];
        for (source, column) in deep {
            let e = Expression::parse(&source).unwrap_err();
            assert_eq!(e.column, column, "{e}");
            assert!(e.message.contains("deeper"), "{e}");
        }
        let parens = format!("{}1{}", "(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert_eq!(eval(&parens, &[]).unwrap(), 1.0);
        let chain = "1+".repeat(MAX_DEPTH) + "1";
        #[allow(clippy::cast_precision_loss)]
        let sum = (MAX_DEPTH + 1) as f64;
        assert_eq!(eval(&chain, &[]).unwrap(), sum);
    }

    #[test]
    fn variable_listing() {
        let expr = Expression::parse("base * (1 + base) - nm / k").unwrap();
        assert_eq!(expr.variables(), vec!["base", "nm", "k"]);
    }

    #[test]
    fn display_names_the_column() {
        let e = Expression::parse("(").unwrap_err();
        assert_eq!(
            e.to_string(),
            "expression error at column 2: unexpected end of expression"
        );
    }
}
