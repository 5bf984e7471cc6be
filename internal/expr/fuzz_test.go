package expr

import (
	"strings"
	"testing"
)

// FuzzParse drives the expression parser with arbitrary input. For any
// input that parses, it checks the printer/parser round-trip (String()
// must reparse to the same canonical form), that Simplify and Eval
// terminate without panicking, and that Simplify preserves the canonical
// form's ability to be printed and reparsed.
// TestParseDepthLimit pins the fix for a fuzzing find: deeply nested
// input used to recurse once per level and kill the process with an
// unrecoverable stack overflow. The parser now rejects it with an error.
func TestParseDepthLimit(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("(", 100_000) + "x" + strings.Repeat(")", 100_000),
		strings.Repeat("-", 100_000) + "x",
		strings.Repeat("abs(", 100_000) + "x" + strings.Repeat(")", 100_000),
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected depth error for %d-byte input", len(src))
		}
	}
	// Left-associated chains grow the token list, not the stack.
	if _, err := Parse(strings.Repeat("1+", 100_000) + "1"); err != nil {
		t.Errorf("wide expression should parse: %v", err)
	}
	// Real UDAF definitions stay far below the limit (each paren level
	// costs two recursion frames, so 200 parens ≈ depth 400).
	if _, err := Parse(strings.Repeat("(", 200) + "x" + strings.Repeat(")", 200)); err != nil {
		t.Errorf("200-deep nesting should parse: %v", err)
	}
}

func FuzzParse(f *testing.F) {
	seeds := []string{
		"x",
		"sum(x^2)",
		"sqrt(sum(x^2)/count())",
		"prod(x)^(1/count())",
		"ln(sum(exp(x)))",
		"count()/sum(x^(-1))",
		"(sum(x*y) - sum(x)*sum(y)/count()) / count()",
		"1 + 2 * 3 - 4 / 5",
		"-x^2",
		"2^-3",
		"1e3 + 1.5e-2 + .5",
		"abs(sgn(cbrt(inv(x))))",
		"x_1 + x_2",
		"((((x))))",
		"sum(2*x) / 2",
		// Regression seeds from earlier fuzzing sessions.
		"0e-0",  // zero with exponent: FormatFloat must round-trip
		"1e309", // overflows to +Inf at lex time
		"9e99^9e99",
		strings.Repeat("(", 30) + "x" + strings.Repeat(")", 30),
		strings.Repeat("-", 40) + "x",
		"sum(" + strings.Repeat("abs(", 20) + "x" + strings.Repeat(")", 20) + ")",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		s := n.String()
		n2, err := Parse(s)
		if err != nil {
			t.Fatalf("String() of parsed %q does not reparse: %q: %v", src, s, err)
		}
		c1, c2 := CanonicalString(n), CanonicalString(n2)
		if c1 != c2 {
			t.Fatalf("round-trip changed canonical form: %q -> %q vs %q", src, c1, c2)
		}
		// Simplify and Eval must terminate cleanly on anything that parses.
		env := MapEnv{}
		for _, v := range Vars(n) {
			env[v] = 1.5
		}
		if !ContainsAggregate(n) {
			_, _ = Eval(n, env)
			_, _ = Eval(Simplify(n), env)
		}
	})
}
