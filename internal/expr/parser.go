package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexical token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokNum
	tokIdent
	tokOp     // + - * / ^
	tokLParen // (
	tokRParen // )
	tokComma
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer tokenizes a UDAF expression.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c >= '0' && c <= '9' || c == '.':
			start := l.pos
			seenDot := false
			seenExp := false
			for l.pos < len(l.src) {
				ch := l.src[l.pos]
				if ch >= '0' && ch <= '9' {
					l.pos++
				} else if ch == '.' && !seenDot && !seenExp {
					seenDot = true
					l.pos++
				} else if (ch == 'e' || ch == 'E') && !seenExp && l.pos > start {
					// exponent must be followed by digits or sign
					if l.pos+1 < len(l.src) && (isDigit(l.src[l.pos+1]) || l.src[l.pos+1] == '+' || l.src[l.pos+1] == '-') {
						seenExp = true
						l.pos += 2
					} else {
						break
					}
				} else {
					break
				}
			}
			l.toks = append(l.toks, token{tokNum, l.src[start:l.pos], start})
		case isIdentStart(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		case c == '+' || c == '-' || c == '*' || c == '/' || c == '^':
			l.toks = append(l.toks, token{tokOp, string(c), l.pos})
			l.pos++
		case c == '(':
			l.toks = append(l.toks, token{tokLParen, "(", l.pos})
			l.pos++
		case c == ')':
			l.toks = append(l.toks, token{tokRParen, ")", l.pos})
			l.pos++
		case c == ',':
			l.toks = append(l.toks, token{tokComma, ",", l.pos})
			l.pos++
		default:
			return nil, fmt.Errorf("unexpected character %q at offset %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", len(l.src)})
	return l.toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// parser is a recursive-descent parser with standard precedence:
// ^ (right-assoc, binds tightest), unary -, then * /, then + -.
type parser struct {
	toks  []token
	i     int
	src   string
	depth int
}

// maxParseDepth bounds expression nesting. The parser (and every AST
// consumer after it: String, Simplify, Eval, Walk) recurses per nesting
// level, so unbounded input depth means an unrecoverable goroutine stack
// overflow. 500 is far beyond any real UDAF definition.
const maxParseDepth = 500

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return fmt.Errorf("expression nested deeper than %d levels", maxParseDepth)
	}
	return nil
}

// Parse parses a UDAF expression into an AST.
func Parse(src string) (Node, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	n, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("unexpected trailing input %q at offset %d", p.peek().text, p.peek().pos)
	}
	return n, nil
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expect(kind tokKind, what string) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return t, fmt.Errorf("expected %s at offset %d, found %q", what, t.pos, t.text)
	}
	return p.next(), nil
}

func (p *parser) parseAdd() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.next()
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &Bin{Op: t.text[0], L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseMul() (Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.text == "*" || t.text == "/") {
			p.next()
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Bin{Op: t.text[0], L: left, R: right}
			continue
		}
		return left, nil
	}
}

func (p *parser) parseUnary() (Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer func() { p.depth-- }()
	t := p.peek()
	if t.kind == tokOp && t.text == "-" {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Neg{X: x}, nil
	}
	if t.kind == tokOp && t.text == "+" {
		p.next()
		return p.parseUnary()
	}
	return p.parsePow()
}

func (p *parser) parsePow() (Node, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp && t.text == "^" {
		p.next()
		// right-associative; exponent may itself be a unary-negated power
		exp, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: '^', L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parsePrimary() (Node, error) {
	t := p.peek()
	switch t.kind {
	case tokNum:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q at offset %d: %v", t.text, t.pos, err)
		}
		return &Num{Val: v}, nil
	case tokIdent:
		p.next()
		name := strings.ToLower(t.text)
		if p.peek().kind == tokLParen {
			p.next()
			var args []Node
			if p.peek().kind != tokRParen {
				for {
					a, err := p.parseAdd()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if p.peek().kind == tokComma {
						p.next()
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return p.checkCall(name, args, t.pos)
		}
		switch name {
		case "pi":
			return &Num{Val: 3.141592653589793}, nil
		case "e":
			return &Num{Val: 2.718281828459045}, nil
		case "n":
			// n is sugar for count() in statistics formulas.
			return &Call{Name: "count"}, nil
		}
		return &Var{Name: t.text}, nil
	case tokLParen:
		p.next()
		n, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return n, nil
	}
	return nil, fmt.Errorf("unexpected token %q at offset %d", t.text, t.pos)
}

func (p *parser) checkCall(name string, args []Node, pos int) (Node, error) {
	if AggregateFuncs[name] {
		want := 1
		if name == "count" {
			want = 0
		}
		if len(args) != want {
			return nil, fmt.Errorf("aggregate %s takes %d argument(s), got %d (offset %d)", name, want, len(args), pos)
		}
		return &Call{Name: name, Args: args}, nil
	}
	if f, ok := Funcs[name]; ok {
		if len(args) != f.Arity {
			return nil, fmt.Errorf("function %s takes %d argument(s), got %d (offset %d)", name, f.Arity, len(args), pos)
		}
		return &Call{Name: name, Args: args}, nil
	}
	return nil, fmt.Errorf("unknown function %q at offset %d", name, pos)
}
