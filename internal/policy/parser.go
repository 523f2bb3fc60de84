package policy

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/amuse/smc/internal/event"
)

// Parse parses Ponder-lite policy text.
func Parse(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.eof() {
		switch {
		case p.accept("obligation"):
			o, err := p.obligation()
			if err != nil {
				return nil, err
			}
			f.Obligations = append(f.Obligations, o)
		case p.accept("authorization"):
			a, err := p.authorization()
			if err != nil {
				return nil, err
			}
			f.Authorizations = append(f.Authorizations, a)
		default:
			return nil, p.errf("expected 'obligation' or 'authorization', got %q", p.peek().text)
		}
	}
	return f, nil
}

// ---- lexer ----

type tokKind int

const (
	tokIdent tokKind = iota + 1
	tokString
	tokNumber
	tokSymbol // { } ( ) , = != < <= > >= && *
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '"':
			j := i + 1
			var sb strings.Builder
			for j < len(src) && src[j] != '"' {
				if src[j] == '\\' && j+1 < len(src) {
					j++
					switch src[j] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					default:
						sb.WriteByte(src[j])
					}
				} else {
					if src[j] == '\n' {
						line++
					}
					sb.WriteByte(src[j])
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("%w: line %d: unterminated string", errParse, line)
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), line: line})
			i = j + 1
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			toks = append(toks, token{kind: tokIdent, text: src[i:j], line: line})
			i = j
		case c == '-' || (c >= '0' && c <= '9'):
			j := i
			if src[j] == '-' {
				j++
			}
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.') {
				j++
			}
			toks = append(toks, token{kind: tokNumber, text: src[i:j], line: line})
			i = j
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "!=", "<=", ">=", "&&":
				toks = append(toks, token{kind: tokSymbol, text: two, line: line})
				i += 2
				continue
			}
			switch c {
			case '{', '}', '(', ')', ',', '=', '<', '>', '*':
				toks = append(toks, token{kind: tokSymbol, text: string(c), line: line})
				i++
			default:
				return nil, fmt.Errorf("%w: line %d: unexpected character %q", errParse, line, string(c))
			}
		}
	}
	return toks, nil
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (p *parser) eof() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.eof() {
		return token{line: p.lastLine()}
	}
	return p.toks[p.pos]
}

func (p *parser) lastLine() int {
	if len(p.toks) == 0 {
		return 1
	}
	return p.toks[len(p.toks)-1].line
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

// accept consumes the next token when it is the given ident/symbol.
func (p *parser) accept(text string) bool {
	if p.eof() {
		return false
	}
	if p.toks[p.pos].text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.accept(text) {
		return nil
	}
	return p.errf("expected %q, got %q", text, p.peek().text)
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: line %d: %s", errParse, p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *parser) stringLit() (string, error) {
	t := p.peek()
	if t.kind != tokString {
		return "", p.errf("expected string literal, got %q", t.text)
	}
	p.pos++
	return t.text, nil
}

// literal parses a value literal.
func (p *parser) literal() (event.Value, error) {
	t := p.peek()
	switch t.kind {
	case tokString:
		p.pos++
		return event.Str(t.text), nil
	case tokNumber:
		p.pos++
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return event.Value{}, p.errf("bad number %q", t.text)
			}
			return event.Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return event.Value{}, p.errf("bad number %q", t.text)
		}
		return event.Int(i), nil
	case tokIdent:
		switch t.text {
		case "true":
			p.pos++
			return event.Bool(true), nil
		case "false":
			p.pos++
			return event.Bool(false), nil
		}
	}
	return event.Value{}, p.errf("expected literal, got %q", t.text)
}

// constraints parses `constraint (&& constraint)*`.
func (p *parser) constraints() (*event.Filter, error) {
	f := event.NewFilter()
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		opTok := p.peek()
		if opTok.text == "exists" {
			p.pos++
			f.Where(name, event.OpExists, event.Value{})
		} else {
			op, err := event.ParseOp(opTok.text)
			if err != nil {
				return nil, p.errf("bad operator %q", opTok.text)
			}
			p.pos++
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			f.Where(name, op, v)
		}
		if !p.accept("&&") {
			return f, nil
		}
	}
}

func (p *parser) obligation() (*Obligation, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	o := &Obligation{name: name}
	if p.accept("for") {
		dt, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		o.deviceType = dt
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	if err := p.expect("on"); err != nil {
		return nil, err
	}
	if o.On, err = p.constraints(); err != nil {
		return nil, err
	}
	if p.accept("when") {
		if o.when, err = p.constraints(); err != nil {
			return nil, err
		}
	}
	if err := p.expect("do"); err != nil {
		return nil, err
	}
	for {
		a, err := p.action()
		if err != nil {
			return nil, err
		}
		o.actions = append(o.actions, a)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect("}"); err != nil {
		return nil, err
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return o, nil
}

func (p *parser) action() (action, error) {
	kw, err := p.ident()
	if err != nil {
		return action{}, err
	}
	if err := p.expect("("); err != nil {
		return action{}, err
	}
	switch kw {
	case "publish":
		a := action{kind: actionPublish}
		for {
			name, err := p.ident()
			if err != nil {
				return action{}, err
			}
			if err := p.expect("="); err != nil {
				return action{}, err
			}
			v, err := p.literal()
			if err != nil {
				return action{}, err
			}
			a.attrs = append(a.attrs, attrAssign{name: name, value: v})
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect(")"); err != nil {
			return action{}, err
		}
		return a, nil
	case "log", "enable", "disable":
		msg, err := p.stringLit()
		if err != nil {
			return action{}, err
		}
		if err := p.expect(")"); err != nil {
			return action{}, err
		}
		kind := map[string]actionKind{
			"log": actionLog, "enable": actionEnable, "disable": actionDisable,
		}[kw]
		return action{kind: kind, message: msg}, nil
	default:
		return action{}, p.errf("unknown action %q", kw)
	}
}

func (p *parser) authorization() (*Authorization, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	a := &Authorization{name: name}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	denies := false
	for !p.accept("}") {
		kw, err := p.ident()
		if err != nil {
			return nil, err
		}
		switch kw {
		case "effect":
			eff, err := p.ident()
			if err != nil {
				return nil, err
			}
			switch eff {
			case "allow":
				return nil, p.errf("authorization %q: effect allow changes no verdict, the default is allow", name)
			case "deny":
				denies = true
			default:
				return nil, p.errf("bad effect %q", eff)
			}
		case "subject":
			if p.accept("*") {
				a.subject = "*"
				continue
			}
			s, err := p.stringLit()
			if err != nil {
				return nil, err
			}
			a.subject = s
		case "action":
			if p.accept("*") {
				a.verb = verbAny
				continue
			}
			v, err := p.ident()
			if err != nil {
				return nil, err
			}
			switch v {
			case "publish":
				a.verb = verbPublish
			case "subscribe":
				a.verb = verbSubscribe
			default:
				return nil, p.errf("bad action verb %q", v)
			}
		case "target":
			if a.target, err = p.constraints(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unknown authorization field %q", kw)
		}
	}
	if !denies {
		return nil, fmt.Errorf("%w: authorization %q without effect", errParse, a.name)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	return a, nil
}
