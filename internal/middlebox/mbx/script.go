package mbx

import (
	"fmt"
	"strconv"
	"strings"

	"pvn/internal/middlebox"
	"pvn/internal/packet"
)

// ScriptBox executes user-supplied filter programs written in a tiny,
// deliberately restricted language — the paper's "secure sandboxes using
// a restricted development language that minimizes attack surfaces"
// (§3.3). The language has no loops, no state, no I/O: a program is a
// list of first-match-wins rules over packet fields, each a bounded
// boolean expression, so evaluation cost is linear in program size and a
// hostile program cannot consume unbounded resources or touch other
// users' traffic.
//
// Syntax (one rule per line, '#' comments):
//
//	when <expr> then pass
//	when <expr> then drop
//	when <expr> then alert "message"
//
// Expressions combine comparisons with and/or/not and parentheses:
//
//	proto == tcp            dport == 443
//	host contains "ads"     path startswith "/track"
//	payload contains "key"  src == 10.0.0.5
//
// Fields: proto, sport, dport, src, dst, host, path, payload.
type ScriptBox struct {
	rules []scriptRule

	// Matched counts rules fired.
	Matched int64
}

type scriptAction struct {
	kind  string // "pass" | "drop" | "alert"
	alert string
}

type scriptRule struct {
	expr   scriptExpr
	action scriptAction
}

// scriptExpr is an evaluatable boolean expression tree.
type scriptExpr interface {
	eval(f *scriptFields) bool
}

// scriptFields is the evaluation environment extracted from one packet.
type scriptFields struct {
	proto        string
	sport, dport int
	src, dst     string
	host, path   string
	payload      string
}

type exprAnd struct{ l, r scriptExpr }
type exprOr struct{ l, r scriptExpr }
type exprNot struct{ e scriptExpr }

func (e exprAnd) eval(f *scriptFields) bool { return e.l.eval(f) && e.r.eval(f) }
func (e exprOr) eval(f *scriptFields) bool  { return e.l.eval(f) || e.r.eval(f) }
func (e exprNot) eval(f *scriptFields) bool { return !e.e.eval(f) }

type exprCmp struct {
	field string
	op    string // "==", "!=", "contains", "startswith"
	value string
}

func (e exprCmp) eval(f *scriptFields) bool {
	var got string
	switch e.field {
	case "proto":
		got = f.proto
	case "sport":
		got = strconv.Itoa(f.sport)
	case "dport":
		got = strconv.Itoa(f.dport)
	case "src":
		got = f.src
	case "dst":
		got = f.dst
	case "host":
		got = f.host
	case "path":
		got = f.path
	case "payload":
		got = f.payload
	}
	got = strings.ToLower(got)
	want := strings.ToLower(e.value)
	switch e.op {
	case "==":
		return got == want
	case "!=":
		return got != want
	case "contains":
		return strings.Contains(got, want)
	case "startswith":
		return strings.HasPrefix(got, want)
	}
	return false
}

// CompileScript parses a program. Compilation enforces the sandbox
// limits: at most 128 rules and 64 tokens per expression.
func CompileScript(src string) (*ScriptBox, error) {
	box := &ScriptBox{}
	for lineNo, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rule, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("script line %d: %w", lineNo+1, err)
		}
		box.rules = append(box.rules, rule)
		if len(box.rules) > 128 {
			return nil, fmt.Errorf("script: too many rules (limit 128)")
		}
	}
	return box, nil
}

func parseRule(line string) (scriptRule, error) {
	toks, err := tokenize(line)
	if err != nil {
		return scriptRule{}, err
	}
	if len(toks) > 64 {
		return scriptRule{}, fmt.Errorf("expression too long (%d tokens, limit 64)", len(toks))
	}
	p := &scriptParser{toks: toks}
	if !p.accept("when") {
		return scriptRule{}, fmt.Errorf("rule must start with 'when'")
	}
	expr, err := p.parseOr()
	if err != nil {
		return scriptRule{}, err
	}
	if !p.accept("then") {
		return scriptRule{}, fmt.Errorf("expected 'then' after expression")
	}
	act, err := p.parseAction()
	if err != nil {
		return scriptRule{}, err
	}
	if p.pos != len(p.toks) {
		return scriptRule{}, fmt.Errorf("trailing tokens after action")
	}
	return scriptRule{expr: expr, action: act}, nil
}

// tokenize splits on whitespace, keeping quoted strings and
// parentheses as single tokens.
func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '(' || c == ')':
			toks = append(toks, string(c))
			i++
		case c == '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				j++
			}
			if j >= len(s) {
				return nil, fmt.Errorf("unterminated string")
			}
			toks = append(toks, s[i:j+1])
			i = j + 1
		default:
			j := i
			for j < len(s) && s[j] != ' ' && s[j] != '\t' && s[j] != '(' && s[j] != ')' {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks, nil
}

type scriptParser struct {
	toks []string
	pos  int
}

func (p *scriptParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *scriptParser) accept(tok string) bool {
	if p.peek() == tok {
		p.pos++
		return true
	}
	return false
}

func (p *scriptParser) parseOr() (scriptExpr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept("or") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = exprOr{l, r}
	}
	return l, nil
}

func (p *scriptParser) parseAnd() (scriptExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept("and") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = exprAnd{l, r}
	}
	return l, nil
}

var validFields = map[string]bool{
	"proto": true, "sport": true, "dport": true, "src": true,
	"dst": true, "host": true, "path": true, "payload": true,
}

var validOps = map[string]bool{"==": true, "!=": true, "contains": true, "startswith": true}

func (p *scriptParser) parseUnary() (scriptExpr, error) {
	if p.accept("not") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return exprNot{e}, nil
	}
	if p.accept("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.accept(")") {
			return nil, fmt.Errorf("missing ')'")
		}
		return e, nil
	}
	field := p.peek()
	if !validFields[field] {
		return nil, fmt.Errorf("unknown field %q", field)
	}
	p.pos++
	op := p.peek()
	if !validOps[op] {
		return nil, fmt.Errorf("unknown operator %q", op)
	}
	p.pos++
	val := p.peek()
	if val == "" {
		return nil, fmt.Errorf("missing value after %s %s", field, op)
	}
	p.pos++
	val = strings.Trim(val, `"`)
	return exprCmp{field: field, op: op, value: val}, nil
}

func (p *scriptParser) parseAction() (scriptAction, error) {
	switch {
	case p.accept("pass"):
		return scriptAction{kind: "pass"}, nil
	case p.accept("drop"):
		return scriptAction{kind: "drop"}, nil
	case p.accept("alert"):
		msg := strings.Trim(p.peek(), `"`)
		if msg == "" {
			return scriptAction{}, fmt.Errorf("alert requires a message")
		}
		p.pos++
		return scriptAction{kind: "alert", alert: msg}, nil
	}
	return scriptAction{}, fmt.Errorf("unknown action %q", p.peek())
}

// Name implements middlebox.Box.
func (s *ScriptBox) Name() string { return "user-script" }

// Process implements middlebox.Box: first matching rule decides.
func (s *ScriptBox) Process(ctx *middlebox.Context, data []byte) ([]byte, middlebox.Verdict, error) {
	f := extractScriptFields(ctx.Packet(data))
	for _, r := range s.rules {
		if !r.expr.eval(f) {
			continue
		}
		s.Matched++
		switch r.action.kind {
		case "drop":
			return nil, middlebox.VerdictDrop, nil
		case "alert":
			ctx.Alert("script", r.action.alert)
			return data, middlebox.VerdictPass, nil
		default:
			return data, middlebox.VerdictPass, nil
		}
	}
	return data, middlebox.VerdictPass, nil
}

func extractScriptFields(p *packet.Packet) *scriptFields {
	f := &scriptFields{}
	if ip := p.IPv4(); ip != nil {
		f.src, f.dst = ip.Src.String(), ip.Dst.String()
		switch ip.Protocol {
		case packet.IPProtoTCP:
			f.proto = "tcp"
		case packet.IPProtoUDP:
			f.proto = "udp"
		}
	}
	if t := p.TCP(); t != nil {
		f.sport, f.dport = int(t.SrcPort), int(t.DstPort)
	} else if u := p.UDP(); u != nil {
		f.sport, f.dport = int(u.SrcPort), int(u.DstPort)
	}
	if h := p.HTTP(); h != nil {
		f.host, f.path = h.Host(), h.Path
		f.payload = string(h.Body)
	} else {
		f.payload = string(p.ApplicationPayload())
	}
	if f.host == "" {
		f.host = hostOf(p)
	}
	return f
}
