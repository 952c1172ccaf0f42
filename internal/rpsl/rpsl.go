// Package rpsl generates and parses RPSL aut-num objects (RFC 2622) to
// the extent needed to derive AS relationships from routing policy, the
// paper's second validation source: an AS that imports ANY from a
// neighbor treats it as a provider; an AS that exports ANY to a
// neighbor treats it as a customer; symmetric import/export of each
// other's routes is peering.
package rpsl

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/asrank-go/asrank/internal/asn"
)

// Object is one RPSL object: ordered attribute/value pairs.
type Object struct {
	Attrs []Attr
}

// Attr is one attribute line (continuation lines folded into Value).
type Attr struct {
	Name  string
	Value string
}

// Class returns the object class: the name of the first attribute.
func (o *Object) Class() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Name
}

// First returns the first value of the named attribute.
func (o *Object) First(name string) (string, bool) {
	for _, a := range o.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// All returns every value of the named attribute, in order.
func (o *Object) All(name string) []string {
	var out []string
	for _, a := range o.Attrs {
		if a.Name == name {
			out = append(out, a.Value)
		}
	}
	return out
}

// Parse reads RPSL objects from r. Objects are separated by blank
// lines; '#' starts a comment; lines beginning with whitespace or '+'
// continue the previous attribute, so an attribute name that starts
// with '+' is refused: Write could not render it back.
func Parse(r io.Reader) ([]*Object, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var objects []*Object
	var cur *Object
	lineno := 0
	flush := func() {
		if cur != nil && len(cur.Attrs) > 0 {
			objects = append(objects, cur)
		}
		cur = nil
	}
	for sc.Scan() {
		lineno++
		raw := sc.Text()
		if i := strings.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		if strings.TrimSpace(raw) == "" {
			flush()
			continue
		}
		if raw[0] == ' ' || raw[0] == '\t' || raw[0] == '+' {
			// continuation
			if cur == nil || len(cur.Attrs) == 0 {
				return nil, fmt.Errorf("rpsl: line %d: continuation before any attribute", lineno)
			}
			last := &cur.Attrs[len(cur.Attrs)-1]
			last.Value = strings.TrimSpace(last.Value + " " + strings.TrimSpace(strings.TrimPrefix(raw, "+")))
			continue
		}
		name, value, ok := strings.Cut(raw, ":")
		if !ok {
			return nil, fmt.Errorf("rpsl: line %d: missing colon in %q", lineno, raw)
		}
		name = strings.ToLower(strings.TrimSpace(name))
		if strings.HasPrefix(name, "+") {
			// Only white space Write does not write (a vertical tab, say)
			// keeps such a line from reading as a continuation.
			return nil, fmt.Errorf("rpsl: line %d: attribute name %q starts with '+'", lineno, name)
		}
		if cur == nil {
			cur = &Object{}
		}
		cur.Attrs = append(cur.Attrs, Attr{Name: name, Value: strings.TrimSpace(value)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return objects, nil
}

// Write renders objects in RPSL form.
func Write(w io.Writer, objects []*Object) error {
	bw := bufio.NewWriter(w)
	for i, o := range objects {
		if i > 0 {
			bw.WriteByte('\n')
		}
		for _, a := range o.Attrs {
			fmt.Fprintf(bw, "%-16s%s\n", a.Name+":", a.Value)
		}
	}
	return bw.Flush()
}

// Policy is one parsed import or export policy line.
type Policy struct {
	// Peer is the neighbor ASN the policy applies to.
	Peer uint32
	// Filter is what is accepted (import) or announced (export):
	// "ANY", "AS<me>", "AS-<set>" etc.
	Filter string
}

// AutNum is the policy view of one aut-num object.
type AutNum struct {
	ASN     uint32
	Name    string
	Imports []Policy
	Exports []Policy
}

// ParseAutNum extracts the policy view from an aut-num object.
func ParseAutNum(o *Object) (*AutNum, error) {
	if o.Class() != "aut-num" {
		return nil, fmt.Errorf("rpsl: object class %q is not aut-num", o.Class())
	}
	v, _ := o.First("aut-num")
	a, err := asn.Parse(v)
	if err != nil {
		return nil, fmt.Errorf("rpsl: bad aut-num value %q: %w", v, err)
	}
	an := &AutNum{ASN: a}
	an.Name, _ = o.First("as-name")
	for _, line := range o.All("import") {
		p, err := parsePolicy(line, "from", "accept")
		if err != nil {
			return nil, err
		}
		an.Imports = append(an.Imports, p)
	}
	for _, line := range o.All("export") {
		p, err := parsePolicy(line, "to", "announce")
		if err != nil {
			return nil, err
		}
		an.Exports = append(an.Exports, p)
	}
	return an, nil
}

// parsePolicy handles "from AS123 [action ...;] accept ANY" and
// "to AS123 [action ...;] announce AS-FOO".
func parsePolicy(line, peerKw, filterKw string) (Policy, error) {
	fields := strings.Fields(line)
	var p Policy
	for i := 0; i < len(fields); i++ {
		switch strings.ToLower(fields[i]) {
		case peerKw:
			if i+1 >= len(fields) {
				return p, fmt.Errorf("rpsl: policy %q: %s without peer", line, peerKw)
			}
			a, err := asn.Parse(fields[i+1])
			if err != nil {
				return p, fmt.Errorf("rpsl: policy %q: %w", line, err)
			}
			p.Peer = a
			i++
		case filterKw:
			if i+1 >= len(fields) {
				return p, fmt.Errorf("rpsl: policy %q: %s without filter", line, filterKw)
			}
			if p.Peer == 0 {
				return p, fmt.Errorf("rpsl: policy %q: no %s clause", line, peerKw)
			}
			p.Filter = strings.ToUpper(strings.Join(fields[i+1:], " "))
			return p, nil
		}
	}
	return p, fmt.Errorf("rpsl: policy %q: no %s clause", line, filterKw)
}

// AcceptsAny reports whether the filter is the full table.
func (p Policy) AcceptsAny() bool { return strings.EqualFold(p.Filter, "ANY") }
