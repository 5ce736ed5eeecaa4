package testgen

import (
	"fmt"
	"slices"
	"strings"
)

// March notation parser. Memory-test literature writes March algorithms in
// the element notation the paper's references use, e.g. March C- as
//
//	{⇕(w0); ⇑(r0,w1); ⇑(r1,w0); ⇓(r0,w1); ⇓(r1,w0); ⇕(r0)}
//
// ParseMarch accepts that notation (and the ASCII fallbacks "u"/"d"/"a"
// for ⇑/⇓/⇕) so test engineers can define algorithms in configuration
// rather than code:
//
//	ParseMarch("March C-", "a(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); a(r0)")

// ParseMarch parses a March algorithm from element notation. Braces are
// optional; elements separate with ';'.
func ParseMarch(name, notation string) (MarchAlgorithm, error) {
	alg := MarchAlgorithm{Name: name}
	s := strings.TrimSpace(notation)
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	if strings.TrimSpace(s) == "" {
		return alg, fmt.Errorf("testgen: empty march notation")
	}
	for i, elem := range strings.Split(s, ";") {
		elem = strings.TrimSpace(elem)
		if elem == "" {
			continue
		}
		e, err := parseMarchElement(elem)
		if err != nil {
			return alg, fmt.Errorf("testgen: march element %d %q: %w", i, elem, err)
		}
		alg.Elements = append(alg.Elements, e)
	}
	if len(alg.Elements) == 0 {
		return alg, fmt.Errorf("testgen: march notation has no elements")
	}
	return alg, nil
}

func parseMarchElement(s string) (MarchElement, error) {
	var e MarchElement
	// Address order marker.
	switch {
	case strings.HasPrefix(s, "⇑"), strings.HasPrefix(s, "u"), strings.HasPrefix(s, "U"):
		e.Order = OrderUp
		s = trimOrderMarker(s, "⇑", "u", "U")
	case strings.HasPrefix(s, "⇓"), strings.HasPrefix(s, "d"), strings.HasPrefix(s, "D"):
		e.Order = OrderDown
		s = trimOrderMarker(s, "⇓", "d", "D")
	case strings.HasPrefix(s, "⇕"), strings.HasPrefix(s, "a"), strings.HasPrefix(s, "A"):
		e.Order = OrderAny
		s = trimOrderMarker(s, "⇕", "a", "A")
	default:
		return e, fmt.Errorf("missing address-order marker (⇑/⇓/⇕ or u/d/a)")
	}
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return e, fmt.Errorf("operations must be parenthesized")
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return e, fmt.Errorf("empty operation list")
	}
	for _, opStr := range strings.Split(inner, ",") {
		opStr = strings.TrimSpace(strings.ToLower(opStr))
		var op MarchOp
		switch opStr {
		case "r0":
			op = MarchOp{Write: false, Background: true}
		case "r1":
			op = MarchOp{Write: false, Background: false}
		case "w0":
			op = MarchOp{Write: true, Background: true}
		case "w1":
			op = MarchOp{Write: true, Background: false}
		default:
			return e, fmt.Errorf("unknown operation %q (want r0, r1, w0 or w1)", opStr)
		}
		e.Ops = append(e.Ops, op)
	}
	return e, nil
}

func trimOrderMarker(s string, markers ...string) string {
	for _, m := range markers {
		if strings.HasPrefix(s, m) {
			return s[len(m):]
		}
	}
	return s
}

// FormatMarch renders an algorithm back to ASCII element notation
// (round-trips with ParseMarch).
func FormatMarch(a MarchAlgorithm) string {
	var parts []string
	for _, e := range a.Elements {
		marker := "a"
		switch e.Order {
		case OrderUp:
			marker = "u"
		case OrderDown:
			marker = "d"
		}
		var ops []string
		for _, op := range e.Ops {
			s := "r"
			if op.Write {
				s = "w"
			}
			if op.Background {
				s += "0"
			} else {
				s += "1"
			}
			ops = append(ops, s)
		}
		parts = append(parts, marker+"("+strings.Join(ops, ",")+")")
	}
	return strings.Join(parts, "; ")
}

// Well-known algorithms in notation form. MarchFromLibrary instantiates one
// by name.
var marchLibrary = map[string]string{
	"MATS":     "a(w0); a(r0,w1); a(r1)",
	"MATS+":    "a(w0); u(r0,w1); d(r1,w0)",
	"MATS++":   "a(w0); u(r0,w1); d(r1,w0,r0)",
	"March X":  "a(w0); u(r0,w1); d(r1,w0); a(r0)",
	"March Y":  "a(w0); u(r0,w1,r1); d(r1,w0,r0); a(r0)",
	"March C-": "a(w0); u(r0,w1); u(r1,w0); d(r0,w1); d(r1,w0); a(r0)",
	"March A":  "a(w0); u(r0,w1,w0,w1); u(r1,w0,w1); d(r1,w0,w1,w0); d(r0,w1,w0)",
	"March B":  "a(w0); u(r0,w1,r1,w0,r0,w1); u(r1,w0,w1); d(r1,w0,w1,w0); d(r0,w1,w0)",
	"March SS": "a(w0); u(r0,r0,w0,r0,w1); u(r1,r1,w1,r1,w0); d(r0,r0,w0,r0,w1); d(r1,r1,w1,r1,w0); a(r0)",
	"March LR": "a(w0); d(r0,w1); u(r1,w0,r0,w1); u(r1,w0); u(r0,w1,r1,w0); a(r0)",
}

// MarchLibraryNames lists the algorithms available from MarchFromLibrary,
// sorted by name.
func MarchLibraryNames() []string {
	names := make([]string, 0, len(marchLibrary))
	for n := range marchLibrary {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// MarchFromLibrary instantiates a well-known March algorithm by name.
func MarchFromLibrary(name string) (MarchAlgorithm, error) {
	notation, ok := marchLibrary[name]
	if !ok {
		return MarchAlgorithm{}, fmt.Errorf("testgen: unknown march algorithm %q", name)
	}
	return ParseMarch(name, notation)
}
