package analysis

import (
	"go/token"
	"strings"
)

// The //litegpu: directive grammar.
//
//	//litegpu:hotpath                 marks the next function declaration
//	                                  as an allocation-free hot path
//	                                  (consumed by the hotpath analyzer)
//	//litegpu:ordered-ok <reason>     waives one line's map-iteration
//	                                  findings (determinism analyzer)
//	//litegpu:alloc-ok <reason>       waives one line's hot-path
//	                                  allocation findings (hotpath)
//	//litegpu:floatcmp-ok <reason>    waives one line's float-comparison
//	                                  findings (floatcmp)
//
// Goroutine-spawn findings (determinism) have no waiver.
//
// A waiver written as a trailing comment applies to its own line; a
// waiver on a line of its own applies to the next line. Every waiver
// must carry a reason, and a waiver that suppresses nothing is itself
// reported as stale — waivers are precise, audited exceptions, not
// blanket mutes.
const directivePrefix = "//litegpu:"

// HotpathDirective is the marker directive (with prefix) that annotates
// hot-path functions.
const HotpathDirective = directivePrefix + "hotpath"

// waiverCategories maps a waiver directive name to the diagnostic
// category it suppresses.
var waiverCategories = map[string]string{
	"ordered-ok":  "ordered",
	"alloc-ok":    "alloc",
	"floatcmp-ok": "floatcmp",
}

// markerDirectives are non-waiver directives; they are validated by the
// analyzer that consumes them, not by the waiver scanner.
var markerDirectives = map[string]bool{
	"hotpath": true,
}

type waiver struct {
	category  string // diagnostic category this waiver suppresses
	directive string // directive name, for messages
	pos       token.Pos
	file      string
	line      int // line the waiver applies to
	used      bool
}

// applyWaivers matches waivers against diags: a diagnostic whose
// category has a matching waiver on its line is suppressed. It returns
// the surviving diagnostics plus hygiene findings for malformed
// directives and stale waivers.
func applyWaivers(pkg *Package, diags []Diagnostic) []Diagnostic {
	var waivers []*waiver
	var hygiene []Diagnostic
	for _, f := range pkg.Files {
		if IsTestFile(pkg, f) {
			continue // test files are outside the waivable checks' scope
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				w, d := parseDirective(pkg, c.Slash, c.Text)
				if w != nil {
					waivers = append(waivers, w)
				}
				if d != nil {
					hygiene = append(hygiene, *d)
				}
			}
		}
	}

	kept := diags[:0]
	for _, d := range diags {
		if d.Category != "" && waive(pkg, waivers, d) {
			continue
		}
		kept = append(kept, d)
	}
	for _, w := range waivers {
		if !w.used {
			hygiene = append(hygiene, Diagnostic{
				Pos:      w.pos,
				Analyzer: "waiver",
				Message: "stale //litegpu:" + w.directive + " waiver: no " +
					w.category + " finding on the line it covers",
			})
		}
	}
	return append(kept, hygiene...)
}

func waive(pkg *Package, waivers []*waiver, d Diagnostic) bool {
	pos := pkg.Fset.Position(d.Pos)
	ok := false
	for _, w := range waivers {
		if w.category == d.Category && w.file == pos.Filename && w.line == pos.Line {
			w.used = true
			ok = true
		}
	}
	return ok
}

// parseDirective interprets one comment. It returns a waiver (for
// well-formed waiver directives) and/or a hygiene diagnostic (for
// waivers missing a reason and for unknown directives).
func parseDirective(pkg *Package, pos token.Pos, text string) (*waiver, *Diagnostic) {
	if !strings.HasPrefix(text, directivePrefix) {
		return nil, nil
	}
	rest := text[len(directivePrefix):]
	name := rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, rest = rest[:i], rest[i+1:]
	} else {
		rest = ""
	}
	if markerDirectives[name] {
		return nil, nil
	}
	category, ok := waiverCategories[name]
	if !ok {
		return nil, &Diagnostic{
			Pos:      pos,
			Analyzer: "waiver",
			Message: "unknown //litegpu: directive " + name +
				" (known: hotpath, ordered-ok, alloc-ok, floatcmp-ok)",
		}
	}
	// Strip an analysistest expectation riding the same comment, so
	// fixtures can assert on waiver hygiene findings.
	if i := strings.Index(rest, "// want"); i >= 0 {
		rest = rest[:i]
	}
	if strings.TrimSpace(rest) == "" {
		return nil, &Diagnostic{
			Pos:      pos,
			Analyzer: "waiver",
			Message: "//litegpu:" + name +
				" waiver needs a reason: //litegpu:" + name + " <why this line is safe>",
		}
	}
	p := pkg.Fset.Position(pos)
	w := &waiver{category: category, directive: name, pos: pos, file: p.Filename, line: p.Line}
	if standaloneComment(pkg, p) {
		w.line++
	}
	return w, nil
}

// standaloneComment reports whether the comment at p begins its source
// line (nothing but whitespace before it) — such waivers cover the
// following line, trailing waivers cover their own.
func standaloneComment(pkg *Package, p token.Position) bool {
	src, ok := pkg.Sources[p.Filename]
	if !ok {
		return false
	}
	start := p.Offset - (p.Column - 1)
	if start < 0 || p.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:p.Offset])) == ""
}
