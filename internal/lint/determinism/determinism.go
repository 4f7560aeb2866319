// Package determinism defines the litegpu-lint analyzer that keeps
// nondeterminism out of the simulation packages.
//
// Every headline number this repository produces is pinned by %x golden
// corpora: two runs of the same configuration must evolve bit-for-bit
// identically. Three constructs silently break that contract and are
// forbidden in simulation packages (internal/{sim,serve,netsim,trace,
// sweep,failure}):
//
//   - wall-clock reads (time.Now, time.Since, timers): simulated time
//     comes from the sim.Engine clock, never from the host;
//   - the global math/rand generator: all randomness flows through
//     mathx.RNG with an explicit seed (constructors like rand.New are
//     allowed — it is the ambient, implicitly-seeded stream that is
//     banned);
//   - ranging over a map: iteration order is randomized per run, so any
//     map range that can reach simulation state, metrics, or event
//     scheduling is a latent golden diff. Iterate a sorted key slice
//     instead, or waive the line with //litegpu:ordered-ok <reason>.
//     The key-collection loop of the sorted-iteration idiom (a range
//     whose body only appends the key to a slice) is recognized and
//     exempt.
//
// It also forbids spawning goroutines anywhere but internal/sweep, the
// one sanctioned concurrency layer — scheduling decisions made on
// goroutine timing are nondeterminism by construction. No waiver
// covers a spawn.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"litegpu/internal/lint/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall clocks, the global math/rand, map iteration, and " +
		"goroutine spawns in simulation packages",
	Run: run,
}

// bannedTime are the time package functions that read the wall clock or
// create host-time-driven machinery.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

func run(pass *analysis.Pass) error {
	if !analysis.IsSimPackage(pass.Path) {
		return nil
	}
	allowGo := analysis.PathBase(pass.Path) == "sweep"
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Package, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkRange(pass, n)
			case *ast.GoStmt:
				if !allowGo {
					pass.Reportf(n.Pos(), "go",
						"goroutine spawned in simulation package %s: internal/sweep is the only sanctioned concurrency layer",
						pass.Path)
				}
			}
			return true
		})
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // method call, not a package-level function
	}
	switch fn.Pkg().Path() {
	case "time":
		if bannedTime[fn.Name()] {
			pass.Reportf(call.Pos(), "",
				"wall clock in simulation package: time.%s breaks run-to-run determinism; simulated time comes from sim.Engine",
				fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewZipf, ...) build explicitly
		// seeded generators and are fine; everything else draws from or
		// seeds the ambient global stream.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "",
				"global math/rand in simulation package: rand.%s is implicitly seeded; draw from a seeded mathx.RNG instead",
				fn.Name())
		}
	}
}

// checkRange flags ranging over a map, excepting the sorted-iteration
// idiom's key-collection loop.
func checkRange(pass *analysis.Pass, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if isKeyCollection(rs) {
		return
	}
	pass.Reportf(rs.Pos(), "ordered",
		"range over map %s in simulation package: iteration order is nondeterministic; iterate a sorted key slice or waive with //litegpu:ordered-ok <reason>",
		types.TypeString(t, nil))
}

// isKeyCollection recognizes the first half of the sorted-iteration
// idiom: `for k := range m { keys = append(keys, k) }`. Its body is
// order-insensitive by construction (the keys are sorted before use),
// so it is exempt.
func isKeyCollection(rs *ast.RangeStmt) bool {
	if rs.Value != nil || rs.Key == nil || len(rs.Body.List) != 1 {
		return false
	}
	key, ok := rs.Key.(*ast.Ident)
	if !ok {
		return false
	}
	asg, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
		return false
	}
	call, ok := asg.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name &&
		types.ExprString(asg.Lhs[0]) == types.ExprString(call.Args[0])
}
