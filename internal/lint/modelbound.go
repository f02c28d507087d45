package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Base-model-only entry points: functions that panic (via
// Schedule.requireBase) or silently mis-score when handed a schedule
// bound to a non-base cost model. The value is the index of the schedule
// argument.
var modelBoundSinks = map[string]int{
	"repro/internal/model.ComputeTimes":     0,
	"repro/internal/model.ComputeTimesInto": 0,
	"repro/internal/model.RT":               0,
	"repro/internal/model.RTInto":           0,
	"repro/internal/model.DT":               0,
	"repro/internal/model.IsLayered":        0,
	"repro/internal/trace.Tree":             0,
	"repro/internal/trace.Gantt":            0,
	"repro/internal/trace.DOT":              0,
	"repro/internal/trace.SVG":              0,
	"repro.ComputeTimes":                    0,
	"repro.CompletionTime":                  0,
	// The exact DP scores under the base model by construction: feeding
	// it a model-bound schedule's Set silently compares across models.
	"repro/internal/exact.OptimalRT":          0,
	"repro/internal/exact.Schedule":           0,
	"(*repro/internal/exact.DP).ScheduleFor":  0,
	"repro/internal/exact.BuildTable":         0,
	"repro/internal/exact.BuildTableParallel": 0,
}

// Calls whose schedule result may arrive bound to a non-base cost model.
var modelBoundSources = map[string]string{
	"(repro/internal/heur.ModelGreedy).Schedule": "heur.ModelGreedy.Schedule",
}

// Calls returning a scheduler (or scheduler slice) that may produce
// model-bound schedules; a .Schedule call on such a value taints its
// result.
var modelBoundSchedulerSources = map[string]string{
	"repro/internal/registry.LookupFor":     "registry.LookupFor",
	"repro/internal/registry.SchedulersFor": "registry.SchedulersFor",
	"repro/internal/registry.SelectFor":     "registry.SelectFor",
}

const (
	schedBindModel = "(*repro/internal/model.Schedule).BindModel"
	schedClone     = "(*repro/internal/model.Schedule).Clone"
	schedModel     = "(*repro/internal/model.Schedule).Model"
	modelIsBase    = "repro/internal/model.IsBase"
)

// mbTaint records how a schedule variable became possibly model-bound.
type mbTaint struct {
	src   string       // human description of the taint source
	pos   token.Pos    // where the taint was introduced
	model types.Object // the cost-model variable bound in, when known
}

// ModelBound returns the analyzer enforcing PR 8's invariant statically:
// a *model.Schedule that may be bound to a non-base cost model (anything
// flowing from BindModel, heur.ModelGreedy, or the schedulers
// registry.LookupFor/SchedulersFor/SelectFor hand out) must
// not reach a base-model-only helper without an intervening model check.
// The exact solver's entry points are sinks too — via the schedule's
// .Set field, since exact scores under the base model by construction.
//
// The analysis is intra-procedural and statement-ordered: a taint is
// cleared by a later call to model.IsBase(...) naming the schedule (or
// the cost-model variable that was bound into it), by sch.Model(), or by
// rebinding with sch.BindModel(nil). Model-dispatching paths —
// model.EvalTimes and the engines — are not sinks, so the sanctioned
// fix is either to evaluate through them or to guard the base-only call.
func ModelBound() *Analyzer {
	a := &Analyzer{
		Name: "modelbound",
		Doc:  "possibly model-bound *model.Schedule reaches a base-model-only helper without a model check",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				runModelBound(pass, fn.Body)
			}
		}
		return nil
	}
	return a
}

// runModelBound walks one function body in source order, maintaining the
// set of tainted schedule variables and scheduler variables.
func runModelBound(pass *Pass, body *ast.BlockStmt) {
	sched := map[types.Object]*mbTaint{} // possibly-bound schedules
	scher := map[types.Object]string{}   // model-aware schedulers / slices

	// taintedResult classifies a call expression: the taint its first
	// result would carry, or nil.
	taintedResult := func(call *ast.CallExpr) *mbTaint {
		full := calleeFullName(pass.Info, call)
		if src, ok := modelBoundSources[full]; ok {
			return &mbTaint{src: src + " result", pos: call.Pos()}
		}
		if full == schedClone {
			if recv := identObject(pass.Info, receiverExpr(call)); recv != nil {
				if t := sched[recv]; t != nil {
					return &mbTaint{src: t.src + " (via Clone)", pos: call.Pos(), model: t.model}
				}
			}
		}
		// A Schedule() call on a scheduler that came from the registry.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Schedule" {
			if recv := identObject(pass.Info, sel.X); recv != nil {
				if src, ok := scher[recv]; ok {
					return &mbTaint{src: src + " scheduler result", pos: call.Pos()}
				}
			}
		}
		return nil
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) >= 1 {
				rhs := n.Rhs[0]
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
					full := calleeFullName(pass.Info, call)
					if src, ok := modelBoundSchedulerSources[full]; ok {
						if obj := identObject(pass.Info, n.Lhs[0]); obj != nil {
							scher[obj] = src
						}
						return true
					}
					if t := taintedResult(call); t != nil {
						if obj := identObject(pass.Info, n.Lhs[0]); obj != nil {
							sched[obj] = t
						}
						return true
					}
				}
				// Plain copy: propagate or clear the first target.
				if obj := identObject(pass.Info, n.Lhs[0]); obj != nil {
					if src := identObject(pass.Info, rhs); src != nil {
						if t := sched[src]; t != nil {
							sched[obj] = t
							return true
						}
						if s, ok := scher[src]; ok {
							scher[obj] = s
							return true
						}
					}
					delete(sched, obj)
					delete(scher, obj)
				}
			}
		case *ast.RangeStmt:
			// Ranging over a scheduler slice taints the element variable.
			if x := identObject(pass.Info, n.X); x != nil {
				if src, ok := scher[x]; ok && n.Value != nil {
					if obj := identObject(pass.Info, n.Value); obj != nil {
						scher[obj] = src
					}
				}
			}
		case *ast.CallExpr:
			full := calleeFullName(pass.Info, n)
			switch full {
			case schedBindModel:
				recv := identObject(pass.Info, receiverExpr(n))
				if recv == nil {
					return true
				}
				if len(n.Args) == 1 && isNilLiteral(pass.Info, n.Args[0]) {
					delete(sched, recv) // rebinding to the base model
					return true
				}
				t := &mbTaint{src: "BindModel", pos: n.Pos()}
				if len(n.Args) == 1 {
					t.model = identObject(pass.Info, n.Args[0])
				}
				sched[recv] = t
			case schedModel:
				// sch.Model() — the code is inspecting the binding.
				if recv := identObject(pass.Info, receiverExpr(n)); recv != nil {
					delete(sched, recv)
				}
			case modelIsBase:
				// model.IsBase(e): clears every tainted schedule that e
				// mentions, directly or through its bound model variable.
				if len(n.Args) != 1 {
					return true
				}
				for obj, t := range sched {
					if mentionsObject(pass.Info, n.Args[0], obj) ||
						(t.model != nil && mentionsObject(pass.Info, n.Args[0], t.model)) {
						delete(sched, obj)
					}
				}
			default:
				if idx, ok := modelBoundSinks[full]; ok && idx < len(n.Args) {
					arg := n.Args[idx]
					if obj := identObject(pass.Info, arg); obj != nil {
						if t := sched[obj]; t != nil {
							pass.Reportf(n.Pos(), "%s is called on %q, which may be model-bound (%s); check model.IsBase(%s.Model()) first or evaluate with model.EvalTimes/an Engine",
								shortName(full), exprName(arg), t.src, exprName(arg))
						}
					} else if sel, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok && sel.Sel.Name == "Set" {
						// sch.Set flowing into an exact entry point: the
						// solver scores under the base model regardless of
						// what the schedule is bound to.
						if recv := identObject(pass.Info, sel.X); recv != nil {
							if t := sched[recv]; t != nil {
								pass.Reportf(n.Pos(), "%s is called on %q, whose schedule may be model-bound (%s); the exact solver scores under the base model — check model.IsBase(%s.Model()) first",
									shortName(full), exprName(arg), t.src, exprName(sel.X))
							}
						}
					} else if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
						if t := taintedResult(call); t != nil {
							pass.Reportf(n.Pos(), "%s is called directly on a %s, which may be model-bound; check the model first or evaluate with model.EvalTimes/an Engine",
								shortName(full), t.src)
						}
					}
				}
			}
		}
		return true
	})
}

// isNilLiteral reports whether e is the predeclared nil.
func isNilLiteral(info *types.Info, e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			_, isNil := obj.(*types.Nil)
			return isNil
		}
	}
	return false
}

// shortName trims the module path from a full function name for
// diagnostics: "repro/internal/model.RT" -> "model.RT".
func shortName(full string) string {
	if i := lastIndexByte(full, '/'); i >= 0 {
		return full[i+1:]
	}
	return full
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// exprName renders a simple expression for a diagnostic.
func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
	}
	return "the schedule"
}
