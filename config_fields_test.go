package resex

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unsetConfigFields are the config fields only tests set, each with the
// reason it stays a field rather than a constant.
var unsetConfigFields = map[string]string{
	"benchex.ClientConfig.Requests":          "TestBoundedClientSignalsDone and the cluster tests bound a client's request count",
	"benchex.ServerConfig.CQDepth":           "BenchmarkAblationIBMonPeriod shrinks the CQ to 16 (EXPERIMENTS.md records it)",
	"cluster.Config.Hosts":                   "tests pre-build multi-host fabrics at New time",
	"daemon.Config.SimShards":                "nothing reads it, but snapshot metadata carries it and bench/golden.json hashes that; TestSimShardsConfig checks it round-trips",
	"exchange.BoardConfig.Beta":              "FuzzRateQuote sweeps the price curve's shape",
	"exchange.BoardConfig.MaxPrice":          "FuzzRateQuote sweeps the price clamp",
	"exchange.BoardConfig.UMax":              "FuzzRateQuote sweeps the utilization cap",
	"faults.GenConfig.FlapEvery":             "TestGenerateDeterministicAndBounded, TestInjectorReplayDeterministic and TestFaultPlansAudited turn storms into flaps",
	"faults.GenConfig.InvalidateEvery":       "TestFaultPlansAudited draws the invalidation layer's period or disables it",
	"faults.GenConfig.MigrateFailEvery":      "TestFaultPlansAudited draws the migration-failure layer's period or disables it",
	"faults.GenConfig.StallEvery":            "TestFaultPlansAudited draws the stall layer's period or disables it",
	"ibmon.Config.Period":                    "BenchmarkAblationIBMonPeriod sweeps the sampling period (EXPERIMENTS.md records it)",
	"placement.MigrationConfig.StateBytes":   "tests migrate a small image to keep runs short",
	"placement.RebalanceConfig.Migration":    "tests hand the rebalancer a small-image cost model",
	"placement.RebalanceConfig.RetryBackoff": "fault tests exercise the abort backoff, off by default",
	"simpar.Config.ShardOf":                  "FuzzShardMap and TestShardCountInvariance drive adversarial host→shard maps",
	"softrt.Config.Frames":                   "tests bound the stream to a fixed frame count",
	"workload.Config.IntervalsPerEpoch":      "TestRandomRigsStrict and the other property tests in internal/invariant/prop shorten epochs to 50 intervals",
	"workload.SLOSpec.Window":                "TestSLOTrackerWindows shortens the evaluation window",
}

// TestConfigFieldsAreSet keeps config structs honest: every exported field
// of an internal struct named *Config, *Spec, *Costs or Options, and every
// exported field of basic type of an internal struct T whose package
// declares New<T> or Default<T>, must have a writer in the non-test code of
// the module, cmd/ or bench/ (see loadModule). Writes that only fill in a
// default do not count: those in the type's own withDefaults, and those of
// a constant value in its New<T> or Default<T>. A writer is a
// composite-literal key or an assignment or increment; a nested one such as
// p.Exchange.Capacity[d] = … writes every field on its path. A field with no
// writer has one value in use and belongs in a constant; unsetConfigFields
// lists the exceptions.
func TestConfigFieldsAreSet(t *testing.T) {
	l := loadModule(t)

	fields := map[*types.Var]string{}      // settable field → "pkg.Type.Field"
	ctors := map[types.Object]types.Type{} // New<T> or Default<T> → T
	viaCtor := 0
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "resex/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			hasCtor := false
			for _, prefix := range []string{"New", "Default"} {
				if fn, ok := pkg.Scope().Lookup(prefix + name).(*types.Func); ok {
					ctors[fn], hasCtor = tn.Type(), true
				}
			}
			config := isConfigName(name)
			if !config && !hasCtor {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if _, basic := f.Type().Underlying().(*types.Basic); !f.Exported() || !config && !basic {
					continue
				}
				fields[f] = pkg.Name() + "." + name + "." + f.Name()
				if !config {
					viaCtor++
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, files := range l.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				skip := defaultsOf(decl, l.info)
				ctor := ctorOf(decl, l.info, ctors)
				// mark records a write of value (nil when not one
				// expression) to f.
				mark := func(f *types.Var, value ast.Expr) {
					switch {
					case skip != nil && isFieldOf(f, skip):
					case ctor != nil && isFieldOf(f, ctor) && value != nil && l.info.Types[value].Value != nil:
					default:
						written[f] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						markLiteral(n, l.info, mark)
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							var value ast.Expr
							if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
								value = n.Rhs[i]
							}
							markPath(lhs, l.info, func(f *types.Var) { mark(f, value) })
						}
					case *ast.IncDecStmt:
						markPath(n.X, l.info, func(f *types.Var) { mark(f, nil) })
					}
					return true
				})
			}
		}
	}

	var unset []string
	known := map[string]bool{}
	for f, name := range fields {
		known[name] = true
		if _, allowed := unsetConfigFields[name]; written[f] && allowed {
			t.Errorf("%s is set by non-test code now; drop it from unsetConfigFields", name)
		} else if !written[f] && !allowed {
			unset = append(unset, name)
		}
	}
	for name := range unsetConfigFields {
		if !known[name] {
			t.Errorf("unsetConfigFields names %s, which is not a config field", name)
		}
	}
	sort.Strings(unset)
	for _, name := range unset {
		t.Errorf("%s: no non-test code sets it; make it a constant", name)
	}
	t.Logf("%d settable config fields (%d through a constructor), %d allowlisted as unset",
		len(fields), viaCtor, len(unsetConfigFields))
}

// uncalledAPI is the exported API only tests call, each with the test that
// needs it. An entry "pkg.*" covers a whole package.
var uncalledAPI = map[string]string{
	"exchange.RateBoard.Util":      "TestRateBoardObserveAndRates checks the utilization EWMA",
	"fabric.Link.Degrade":          "TestLinkDegradeAppliesAndNests checks nested degradations restore",
	"fabric.Link.QueueCap":         "TestIncastQueuesRuns bounds the receiver downlink's queue storage",
	"guestmem.Space.Allocated":     "FuzzSpace and TestCrossPageWrite count materialized pages",
	"hca.CQ.Stalled":               "TestHCAStallForcesCQOverrun checks a stall starts and ends",
	"hca.HCA.QP":                   "TestHCAStats and TestBuildSimParFleetShape look QPs up by number",
	"hca.QP.RateLimit":             "TestQPRateLimit reads the pacing rate back",
	"hca.QP.Remote":                "TestBuildSimParFleetShape checks cross-site QP wiring",
	"ibmon.Monitor.Stop":           "BenchmarkAblationIBMonPeriod and the ibmon tests halt the sampler before reading totals",
	"ibmon.Monitor.Target":         "TestWatchValidation and TestIBMonDiscoveryThroughBackend check what IBMon watches",
	"resex.IntervalData.TotalMTUs": "TestObserverSeesUsage sums the MTUs observers see",
	"schedshard.Snapshot.Host":     "TestSnapshotHostLookup and TestCommitGangRollbackExact inspect hosts",
	"sim.Engine.NextBreak":         "TestBreakpointInWindowSeqNeutral checks armed breakpoints",
	"sim.Engine.Pending":           "TestPendingCountsWheel and FuzzEventQueue count queued events",
	"sim.Engine.Run":               "25 test files drain the event queue with it",
	"sim.Rand.Int63n":              "the property-test generators in internal/invariant/prop draw tenant and fault-plan seeds with it",
	"sim.Timer.When":               "TestTimerWhenAfterFire and TestEveryTimerWhen check timer times",
	"simpar.Coordinator.Host":      "TestCheckpointPurityAndInvariance checkpoints each host",
	"simpar.Interconnect.Site":     "TestBuildSimParFleetShape checks site registration",
	"stats.QuantileSketch.Buckets": "FuzzQuantileMerge checks merged sketches are identical",
	"stats.QuantileSketch.Max":     "FuzzQuantileMerge checks merged sketches are identical",
	"stats.QuantileSketch.Min":     "FuzzQuantileMerge checks merged sketches are identical",
	"stats.Sample.Count":           "TestSampleQuantiles counts samples",
	"stats.Sample.Max":             "TestSampleQuantiles checks the extremes",
	"stats.Sample.Min":             "TestSampleQuantiles checks the extremes",
	"stats.Sample.StdDev":          "TestSampleMeanStdMatchesSummary checks it against Summary",
	"stats.Sample.Summary":         "TestSampleSummaryConversion checks the conversion",
	"xen.Hypervisor.NumPCPUs":      "TestDefaults and TestTestbedAssembly check the host shape",
}

// TestExportedAPIHasCallers keeps test-only API out: every exported
// function, method and package-level var under internal/ must be referenced
// by the non-test code of the module, cmd/ or bench/ (see loadModule). A
// method of a generic type counts through its origin. Exempt are methods
// that satisfy an interface declared in the module or one of
// stdInterfaces, and observers: methods without parameters whose body is a
// single return of a field. uncalledAPI lists the rest.
func TestExportedAPIHasCallers(t *testing.T) {
	l := loadModule(t)

	var ifaces []*types.Interface
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() == nil {
				if it, ok := named.Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	for _, name := range stdInterfaces {
		path, typ := "", name
		if i := strings.LastIndex(name, "."); i >= 0 {
			path, typ = name[:i], name[i+1:]
		}
		scope := types.Universe
		if path != "" {
			pkg, err := l.std.Import(path)
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		ifaces = append(ifaces, scope.Lookup(typ).Type().Underlying().(*types.Interface))
	}

	used := map[types.Object]bool{}
	for _, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}

	var uncalled []string
	observers := 0
	known := map[string]bool{}
	for path, files := range l.files {
		if !strings.HasPrefix(path, "resex/internal/") {
			continue
		}
		for _, file := range files {
			for _, decl := range file.Decls {
				for _, obj := range exportedDecls(decl, l.info) {
					name := apiName(obj)
					entry := name
					if _, ok := uncalledAPI[entry]; !ok {
						entry = obj.Pkg().Name() + ".*"
					}
					_, allowed := uncalledAPI[entry]
					known[entry] = true
					fn, isFunc := obj.(*types.Func)
					switch {
					case used[obj]:
						if allowed {
							t.Errorf("%s is referenced by non-test code now; drop %s from uncalledAPI", name, entry)
						}
					case allowed:
					case isFunc && isObserver(decl.(*ast.FuncDecl), l.info):
						observers++
					case isFunc && satisfiesInterface(fn, ifaces):
					default:
						uncalled = append(uncalled, name)
					}
				}
			}
		}
	}
	for entry := range uncalledAPI {
		if !known[entry] {
			t.Errorf("uncalledAPI names %s, which is not exported API under internal/", entry)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s: no non-test code references it; delete it or list it in uncalledAPI with the test that needs it", name)
	}
	t.Logf("%d uncalled, %d observers exempt, %d allowlisted", len(uncalled), observers, len(uncalledAPI))
}

// stdInterfaces are the standard interfaces whose methods count as called.
var stdInterfaces = []string{"error", "fmt.Stringer", "sort.Interface", "container/heap.Interface", "encoding/json.Marshaler", "io.Writer"}

// exportedDecls returns the exported functions, methods and package-level
// vars a declaration defines.
func exportedDecls(decl ast.Decl, info *types.Info) []types.Object {
	var objs []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() {
			objs = append(objs, info.Defs[d.Name])
		}
	case *ast.GenDecl:
		if d.Tok != token.VAR {
			break
		}
		for _, spec := range d.Specs {
			for _, name := range spec.(*ast.ValueSpec).Names {
				if name.IsExported() {
					objs = append(objs, info.Defs[name])
				}
			}
		}
	}
	return objs
}

// isObserver reports whether fd is a method without parameters whose body
// is one return of a field of its receiver's state.
func isObserver(fd *ast.FuncDecl, info *types.Info) bool {
	if fd.Recv == nil || fd.Type.Params.NumFields() != 0 || fd.Body == nil || len(fd.Body.List) != 1 {
		return false
	}
	ret, ok := fd.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	sel, ok := ret.Results[0].(*ast.SelectorExpr)
	return ok && info.Selections[sel] != nil && info.Selections[sel].Kind() == types.FieldVal
}

// satisfiesInterface reports whether method fn is part of an interface its
// receiver type, or a pointer to it, implements.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() &&
				(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// apiName names obj as "pkg.Name" or, for a method, "pkg.Type.Name".
func apiName(obj types.Object) string {
	name := obj.Pkg().Name() + "."
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			name += t.(*types.Named).Obj().Name() + "."
		}
	}
	return name + obj.Name()
}

var (
	moduleOnce   sync.Once
	moduleLoader *loader
	moduleErr    error
)

// loadModule type-checks the module's non-test code from source, once for
// all the scans in this package: the root package, cmd/ and bench/, without
// their tests, and every internal/ package they import. An internal/
// package only tests import (internal/invariant/prop, the property tests'
// generators) is test code, so it is not loaded and neither writes a config
// field nor calls an API.
func loadModule(t *testing.T) *loader {
	t.Helper()
	moduleOnce.Do(func() {
		l := &loader{
			fset:  token.NewFileSet(),
			std:   importer.ForCompiler(token.NewFileSet(), "source", nil),
			pkgs:  map[string]*types.Package{},
			files: map[string][]*ast.File{},
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if name := d.Name(); path != "." && (name == "testdata" || name == "internal" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir // internal/ loads through imports
			}
			if _, err := build.ImportDir(path, 0); err != nil {
				return nil // no non-test Go files here
			}
			_, err = l.Import(importPath(path))
			return err
		})
		moduleLoader = l
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleLoader
}

// loader type-checks the repository's packages from source, sharing one
// types.Info, and leaves the standard library to std.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != "resex" && !strings.HasPrefix(path, "resex/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir := filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, "resex"), "/"))
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// importPath maps a directory under the repository root to its import path;
// bench/ is its own module, resex/bench, which replaces resex with "..".
func importPath(dir string) string {
	if dir == "." {
		return "resex"
	}
	return "resex/" + filepath.ToSlash(dir)
}

func isConfigName(name string) bool {
	return name == "Options" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Spec") || strings.HasSuffix(name, "Costs")
}

// defaultsOf returns the receiver type of a withDefaults method, whose
// writes to its own fields only fill in defaults, or nil for other decls.
func defaultsOf(decl ast.Decl, info *types.Info) types.Type {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv == nil || !strings.EqualFold(fd.Name.Name, "withDefaults") {
		return nil
	}
	return info.Types[fd.Recv.List[0].Type].Type
}

// ctorOf returns T for a New<T> or Default<T> function, whose writes of
// constants to T's fields only fill in defaults, or nil for other decls.
func ctorOf(decl ast.Decl, info *types.Info, ctors map[types.Object]types.Type) types.Type {
	fd, ok := decl.(*ast.FuncDecl)
	if !ok || fd.Recv != nil {
		return nil
	}
	return ctors[info.Defs[fd.Name]]
}

func isFieldOf(f *types.Var, t types.Type) bool {
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == f {
			return true
		}
	}
	return false
}

// markLiteral marks the fields a struct literal sets, with their values:
// its keys, or every field when the literal is positional.
func markLiteral(lit *ast.CompositeLit, info *types.Info, mark func(*types.Var, ast.Expr)) {
	t := info.Types[lit].Type
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			mark(st.Field(i), elt)
			continue
		}
		if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
			mark(f, kv.Value)
		}
	}
}

// markPath marks every field selected on the path to an assigned location.
func markPath(e ast.Expr, info *types.Info, mark func(*types.Var)) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				mark(sel.Obj().(*types.Var))
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return
		}
	}
}
