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
	"testing"
)

// unsetConfigFields are the config fields only tests set, each with the
// reason it stays a field rather than a constant.
var unsetConfigFields = map[string]string{
	"benchex.ServerConfig.CQDepth":           "BenchmarkAblationIBMonPeriod shrinks the CQ to 16 (EXPERIMENTS.md records it)",
	"cluster.Config.Hosts":                   "tests pre-build multi-host fabrics at New time",
	"exchange.BoardConfig.Beta":              "FuzzRateQuote sweeps the price curve's shape",
	"exchange.BoardConfig.MaxPrice":          "FuzzRateQuote sweeps the price clamp",
	"exchange.BoardConfig.UMax":              "FuzzRateQuote sweeps the utilization cap",
	"placement.MigrationConfig.StateBytes":   "tests migrate a small image to keep runs short",
	"placement.RebalanceConfig.Migration":    "tests hand the rebalancer a small-image cost model",
	"placement.RebalanceConfig.Patience":     "rebalancer tests pin the breach patience they assert on",
	"placement.RebalanceConfig.RetryBackoff": "fault tests exercise the abort backoff, off by default",
	"schedshard.Config.NewPipeline":          "tests substitute pipelines",
	"softrt.Config.Frames":                   "tests bound the stream to a fixed frame count",
	"workload.SLOSpec.Window":                "TestSLOTrackerWindows shortens the evaluation window",
}

// TestConfigFieldsAreSet keeps config structs honest: every exported field
// of an internal struct named *Config, *Spec, *Costs or Options must have a
// writer in the non-test code of the module, cmd/ or bench/,
// outside its own type's withDefaults. A writer is a composite-literal key
// or an assignment or increment; a nested one such as
// p.Exchange.Capacity[d] = … writes every field on its path. A field with no
// writer has one value in use and belongs in a constant; unsetConfigFields
// lists the exceptions.
func TestConfigFieldsAreSet(t *testing.T) {
	l := &loader{
		fset:  token.NewFileSet(),
		std:   importer.ForCompiler(token.NewFileSet(), "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(path, 0); err != nil {
			return nil // no non-test Go files here
		}
		_, err = l.Import(importPath(path))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	fields := map[*types.Var]string{} // settable field → "pkg.Type.Field"
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "resex/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !isConfigName(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = pkg.Name() + "." + name + "." + f.Name()
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	for _, files := range l.files {
		for _, file := range files {
			for _, decl := range file.Decls {
				skip := defaultsOf(decl, l.info)
				ast.Inspect(decl, func(n ast.Node) bool {
					mark := func(f *types.Var) {
						if skip == nil || !isFieldOf(f, skip) {
							written[f] = true
						}
					}
					switch n := n.(type) {
					case *ast.CompositeLit:
						markLiteral(n, l.info, mark)
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markPath(lhs, l.info, mark)
						}
					case *ast.IncDecStmt:
						markPath(n.X, l.info, mark)
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
	t.Logf("%d settable config fields, %d allowlisted as unset", len(fields), len(unsetConfigFields))
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

// markLiteral marks the fields a struct literal sets: its keys, or every
// field when the literal is positional.
func markLiteral(lit *ast.CompositeLit, info *types.Info, mark func(*types.Var)) {
	t := info.Types[lit].Type
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			for i := 0; i < st.NumFields(); i++ {
				mark(st.Field(i))
			}
			return
		}
		if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
			mark(f)
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
