package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// testOnlyKeep lists the exported names under internal/ that only tests
// reach and that stay on purpose, each with its reason. Keys are the
// declaring package's path below the module, then the name, as the gate
// prints them.
var testOnlyKeep = map[string]string{
	"internal/core.RunTable1Replicated":       "Table 1's claims as a cross-seed property (TestTable1OrderingHoldsAcrossSeeds)",
	"internal/core.ReplicationReport.Format":  "the replicated Table 1 report that property logs",
	"internal/core.Characterizer.LoadWeights": "fig. 4 names the NN weight file as the learning scheme's output; its round trip is pinned",
	"internal/neural.Network.TrainGA":         "the ref. [13] GA-trained-network ablation",
	"internal/neural.DefaultGATrainConfig":    "the ref. [13] ablation's configuration",
	"internal/neural.Network.Clone":           "reference oracle for the training kernels",
	"internal/neural.Ensemble.Members":        "reference oracle for the ensemble vote",
	"internal/wcr.Ranking.CountByClass":       "fig. 6's per-class WCR counts",
	"internal/jobs.Server.MaxBusyObserved":    "the only way to observe the worker-budget ceiling; a replay of the dispatch log can over-count it",
}

// testOnlySettingsKeep lists the exported fields under internal/ that
// non-test code reads but only tests set, and that stay on purpose, each
// with its reason. Keys are the declaring package's path below the module,
// then type and field, as the gate prints them.
var testOnlySettingsKeep = map[string]string{
	"internal/search.SuccessiveApproximation.RecheckEvery": "§1's drift-sensing successive approximation; TestSuccessiveApproximationDriftRecovery recovers a drifting trip point with it",
	"internal/genetic.Config.TargetFitness":                "fig. 5's WCR stop (\"until the worst case is found\"), pinned by TestGATargetStopsEarly",
	"internal/neural.GATrainConfig.TargetErr":              "the early stop of the ref. [13] ablation; TrainGA and its config are on testOnlyKeep",
	"internal/testgen.RandomGenerator.UniformOnly":         "the uniform generator the styled one is ablated against (TestStyledGeneratorWidensDSVSpread, 20 seeds)",
	"internal/core.LotOptions.RetainDies":                  "the per-die view the lot-stream tests compare with their per-die oracle",
}

// TestNoTestOnlyExports fails on every exported func, method, type,
// package var or const under internal/ (internal/proptest aside, being test
// support) that no non-test file of the module or of bench/charbench uses,
// unless testOnlyKeep names it. A method's receiver does not use its own
// type. Methods that satisfy an interface are reached through it, so they
// are left out: the module's own interfaces, error, fmt.Stringer,
// math/rand.Source and interface{ Unwrap() error }.
func TestNoTestOnlyExports(t *testing.T) {
	m := loadModule(t)
	receivers := map[*ast.Ident]bool{}
	for _, f := range m.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				receivers[recvType(fn)] = true
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range m.info.Uses {
		if receivers[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}

	var ifaces []*types.Interface
	for _, pkg := range m.packages {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				ifaces = append(ifaces, tn.Type().Underlying().(*types.Interface))
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	ifaces = append(ifaces,
		errType.Underlying().(*types.Interface),
		methodSet(method("String", nil, types.Typ[types.String])),
		methodSet(method("Int63", nil, types.Typ[types.Int64]),
			method("Seed", []types.Type{types.Typ[types.Int64]})),
		methodSet(method("Unwrap", nil, errType)))

	found := map[string]token.Position{}
	for rel, pkg := range m.gated() {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				found[rel+"."+name] = m.fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() && !used[fn] && !satisfiesInterface(named, fn.Name(), ifaces) {
					found[rel+"."+name+"."+fn.Name()] = m.fset.Position(fn.Pos())
				}
			}
		}
	}
	reportAgainstKeep(t, found, testOnlyKeep, "testOnlyKeep", "only tests use it; delete it")
}

// TestNoTestOnlySettings fails on every exported field of an exported struct
// under internal/ (internal/proptest aside) that non-test code of the module
// or of bench/charbench reads but never sets, unless testOnlySettingsKeep
// names it: such a field is a setting only tests turn. A field is set by a
// composite-literal element (keyed or positional), the left side of an
// assignment (unless the right side is the same field: the copy Fork and
// Clone make), ++ or --, an assignment to an element or subfield of it,
// taking its address, or calling a pointer-receiver method on it. Fields
// with a json tag are exempt, because decoding sets them.
func TestNoTestOnlySettings(t *testing.T) {
	m := loadModule(t)
	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	// setChain marks the fields e selects as set, down through the element,
	// dereference and field selections it is built of (x.F.G[i] sets G and F).
	var setChain func(e ast.Expr)
	setChain = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			setChain(x.X)
		case *ast.StarExpr:
			setChain(x.X)
		case *ast.IndexExpr:
			setChain(x.X)
		case *ast.SelectorExpr:
			if v := m.field(x); v != nil {
				set[v] = true
				setChain(x.X)
			}
		}
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if v := m.field(n); v != nil {
					read[v] = true
				}
				// A pointer method on an addressable value takes its address.
				if s := m.info.Selections[n]; s != nil && s.Kind() == types.MethodVal && !isPointer(s.Recv()) &&
					isPointer(s.Obj().Type().(*types.Signature).Recv().Type()) {
					setChain(n.X)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := m.info.Uses[id].(*types.Var); ok && v.IsField() {
						set[v.Origin()] = true
					}
				}
			case *ast.CompositeLit:
				if st, ok := m.info.Types[n].Type.Underlying().(*types.Struct); ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range n.Elts {
							set[st.Field(i).Origin()] = true
						}
					}
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if v := m.field(lhs); v == nil || len(n.Lhs) != len(n.Rhs) || v != m.field(n.Rhs[i]) {
						setChain(lhs)
					}
				}
			case *ast.IncDecStmt:
				setChain(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setChain(n.X)
				}
			}
			return true
		})
	}

	found := map[string]token.Position{}
	for rel, pkg := range m.gated() {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); tagged || !v.Exported() {
					continue
				}
				if read[v] && !set[v] {
					found[rel+"."+name+"."+v.Name()] = m.fset.Position(v.Pos())
				}
			}
		}
	}
	reportAgainstKeep(t, found, testOnlySettingsKeep, "testOnlySettingsKeep", "non-test code reads it but never sets it; make it the value production holds")
}

// fileWriteKeep lists the functions outside frame.Publish that may create,
// write or rename a file through package os directly, each with its
// reason. Keys are the declaring package's path below the module, then the
// function, or the receiver type and method, as the gate prints them.
var fileWriteKeep = map[string]string{
	"internal/frame.Publish":                "the write path itself",
	"internal/telemetry.NewFileTracer":      "the -trace sink streams while the run runs",
	"internal/cli.Common.startProfiles":     "the -cpuprofile sink streams while the run runs",
	"internal/cli.ProbeDir":                 "the writability probe creates and removes one empty file",
	"internal/cli.Common.writeCrashBundle":  "the crash bundle's files land in a temporary directory that one rename publishes",
	"internal/runstore.Store.AppendAttempt": "the attempts sidecar is an append log",
	"internal/jobs.Open":                    "the journal's append handle",
}

// fileWriters names the package os functions and methods that create,
// write or rename a file.
var fileWriters = map[string]bool{"Create": true, "CreateTemp": true, "OpenFile": true, "WriteFile": true, "Rename": true}

// TestFileWritesGoThroughFrame fails on every function in a non-test file
// of the module (bench/ aside) that uses os.Create, os.CreateTemp,
// os.OpenFile, os.WriteFile or os.Rename, unless fileWriteKeep names it:
// every other whole file goes through frame.Publish, which replaces it
// atomically.
func TestFileWritesGoThroughFrame(t *testing.T) {
	m := loadModule(t)
	found := map[string]token.Position{}
	for _, f := range m.files {
		pkg := filepath.ToSlash(filepath.Dir(relPath(m.fset.Position(f.Pos()).Filename)))
		if pkg == "bench" || strings.HasPrefix(pkg, "bench/") {
			continue
		}
		for _, decl := range f.Decls {
			name := "(package level)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = fn.Name.Name
				if recv := recvType(fn); recv != nil {
					name = recv.Name + "." + name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := m.info.Uses[id].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == "os" && fileWriters[fn.Name()] {
					if key := pkg + "." + name; found[key] == (token.Position{}) {
						found[key] = m.fset.Position(id.Pos())
					}
				}
				return true
			})
		}
	}
	reportAgainstKeep(t, found, fileWriteKeep, "fileWriteKeep", "writes a file outside frame.Publish; write it with frame.Publish or frame.PublishWith")
}

// recvType returns the identifier naming a method's receiver type, nil for
// a function.
func recvType(fn *ast.FuncDecl) *ast.Ident {
	if fn.Recv == nil {
		return nil
	}
	e := fn.Recv.List[0].Type
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// reportAgainstKeep fails on every found name the keep-list does not give a
// reason for, and on every keep entry found no longer names.
func reportAgainstKeep(t *testing.T, found map[string]token.Position, keep map[string]string, keepName, why string) {
	t.Helper()
	var bad []string
	for key, pos := range found {
		if _, ok := keep[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s (%s:%d): %s, or add it to %s with the reason it stays", key, relPath(pos.Filename), pos.Line, why, keepName))
		}
	}
	for key := range keep {
		if _, ok := found[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s: in %s, but the gate no longer finds it; drop the entry", key, keepName))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

func isPointer(t types.Type) bool {
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

// checkedModule is the non-test source of the module and of bench/charbench,
// type-checked once per test binary and shared by the gates.
type checkedModule struct {
	fset     *token.FileSet
	packages map[string]*types.Package // by import path
	files    []*ast.File
	info     *types.Info // Uses, Types and Selections of every file
}

var (
	moduleOnce sync.Once
	module     *checkedModule
	moduleErr  error
)

// loadModule returns the checked module, loading it on first use; the
// gates are skipped under -short.
func loadModule(t *testing.T) *checkedModule {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	moduleOnce.Do(func() { module, moduleErr = checkModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

// checkModule type-checks every non-test package of the module and of
// bench/charbench from source, importing the standard library from the
// export data `go list -export` builds.
func checkModule() (*checkedModule, error) {
	root, err := goList(".", "./...")
	if err != nil {
		return nil, err
	}
	bench, err := goList("bench", "./charbench")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	sources := map[string]listedPackage{}
	for _, p := range append(root, bench...) {
		switch {
		case p.Standard:
			exports[p.ImportPath] = p.Export
		case p.ImportPath == "repro" || strings.HasPrefix(p.ImportPath, "repro/"):
			sources[p.ImportPath] = p
		default:
			return nil, fmt.Errorf("package %s is neither standard nor in the module", p.ImportPath)
		}
	}
	c := &sourceChecker{
		sources: sources,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		m: &checkedModule{
			fset:     fset,
			packages: map[string]*types.Package{},
			info: &types.Info{
				Uses:       map[*ast.Ident]types.Object{},
				Types:      map[ast.Expr]types.TypeAndValue{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		},
	}
	for path := range sources {
		if _, err := c.Import(path); err != nil {
			return nil, err
		}
	}
	return c.m, nil
}

// gated returns the packages the gates cover, keyed by their path below
// the module: those under internal/, internal/proptest aside (it is test
// support).
func (m *checkedModule) gated() map[string]*types.Package {
	out := map[string]*types.Package{}
	for path, pkg := range m.packages {
		rel := strings.TrimPrefix(path, "repro/")
		if strings.HasPrefix(rel, "internal/") && rel != "internal/proptest" && !strings.HasPrefix(rel, "internal/proptest/") {
			out[rel] = pkg
		}
	}
	return out
}

// field returns the struct field e selects, nil when e is no field
// selection.
func (m *checkedModule) field(e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := m.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		return s.Obj().(*types.Var).Origin()
	}
	return nil
}

// listedPackage is the part of `go list -json` the gate reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists pattern's packages and their dependencies from dir, with
// export data built for each.
func goList(dir, pattern string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s in %s: %v\n%s", pattern, dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// sourceChecker type-checks the module's packages from their non-test
// source into m, and imports the standard library from export data.
type sourceChecker struct {
	sources map[string]listedPackage
	std     types.Importer
	m       *checkedModule
}

func (c *sourceChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.m.packages[path]; ok {
		return pkg, nil
	}
	src, ok := c.sources[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range src.GoFiles {
		f, err := parser.ParseFile(c.m.fset, filepath.Join(src.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.m.fset, files, c.m.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	c.m.packages[path] = pkg
	c.m.files = append(c.m.files, files...)
	return pkg, nil
}

// satisfiesInterface reports whether one of ifaces has a method called name
// and named or a pointer to it implements that interface.
func satisfiesInterface(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// method builds an interface method signature from its parameter and
// result types.
func method(name string, params []types.Type, results ...types.Type) *types.Func {
	tuple := func(ts []types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false))
}

func methodSet(methods ...*types.Func) *types.Interface {
	return types.NewInterfaceType(methods, nil).Complete()
}

// relPath shortens an absolute source path to the module-relative one.
func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil {
			return rel
		}
	}
	return name
}
