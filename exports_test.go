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
	"sort"
	"strings"
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

// TestNoTestOnlyExports fails on every exported func, method, type,
// package var or const under internal/ (internal/proptest aside, being test
// support) that no non-test file of the module or of bench/charbench uses,
// unless testOnlyKeep names it. Methods that satisfy an interface are
// reached through it, so they are left out: the module's own interfaces,
// error, fmt.Stringer, math/rand.Source and interface{ Unwrap() error }.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped under -short")
	}
	root := goList(t, ".", "./...")
	bench := goList(t, "bench", "./charbench")

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
			t.Fatalf("package %s is neither standard nor in the module", p.ImportPath)
		}
	}
	c := &sourceChecker{
		fset:    fset,
		sources: sources,
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
		checked: map[string]*types.Package{},
		used:    map[types.Object]bool{},
	}
	for path := range sources {
		if _, err := c.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	var ifaces []*types.Interface
	for _, pkg := range c.checked {
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
	for path, pkg := range c.checked {
		rel := strings.TrimPrefix(path, "repro/")
		if !strings.HasPrefix(rel, "internal/") || rel == "internal/proptest" || strings.HasPrefix(rel, "internal/proptest/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !c.used[obj] {
				found[rel+"."+name] = fset.Position(obj.Pos())
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.used[m] && !satisfiesInterface(named, m.Name(), ifaces) {
					found[rel+"."+name+"."+m.Name()] = fset.Position(m.Pos())
				}
			}
		}
	}

	var bad []string
	for key, pos := range found {
		if _, ok := testOnlyKeep[key]; !ok {
			bad = append(bad, fmt.Sprintf("%s (%s:%d): only tests use it; delete it, or add it to testOnlyKeep with the reason it stays", key, relPath(pos.Filename), pos.Line))
		}
	}
	for key := range testOnlyKeep {
		if _, ok := found[key]; !ok {
			bad = append(bad, key+": in testOnlyKeep, but it is gone or a non-test file uses it; drop the entry")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
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
func goList(t *testing.T, dir, pattern string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list %s in %s: %v\n%s", pattern, dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// sourceChecker type-checks the module's packages from their non-test
// source, imports the standard library from export data, and records every
// object a checked file uses.
type sourceChecker struct {
	fset    *token.FileSet
	sources map[string]listedPackage
	std     types.Importer
	checked map[string]*types.Package
	used    map[types.Object]bool
}

func (c *sourceChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.checked[path]; ok {
		return pkg, nil
	}
	src, ok := c.sources[path]
	if !ok {
		return c.std.Import(path)
	}
	var files []*ast.File
	for _, name := range src.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(src.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		c.used[obj] = true
	}
	c.checked[path] = pkg
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
