package alps_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The knob census: every exported field of every exported *Options,
// *Policy and *Config struct, and every alpsd and alpsclient flag, read
// from the module's non-test Go files. docs/KNOBS.md has one row per knob;
// TestKnobCensus keeps the two equal. A field row names the packages whose
// non-test code sets the field from outside the field's own package, or,
// when none does, says why the field is kept. bench/ is a module of its own
// and simnet, conformance and testutil exist to serve tests, so none of
// them declares knobs or counts as a setter.

const modulePath = "repro"

// testSupport are the module directories left out of the census.
var testSupport = map[string]bool{
	"internal/simnet":      true,
	"internal/conformance": true,
	"internal/testutil":    true,
}

// flagDefiners maps each flag.FlagSet method that defines a flag to the
// index of its name argument.
var flagDefiners = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0,
	"Int": 0, "Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

type knobCensus struct {
	fields map[string]map[string]bool // knob id -> directories that set it
	flags  map[string]bool            // "alpsd -addr"
}

// loader type-checks the module's packages from their non-test files.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info
	errs  []string
}

func (l *loader) Import(p string) (*types.Package, error) {
	if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
		return l.std.Import(p)
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(p, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	files, err := parseDir(l.fset, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err.Error()) }}
	pkg, _ := conf.Check(p, l.fset, files, l.info)
	l.pkgs[p], l.files[dir] = pkg, files
	return pkg, nil
}

// parseDir parses the non-test Go files of one directory.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// moduleDirs lists the directories holding the module's non-test Go files,
// skipping nested modules, testdata and hidden directories.
func moduleDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); p != "." && err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			seen[filepath.ToSlash(filepath.Dir(p))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

func takeCensus(t *testing.T) knobCensus {
	t.Helper()
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	dirs := moduleDirs(t)
	for _, dir := range dirs {
		if _, err := l.Import(path.Join(modulePath, dir)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.errs) > 0 {
		t.Fatalf("type-checking the module: %s", strings.Join(l.errs, "\n"))
	}

	c := knobCensus{fields: map[string]map[string]bool{}, flags: map[string]bool{}}
	byField := map[*types.Var]string{}
	names := map[string]string{} // package name -> directory declaring knobs
	for _, dir := range dirs {
		if testSupport[dir] {
			continue
		}
		pkg := l.pkgs[path.Join(modulePath, dir)]
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy") || strings.HasSuffix(name, "Config")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			if other, dup := names[pkg.Name()]; dup && other != dir {
				t.Fatalf("packages %s and %s are both named %s: knob ids would collide", other, dir, pkg.Name())
			}
			names[pkg.Name()] = dir
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					id := pkg.Name() + "." + name + "." + f.Name()
					c.fields[id] = map[string]bool{}
					byField[f] = id
				}
			}
		}
	}

	set := func(dir string, obj types.Object) {
		if f, ok := obj.(*types.Var); ok && byField[f] != "" && path.Join(modulePath, dir) != f.Pkg().Path() {
			c.fields[byField[f]][dir] = true
		}
	}
	field := func(e ast.Expr) types.Object { // x.f, if f is a field
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := l.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj()
			}
		}
		return nil
	}
	for _, dir := range dirs {
		if testSupport[dir] {
			continue
		}
		cli := dir == "cmd/alpsd" || dir == "cmd/alpsclient"
		for _, file := range l.files[dir] {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					tv := l.info.Types[n]
					if tv.Type == nil {
						return true
					}
					st, ok := types.Unalias(tv.Type).Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set(dir, l.info.Uses[kv.Key.(*ast.Ident)])
						} else if i < st.NumFields() {
							set(dir, st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						set(dir, field(lhs))
					}
				case *ast.IncDecStmt:
					set(dir, field(n.X))
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						set(dir, field(n.X))
					}
				case *ast.CallExpr:
					// flag.String and fs.String alike: a function of package flag.
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !cli || !ok {
						return true
					}
					fn, ok := l.info.Uses[sel.Sel].(*types.Func)
					arg, defines := flagDefiners[sel.Sel.Name]
					if !ok || !defines || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
						return true
					}
					lit, ok := n.Args[arg].(*ast.BasicLit)
					if !ok {
						t.Fatalf("%s: a flag whose name is not a string literal", fset.Position(n.Pos()))
					}
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatalf("%s: %v", fset.Position(n.Pos()), err)
					}
					c.flags[path.Base(dir)+" -"+name] = true
				}
				return true
			})
		}
	}
	return c
}

type knobRow struct {
	line  int
	cells []string
}

// readKnobRows reads the table rows of docs/KNOBS.md, from its "Option
// fields" section on, whose first cell is a backquoted knob id.
func readKnobRows(t *testing.T) map[string]knobRow {
	t.Helper()
	f, err := os.Open("docs/KNOBS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]knobRow{}
	sc := bufio.NewScanner(f)
	census := false
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		census = census || line == "## Option fields"
		if !census || !strings.HasPrefix(line, "| `") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		id := strings.Trim(cells[0], "`")
		if prev, dup := rows[id]; dup {
			t.Errorf("docs/KNOBS.md:%d: %s already has a row at line %d", n, id, prev.line)
		}
		rows[id] = knobRow{line: n, cells: cells}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestKnobCensus fails when a knob has no docs/KNOBS.md row, when a row
// names a knob that no longer exists, when a field row's setters differ
// from the code's, or when a field that no non-test code outside its
// package sets has no "Kept because" reason.
func TestKnobCensus(t *testing.T) {
	c := takeCensus(t)
	rows := readKnobRows(t)
	var missing []string
	for id, dirs := range c.fields {
		var setBy []string
		for d := range dirs {
			setBy = append(setBy, d)
		}
		sort.Strings(setBy)
		want := "—"
		if len(setBy) > 0 {
			want = "`" + strings.Join(setBy, "`, `") + "`"
		}
		r, ok := rows[id]
		switch {
		case !ok:
			missing = append(missing, fmt.Sprintf("| `%s` | %s | |", id, want))
		case len(r.cells) != 3:
			t.Errorf("docs/KNOBS.md:%d: %s: a field row has three cells (knob, set by, serves or kept because)", r.line, id)
		case r.cells[1] != want:
			t.Errorf("docs/KNOBS.md:%d: %s is set by %s, the row says %s", r.line, id, want, r.cells[1])
		case len(setBy) == 0 && !strings.HasPrefix(r.cells[2], "Kept because"):
			t.Errorf("docs/KNOBS.md:%d: %s: no non-test code outside its package sets it, and the row gives no \"Kept because\" reason", r.line, id)
		case r.cells[2] == "":
			t.Errorf("docs/KNOBS.md:%d: %s: the row says nothing about what the knob serves", r.line, id)
		}
	}
	for id := range c.flags {
		r, ok := rows[id]
		switch {
		case !ok:
			missing = append(missing, fmt.Sprintf("| `%s` | |", id))
		case len(r.cells) != 2 || r.cells[1] == "":
			t.Errorf("docs/KNOBS.md:%d: %s: a flag row has two cells (flag, serves)", r.line, id)
		}
	}
	for id, r := range rows {
		if _, field := c.fields[id]; !field && !c.flags[id] {
			t.Errorf("docs/KNOBS.md:%d: %s is not a knob in the code", r.line, id)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("knobs with no docs/KNOBS.md row:\n%s", strings.Join(missing, "\n"))
	}
	testOnly := 0
	for _, setBy := range c.fields {
		if len(setBy) == 0 {
			testOnly++
		}
	}
	t.Logf("census: %d option fields (%d set by no non-test code outside their package), %d flags",
		len(c.fields), testOnly, len(c.flags))
}
