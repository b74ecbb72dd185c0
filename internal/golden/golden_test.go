package golden

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// recorder stands in for the test Check reports to, keeping its errors.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper()      {}
func (r *recorder) Failed() bool { return len(r.errs) > 0 }
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name     string
		file     string // the golden file's bytes before Check; "" for none
		got      string
		update   bool
		failed   bool     // the test has already failed when it calls Check
		wantErrs []string // substrings of the one error Check reports; nil for none
		wantFile string   // the golden file's bytes after Check
	}{
		{
			name: "mismatch names the first differing line",
			file: "a\nb\nc\n", got: "a\nB\nc\n",
			wantErrs: []string{"line 2:", "got: B", "want: b", Regenerate},
			wantFile: "a\nb\nc\n",
		},
		{
			name: "longer output names the line past the file's end",
			file: "a\n", got: "a\nb\n",
			wantErrs: []string{"line 2:", "got: b", Regenerate},
			wantFile: "a\n",
		},
		{
			name:     "missing file names the command",
			got:      "a\n",
			wantErrs: []string{Regenerate},
		},
		{
			name: "update rewrites the file, and the same bytes then pass",
			file: "old\n", got: "new\n", update: true,
			wantFile: "new\n",
		},
		{
			name: "update does not write a failed test's output",
			file: "old\n", got: "partial\n", update: true, failed: true,
			wantErrs: []string{"not rewritten"},
			wantFile: "old\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "testdata", "x.golden")
			if tc.file != "" {
				if err := write(path, []byte(tc.file)); err != nil {
					t.Fatal(err)
				}
			}
			r := &recorder{}
			if tc.failed {
				r.errs = []string{"an earlier failure"}
			}
			*update = tc.update
			Check(r, path, []byte(tc.got))
			*update = false
			if tc.failed {
				r.errs = r.errs[1:]
			}
			switch {
			case tc.wantErrs == nil && len(r.errs) != 0:
				t.Errorf("Check reported %q, want nothing", r.errs)
			case tc.wantErrs != nil && len(r.errs) != 1:
				t.Errorf("Check reported %q, want one error", r.errs)
			case tc.wantErrs != nil:
				for _, s := range tc.wantErrs {
					if !strings.Contains(r.errs[0], s) {
						t.Errorf("Check reported %q, which does not say %q", r.errs[0], s)
					}
				}
			}
			if tc.wantFile == "" {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Errorf("golden file exists after Check (stat: %v)", err)
				}
				return
			}
			if b, err := os.ReadFile(path); err != nil || string(b) != tc.wantFile {
				t.Errorf("golden file holds %q (err %v), want %q", b, err, tc.wantFile)
			}
			again := &recorder{}
			Check(again, path, []byte(tc.wantFile))
			if len(again.errs) != 0 {
				t.Errorf("a second Check of the file's own bytes reported %q", again.errs)
			}
			if entries, _ := os.ReadDir(filepath.Dir(path)); len(entries) != 1 {
				t.Errorf("testdata holds %d entries, want the golden file alone", len(entries))
			}
		})
	}
}

// TestOnlyTestsImportGolden keeps -update-golden out of every binary: no
// non-test file of the module imports this package.
func TestOnlyTestsImportGolden(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "critter/internal/golden" {
				t.Errorf("%s imports %s outside a test", path, p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
