package archtest

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArchitecture checks every fact on the repository.
func TestArchitecture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repository root: %v", err)
	}
	tr, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, fc := range facts {
		t.Run(fc.name, func(t *testing.T) {
			for _, v := range fc.check(tr) {
				t.Error(v)
			}
		})
	}
}

// TestFactsFireOnSeeds runs each fact on its seed, testdata/<name>/: a
// small tree that mirrors the repository's paths and plants a violation,
// each planted line marked with a "// want" comment. The fact must report
// exactly the marked lines, so a fact that can no longer fire, or that
// fires for another reason, fails here.
func TestFactsFireOnSeeds(t *testing.T) {
	named := map[string]bool{}
	for _, fc := range facts {
		if named[fc.name] {
			t.Errorf("two facts are named %s", fc.name)
		}
		named[fc.name] = true
		t.Run(fc.name, func(t *testing.T) {
			tr, err := load(filepath.Join("testdata", fc.name))
			if errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("no seed: add testdata/%s with one planted violation", fc.name)
			}
			if err != nil {
				t.Fatal(err)
			}
			want := tr.wants()
			if len(want) == 0 {
				t.Fatal(`the seed marks no planted violation with "// want"`)
			}
			fired := map[string]bool{}
			for _, v := range fc.check(tr) {
				fired[v.at] = true
				if !want[v.at] {
					t.Errorf("fires off the planted lines: %v", v)
				}
			}
			for at := range want {
				if !fired[at] {
					t.Errorf("does not fire on the violation planted at %s", at)
				}
			}
		})
	}
	seeds, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seeds {
		if !named[s.Name()] {
			t.Errorf("testdata/%s seeds no fact", s.Name())
		}
	}
}

// wants lists the lines a seed marks with a comment ending "// want".
func (t *tree) wants() map[string]bool {
	out := map[string]bool{}
	for _, f := range t.files {
		for _, cg := range f.ast.Comments {
			for _, c := range cg.List {
				if strings.HasSuffix(strings.TrimSpace(c.Text), "// want") {
					out[t.at(f, c.Pos())] = true
				}
			}
		}
	}
	return out
}
